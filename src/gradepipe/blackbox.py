"""Black-box I/O testing of compiled submissions.

Each test feeds a program a stdin script and compares captured stdout against
the instructor's expected text after both sides pass through the same
normalization (line endings, trailing whitespace, trailing blank lines, and
optional case folding). The comparison deliberately knows nothing about the
program's internals; a submission passes by behaving correctly, not by
looking correct.

Misbehaving programs cannot take the grader down with them: wall-clock
timeouts and an output volume cap both kill the program, with everything it
started, and produce a distinct verdict instead of an exception.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .child import run_child

DEFAULT_TEST_TIMEOUT = 5.0
DEFAULT_OUTPUT_CAP = 1024 * 1024


class SpawnFailure(RuntimeError):
    """The compiled binary could not be started at all.

    This points at the grading environment (missing interpreter, permission
    problem), not at the submission's behaviour, so it is an exception rather
    than a verdict.
    """


@dataclass(frozen=True)
class NormalizationPolicy:
    """Which cosmetic differences are forgiven when comparing output."""

    unify_line_endings: bool = True
    trim_trailing_ws: bool = True
    drop_trailing_blank_lines: bool = True
    case_sensitive: bool = True


def normalize_output(text: str, policy: NormalizationPolicy = NormalizationPolicy()) -> str:
    """Normalize program output for comparison. Idempotent for any policy."""
    if policy.unify_line_endings:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if policy.trim_trailing_ws:
        lines = [line.rstrip() for line in lines]
    if policy.drop_trailing_blank_lines:
        while lines and not lines[-1].strip():
            lines.pop()
    text = "\n".join(lines)
    if not policy.case_sensitive:
        text = text.casefold()
    return text


class TestOutcome(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    TIMEOUT = "Timeout"
    RUNTIME_ERROR = "RuntimeError"
    OUTPUT_OVERFLOW = "OutputOverflow"


@dataclass(frozen=True)
class TestCase:
    """One stdin/stdout exchange with the submitted program."""

    test_id: str
    expected_stdout: str
    stdin_text: str = ""
    args: tuple[str, ...] = ()
    timeout_secs: float = DEFAULT_TEST_TIMEOUT
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.test_id:
            raise ValueError("test_id must be non-empty")
        if not (isinstance(self.timeout_secs, (int, float)) and not isinstance(self.timeout_secs, bool)
                and self.timeout_secs > 0):
            raise ValueError(f"test {self.test_id!r}: timeout_secs must be positive")
        if not (isinstance(self.weight, (int, float)) and not isinstance(self.weight, bool) and self.weight > 0):
            raise ValueError(f"test {self.test_id!r}: weight must be positive")


@dataclass(frozen=True)
class TestResult:
    test_id: str
    outcome: TestOutcome
    expected: str
    actual: str
    exit_code: int | None
    weight: float
    duration_secs: float
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    results: tuple[TestResult, ...]

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.results if r.outcome is TestOutcome.PASS)

    @property
    def total_weight(self) -> float:
        return sum(r.weight for r in self.results)

    @property
    def passed_weight(self) -> float:
        return sum(r.weight for r in self.results if r.outcome is TestOutcome.PASS)

    @property
    def fraction(self) -> float:
        """Weighted pass share; vacuously 1.0 for an empty suite."""
        total = self.total_weight
        if total == 0:
            return 1.0
        return self.passed_weight / total


def _signal_name(exit_code: int) -> str:
    try:
        return signal.Signals(-exit_code).name
    except ValueError:
        return f"signal {-exit_code}"


def run_test(
    executable: Path,
    case: TestCase,
    policy: NormalizationPolicy = NormalizationPolicy(),
    output_cap: int = DEFAULT_OUTPUT_CAP,
) -> TestResult:
    """Run one test against a compiled binary and return its verdict.

    Verdict precedence: OUTPUT_OVERFLOW if the process was killed for
    writing more than ``output_cap`` bytes, TIMEOUT if it was killed for
    exceeding the wall-clock limit, RUNTIME_ERROR if it died on a signal of
    its own, otherwise PASS/FAIL by comparing normalized stdout. A nonzero
    exit status with matching output still passes; the exit code is recorded
    for the report but is not part of the contract.
    """
    # One byte past the cap is kept to tell a full stdout from an overflowing one.
    captured = bytearray()

    def take(chunk: bytes) -> bool:
        captured.extend(chunk[: output_cap + 1 - len(captured)])
        return len(captured) <= output_cap

    start = time.monotonic()
    try:
        exit_code, timed_out = run_child(
            [str(executable), *case.args],
            executable.parent,
            case.timeout_secs,
            take,
            stdin=case.stdin_text.encode("utf-8"),
        )
    except OSError as exc:
        raise SpawnFailure(f"cannot start {executable}: {exc}") from exc
    duration = time.monotonic() - start
    overflowed = len(captured) > output_cap

    expected = normalize_output(case.expected_stdout, policy)
    actual = normalize_output(captured[:output_cap].decode("utf-8", errors="replace"), policy)

    if overflowed:
        outcome = TestOutcome.OUTPUT_OVERFLOW
        detail = f"stdout exceeded {output_cap} bytes; process killed"
    elif timed_out:
        outcome = TestOutcome.TIMEOUT
        detail = f"no verdict within {case.timeout_secs:g} s; process killed"
    elif exit_code < 0:
        outcome = TestOutcome.RUNTIME_ERROR
        detail = f"terminated by {_signal_name(exit_code)}"
    elif actual == expected:
        outcome = TestOutcome.PASS
        detail = ""
    else:
        outcome = TestOutcome.FAIL
        detail = "output mismatch"

    return TestResult(
        test_id=case.test_id,
        outcome=outcome,
        expected=expected,
        actual=actual,
        exit_code=None if overflowed else exit_code,
        weight=case.weight,
        duration_secs=duration,
        detail=detail,
    )


def run_test_suite(
    executable: Path,
    cases: Sequence[TestCase],
    policy: NormalizationPolicy = NormalizationPolicy(),
    output_cap: int = DEFAULT_OUTPUT_CAP,
) -> SuiteResult:
    """Run every test case in order against one binary.

    Cases run sequentially so resource limits apply to one child at a time;
    grading-level parallelism belongs above this layer, across submissions.
    """
    return SuiteResult(tuple(run_test(executable, case, policy, output_cap) for case in cases))
