"""Fusing lexical and behavioural evidence into a grade and a report.

Scoring is a weighted average of two shares: the weight share of
satisfied lexical rules and the weight share of passing black-box tests,
scaled to the configured grade scale. A compile gate (on by default) floors
the score at zero when the submission does not build, on the reasoning that
an unbuildable program demonstrates neither structure nor behaviour.

Every submission also leaves two durable artifacts: a report (human text and
machine JSON, written side by side) and one line in an append-only JSONL
grading log that serves as the audit trail for the whole batch.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from .blackbox import TestOutcome, TestResult
from .build import CompileResult
from .ingest import SubmissionIdentity
from .lexcheck import RuleResult

DEFAULT_LEXICAL_WEIGHT = 0.3
DEFAULT_BLACKBOX_WEIGHT = 0.7
DEFAULT_SCALE = 100.0

EVENT_RECEIVED = "received"
EVENT_GRADED = "graded"
EVENT_QUARANTINED = "quarantined"
EVENT_COMPILE_ERROR = "compile_error"
EVENT_ERRORED = "errored"
EVENT_SUPERSEDED = "superseded"
EVENT_IGNORED = "ignored"


@dataclass(frozen=True)
class Rubric:
    """How the two analysis routes combine into one number."""

    lexical_weight: float = DEFAULT_LEXICAL_WEIGHT
    blackbox_weight: float = DEFAULT_BLACKBOX_WEIGHT
    compile_gate: bool = True
    scale: float = DEFAULT_SCALE

    def __post_init__(self) -> None:
        for name in ("lexical_weight", "blackbox_weight"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if _exact(self.lexical_weight) + _exact(self.blackbox_weight) != 1:  # as the decimals are written
            raise ValueError("lexical_weight and blackbox_weight must sum to 1.0")
        if not (isinstance(self.scale, (int, float)) and not isinstance(self.scale, bool)
                and 0 < self.scale <= sys.float_info.max):
            raise ValueError(f"scale must be positive, got {self.scale!r}")
        if not isinstance(self.compile_gate, bool):
            raise ValueError(f"compile_gate must be a bool, got {self.compile_gate!r}")


def _exact(value: float) -> Fraction:
    """``value`` as the decimal it is written as: 0.3 is 3/10, not the binary float nearest it."""
    return Fraction(str(value))


def _passed_share(results: Sequence[Any], passed: Callable[[Any], bool]) -> Fraction:
    """The exact weight share of the ``results`` that passed; 1 with none."""
    total = sum(_exact(result.weight) for result in results)
    return sum(_exact(result.weight) for result in results if passed(result)) / total if total else Fraction(1)


def score_submission(
    compile_result: CompileResult | None,
    lexical: Sequence[RuleResult] | None,
    blackbox: Sequence[TestResult] | None,
    rubric: Rubric = Rubric(),
) -> float:
    """Compute the numeric grade for one submission; the only place a share is computed.

    With the compile gate on, a failed (or absent) build scores 0 outright.
    Otherwise the score is ``scale * (lw * rule_share + bw * test_share)``,
    where each share is the weight share of the satisfied rules or passed
    tests. An empty rule or test list counts 1.0: it asks for nothing. An
    absent lexical report counts 1.0 as well, like an empty rule list. A
    suite that never ran counts 0: behaviour that was never demonstrated
    earns no behaviour credit.

    Every weight and the scale are read as the decimals they are written
    as, and the score is computed exactly and returned as the float nearest
    it: weights 0.3 and 0.7, every rule satisfied and half the tests passed,
    give 65.0 on a scale of 100 (float arithmetic gives 64.99999999999999).
    """
    if rubric.compile_gate and (compile_result is None or not compile_result.succeeded):
        return 0.0
    rule_share = Fraction(1) if lexical is None else _passed_share(lexical, lambda r: r.satisfied)
    test_share = Fraction(0) if blackbox is None else _passed_share(blackbox, lambda t: t.outcome is TestOutcome.PASS)
    exact = _exact(rubric.lexical_weight) * rule_share + _exact(rubric.blackbox_weight) * test_share
    return float(_exact(rubric.scale) * exact)


class ReportStatus(Enum):
    GRADED = "Graded"
    QUARANTINED = "Quarantined"
    ERRORED = "Errored"
    SUPERSEDED = "Superseded"


@dataclass
class AssessmentReport:
    """Everything known about one submission, filled in as phases complete.

    A report constructed from its metadata alone has every section absent.
    ``identity`` is None only for archives whose filename never parsed; such
    reports are logged but not written to the reports directory because there
    is no student to file them under. ``blackbox`` is None whenever the
    build failed: tests of a binary that does not exist are NotRun, not
    failed. ``score`` stays None until grading completes.
    """

    identity: SubmissionIdentity | None
    archive_name: str
    received_at: datetime
    archive_owner: str | None = None
    status: ReportStatus | None = None
    detail: str = ""
    compile_result: CompileResult | None = None
    lexical: tuple[RuleResult, ...] | None = None
    blackbox: tuple[TestResult, ...] | None = None
    score: float | None = None
    scale: float = DEFAULT_SCALE
    generated_at: datetime | None = None

    def check_invariants(self) -> None:
        if self.compile_result is not None and not self.compile_result.succeeded:
            if self.blackbox is not None:
                raise ValueError("blackbox must be NotRun when compilation failed")
        if self.blackbox is not None and self.compile_result is None:
            raise ValueError("blackbox cannot run before compilation")
        if self.score is not None and self.status not in (ReportStatus.GRADED, ReportStatus.SUPERSEDED):
            raise ValueError(f"score set on a {self.status} report")


def format_score(score: float, scale: float) -> str:
    """``score`` as the JSON writes it, rounded half to even to two places, then ``/scale``."""
    return f"{float(round(Fraction(repr(score)), 2))}/{scale:g}"


def _isoformat(moment: datetime | None) -> str | None:
    return None if moment is None else moment.isoformat()


def render_report_text(report: AssessmentReport) -> str:
    """Human-readable report, one submission per file."""
    lines: list[str] = []
    if report.identity is not None:
        lines.append(f"Submission: {report.identity.stem()}")
        lines.append(f"Student:    {report.identity.display_name()}")
        lines.append(f"Assignment: {report.identity.assignment_number}")
    else:
        lines.append(f"Submission: {report.archive_name}")
    lines.append(f"Received:   {_isoformat(report.received_at)}")
    if report.archive_owner:
        lines.append(f"Uploader:   {report.archive_owner}")
    status = report.status.value if report.status else "InProgress"
    lines.append(f"Status:     {status}")
    if report.score is not None:
        lines.append(f"Score:      {format_score(report.score, report.scale)}")
    if report.detail:
        lines.append(f"Detail:     {report.detail}")
    lines.append("")

    if report.compile_result is not None:
        result = report.compile_result
        verdict = "succeeded" if result.succeeded else "FAILED"
        lines.append(f"Compilation {verdict} ({len(result.diagnostics)} diagnostic lines)")
        for diagnostic in result.diagnostics:
            lines.append(f"  [{diagnostic.severity.value}] {diagnostic.text}")
        lines.append("")

    if report.lexical is not None:
        satisfied = sum(1 for r in report.lexical if r.satisfied)
        lines.append(f"Lexical rules: {satisfied}/{len(report.lexical)} satisfied")
        for rule in report.lexical:
            marker = "ok " if rule.satisfied else "MISS"
            expectation = "expected present" if rule.polarity.value == "must-match" else "expected absent"
            found = "found" if rule.matched else "not found"
            lines.append(f"  [{marker}] {rule.rule_id}: {rule.description} ({expectation}, {found})")
            for warning in rule.warnings:
                lines.append(f"         note: {warning}")
        lines.append("")

    if report.blackbox is not None:
        passed = sum(1 for t in report.blackbox if t.outcome is TestOutcome.PASS)
        lines.append(f"Black-box tests: {passed}/{len(report.blackbox)} passed")
        for test in report.blackbox:
            lines.append(f"  [{test.outcome.value}] {test.test_id}" + (f": {test.detail}" if test.detail else ""))
            if test.outcome.value == "Fail":
                lines.append(f"         expected: {_excerpt(test.expected)}")
                lines.append(f"         actual:   {_excerpt(test.actual)}")
        lines.append("")
    elif report.compile_result is not None and not report.compile_result.succeeded:
        lines.append("Black-box tests: NotRun (build failed)")
        lines.append("")

    if report.generated_at is not None:
        lines.append(f"Generated:  {_isoformat(report.generated_at)}")
    return "\n".join(lines).rstrip() + "\n"


def _excerpt(text: str, limit: int = 200) -> str:
    r"""``text`` on one line, each backslash written ``\\`` and each newline ``\n``, cut after ``limit`` characters.

    A cut that would split an escape is made before it, one character early.
    """
    flattened = text.replace("\\", "\\\\").replace("\n", "\\n")
    if len(flattened) <= limit:
        return flattened
    cut = flattened[:limit]
    # An odd run of backslashes at the cut ends in the first half of an escape.
    return cut[: limit - (len(cut) - len(cut.rstrip("\\"))) % 2] + "..."


def _test_payload(test: TestResult) -> dict[str, Any]:
    return {
        "id": test.test_id,
        "outcome": test.outcome.value,
        "weight": test.weight,
        "exit_code": test.exit_code,
        "detail": test.detail,
        "expected": test.expected,
        "actual": test.actual,
    }


def report_payload(report: AssessmentReport) -> dict[str, Any]:
    """Machine form of a report with a fixed key order.

    Durations and absolute paths are deliberately absent so that grading the
    same inbox twice yields byte-identical payloads once timestamps are
    masked.
    """
    compile_payload = None
    if report.compile_result is not None:
        compile_payload = {
            "succeeded": report.compile_result.succeeded,
            "diagnostics": [
                {"severity": d.severity.value, "text": d.text} for d in report.compile_result.diagnostics
            ],
        }
    rules_payload = []
    if report.lexical is not None:
        rules_payload = [
            {
                "id": r.rule_id,
                "description": r.description,
                "polarity": r.polarity.value,
                "matched": r.matched,
                "satisfied": r.satisfied,
                "weight": r.weight,
                "warnings": list(r.warnings),
            }
            for r in report.lexical
        ]
    tests_payload = []
    if report.blackbox is not None:
        tests_payload = [_test_payload(t) for t in report.blackbox]
    return {
        "student": report.identity.display_name() if report.identity else None,
        "assignment": report.identity.assignment_number if report.identity else None,
        "received_at": _isoformat(report.received_at),
        "status": report.status.value if report.status else None,
        "score": report.score,
        "compile": compile_payload,
        "rules": rules_payload,
        "tests": tests_payload,
        "detail": report.detail,
        "generated_at": _isoformat(report.generated_at),
        "archive_owner": report.archive_owner,
    }


def render_report_json(report: AssessmentReport) -> str:
    return json.dumps(report_payload(report), indent=2) + "\n"


class GradingLogError(RuntimeError):
    """The audit log could not be written; grading must not continue silently."""


class GradingLog:
    """Append-only JSONL audit trail, one event object per line.

    The log is the one artifact that survives every submission outcome,
    including the ones with no report file, so failure to append is treated
    as fatal for the batch rather than swallowed.
    """

    def __init__(self, path: Path):
        self.path = path
        self._lock = threading.Lock()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise GradingLogError(f"cannot open grading log {path}: {exc}") from exc
        with contextlib.suppress(OSError), open(path, "rb") as tail:  # a log it cannot read shows no torn line
            if (end := self._handle.tell()) and os.pread(tail.fileno(), 1, end - 1) != b"\n":
                self._handle.write("\n")  # a torn last line must not swallow the next event

    def append(self, kind: str, timestamp: datetime, **fields: Any) -> None:
        event: dict[str, Any] = {"timestamp": timestamp.isoformat(), "kind": kind}
        event.update(fields)
        line = json.dumps(event)
        with self._lock:
            try:
                self._handle.write(line + "\n")
                self._handle.flush()
            except (OSError, ValueError) as exc:
                raise GradingLogError(f"cannot append to grading log {self.path}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:
                pass


def read_log_events(path: Path) -> list[dict[str, Any]]:
    """Parse a grading log back into event dicts, skipping a last line whose append never finished.

    A malformed line that does end raises ``json.JSONDecodeError`` naming the log and the line.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    events, offset = [], 0
    for line in text.split("\n")[:-1]:  # the last item is what follows the final newline
        if line.strip():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise json.JSONDecodeError(f"{path}: {exc.msg}", text, offset + exc.pos) from None
        offset += len(line) + 1
    return events
