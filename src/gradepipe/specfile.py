"""Loading and validating assignment specification files.

An assignment spec is a YAML document that tells the grader everything
assignment-specific: which assignment number it covers, how to compile
submissions, the lexical rules, the black-box tests, and how the rubric
weighs it all. Validation is eager and exhaustive: a bad spec is rejected
before any grading starts, and every problem in the file is reported at
once rather than one per run.

One table drives the reader: ``_SECTIONS`` maps each mapping section to the
config class it builds and each of its keys to a type reader, which only
checks and converts the YAML value (a number is never a bool); rule and
test entries name theirs the same way. Omitted keys take the class's own
default, and range checks live only in the classes' ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import yaml

from .assess import Rubric
from .blackbox import DEFAULT_OUTPUT_CAP, NormalizationPolicy, TestCase
from .build import CompilerProfile
from .ingest import ExtractionLimits
from .lexcheck import LexicalRule, RulePolarity, join_pattern_lines


class SpecError(ValueError):
    """A spec file failed validation; ``problems`` lists every finding."""

    def __init__(self, source: str, problems: list[str]):
        self.source = source
        self.problems = problems
        listing = "\n".join(f"  - {problem}" for problem in problems)
        super().__init__(f"invalid assignment spec {source}:\n{listing}")


@dataclass(frozen=True)
class AssignmentSpec:
    """Everything the grader needs to know about one assignment."""

    assignment_number: int
    compiler: CompilerProfile
    rubric: Rubric
    normalization: NormalizationPolicy
    extraction: ExtractionLimits
    rules: tuple[LexicalRule, ...]
    tests: tuple[TestCase, ...]
    output_cap: int = DEFAULT_OUTPUT_CAP


def _is_number(value: Any) -> bool:
    # YAML ``true`` is a bool, and a bool is an int to Python.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: Any) -> float:
    if not _is_number(value):
        raise ValueError("must be a number")
    return float(value)


def _integer(value: Any) -> int:
    if not _is_integer(value):
        raise ValueError("must be an integer")
    return value


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be a boolean")
    return value


def _strings(value: Any) -> tuple[str, ...]:
    if not (isinstance(value, list) and value and all(isinstance(token, str) for token in value)):
        raise ValueError("must be a non-empty list of strings")
    return tuple(value)


def _extensions(value: Any) -> frozenset[str]:
    if not (isinstance(value, list) and all(isinstance(item, str) and item for item in value)):
        raise ValueError("must be a list of extension strings")
    lowered = (item.lower() for item in value)
    return frozenset(item if item.startswith(".") else "." + item for item in lowered)


_Readers = dict[str, Callable[[Any], Any]]

_SECTIONS: dict[str, tuple[type, _Readers]] = {
    "compiler": (CompilerProfile, {"command": _strings, "timeout_secs": _number}),
    "rubric": (
        Rubric,
        {"lexical_weight": _number, "blackbox_weight": _number, "compile_gate": _boolean, "scale": _number},
    ),
    "normalization": (
        NormalizationPolicy,
        dict.fromkeys(
            ("unify_line_endings", "trim_trailing_ws", "drop_trailing_blank_lines", "case_sensitive"), _boolean
        ),
    ),
    "extraction": (
        ExtractionLimits,
        {
            **dict.fromkeys(("max_total_bytes", "max_entry_count", "max_path_depth"), _integer),
            "allowed_extensions": _extensions,
        },
    ),
}
_RULE_READERS: _Readers = {"weight": _number, "strip_comments": _boolean, "strip_strings": _boolean}
_TEST_READERS: _Readers = {"timeout_secs": _number, "weight": _number}

_TOP_LEVEL_KEYS = {"assignment", "output_cap", "rules", "tests", *_SECTIONS}
_RULE_KEYS = {"id", "description", "pattern", "polarity", *_RULE_READERS}
_TEST_KEYS = {"id", "stdin", "expected_stdout", "expected_stdout_file", "args", *_TEST_READERS}


def _as_text(value: Any) -> str | None:
    """Scalar-to-text coercion for stdin/expected fields.

    YAML happily parses ``stdin: 2000`` as an integer; insisting on quotes
    there would reject specs that read perfectly clearly, so bare numbers
    are accepted and stringified. Anything else non-string is refused.
    """
    if isinstance(value, str):
        return value
    if _is_number(value):
        return str(value)
    return None


def _check_keys(mapping: dict[Any, Any], allowed: set[str], where: str, problems: list[str]) -> None:
    for key in sorted(set(mapping) - allowed, key=str):
        problems.append(f"{where}: unknown key {key!r}")


def _read(mapping: dict[Any, Any], readers: _Readers, where: str, problems: list[str]) -> dict[str, Any]:
    """Read every key of ``readers`` that ``mapping`` gives, leaving out and
    reporting the invalid ones so that they take the class default."""
    values: dict[str, Any] = {}
    for key, reader in readers.items():
        if key in mapping:
            try:
                values[key] = reader(mapping[key])
            except ValueError as exc:
                problems.append(f"{where}: {key} {exc}")
    return values


def _parse_section(name: str, section: Any, problems: list[str]) -> Any:
    """Build the config class of a mapping section; its defaults on any problem."""
    cls, readers = _SECTIONS[name]
    if section is None:
        return cls()
    if not isinstance(section, dict):
        problems.append(f"{name}: must be a mapping")
        return cls()
    _check_keys(section, set(readers), name, problems)
    try:
        return cls(**_read(section, readers, name, problems))
    except ValueError as exc:
        problems.append(f"{name}: {exc}")
        return cls()


def _entries(name: str, section: Any, allowed: set[str], problems: list[str]) -> Iterator[tuple[str, str, dict]]:
    """Yield ``(where, id, entry)`` for each entry of a list section with a new id."""
    if section is None:
        return
    if not isinstance(section, list):
        problems.append(f"{name}: must be a list")
        return
    seen_ids: set[str] = set()
    for index, entry in enumerate(section):
        where = f"{name}[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be a mapping")
            continue
        _check_keys(entry, allowed, where, problems)
        entry_id = entry.get("id")
        if not isinstance(entry_id, str) or not entry_id:
            problems.append(f"{where}: missing or non-string id")
            continue
        if entry_id in seen_ids:
            problems.append(f"{where}: duplicate {name[:-1]} id {entry_id!r}")
            continue
        seen_ids.add(entry_id)
        yield f"{where} ({entry_id})", entry_id, entry


def _parse_rules(section: Any, problems: list[str]) -> tuple[LexicalRule, ...]:
    rules: list[LexicalRule] = []
    for where, rule_id, entry in _entries("rules", section, _RULE_KEYS, problems):
        pattern = entry.get("pattern")
        if not isinstance(pattern, str) or not pattern.strip():
            problems.append(f"{where}: missing or empty pattern")
            continue
        try:
            polarity = RulePolarity(entry.get("polarity", "must-match"))
        except ValueError:
            problems.append(f"{where}: polarity must be 'must-match' or 'must-not-match'")
            continue
        description = entry.get("description", rule_id)
        if not isinstance(description, str):
            problems.append(f"{where}: description must be a string")
            description = rule_id
        values = _read(entry, _RULE_READERS, where, problems)
        try:
            rules.append(LexicalRule(rule_id, description, join_pattern_lines(pattern), polarity, **values))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return tuple(rules)


def _parse_tests(section: Any, spec_dir: Path, problems: list[str]) -> tuple[TestCase, ...]:
    tests: list[TestCase] = []
    for where, test_id, entry in _entries("tests", section, _TEST_KEYS, problems):
        if "expected_stdout" in entry and "expected_stdout_file" in entry:
            problems.append(f"{where}: give expected_stdout or expected_stdout_file, not both")
            continue
        if "expected_stdout_file" in entry:
            ref = entry["expected_stdout_file"]
            if not isinstance(ref, str):
                problems.append(f"{where}: expected_stdout_file must be a path string")
                continue
            try:
                expected = (spec_dir / ref).read_text(encoding="utf-8")
            except OSError as exc:
                problems.append(f"{where}: cannot read expected output file: {exc}")
                continue
        else:
            expected = _as_text(entry.get("expected_stdout"))
            if expected is None:
                problems.append(f"{where}: missing expected_stdout")
                continue
        stdin_text = _as_text(entry.get("stdin", ""))
        if stdin_text is None:
            problems.append(f"{where}: stdin must be text")
            continue
        args = entry.get("args", [])
        if not (isinstance(args, list) and all(isinstance(arg, str) for arg in args)):
            problems.append(f"{where}: args must be a list of strings")
            continue
        values = _read(entry, _TEST_READERS, where, problems)
        try:
            tests.append(TestCase(test_id, expected, stdin_text, tuple(args), **values))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return tuple(tests)


def load_spec(path: Path | str) -> AssignmentSpec:
    """Load and validate an assignment spec, raising :class:`SpecError` with
    every problem found if the file is not usable."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(str(path), [f"cannot read file: {exc}"]) from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(str(path), [f"not valid YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise SpecError(str(path), ["top level must be a mapping"])

    problems: list[str] = []
    _check_keys(raw, _TOP_LEVEL_KEYS, "spec", problems)

    assignment = raw.get("assignment")
    if not (_is_integer(assignment) and assignment >= 0):
        problems.append("assignment: required, must be a non-negative integer")

    sections = {name: _parse_section(name, raw.get(name), problems) for name in _SECTIONS}
    rules = _parse_rules(raw.get("rules"), problems)
    tests = _parse_tests(raw.get("tests"), path.parent, problems)

    output_cap = raw.get("output_cap", DEFAULT_OUTPUT_CAP)
    if not (_is_integer(output_cap) and output_cap > 0):
        problems.append("output_cap: must be a positive integer")

    if problems:
        raise SpecError(str(path), problems)
    return AssignmentSpec(
        assignment_number=assignment,
        rules=rules,
        tests=tests,
        output_cap=output_cap,
        **sections,
    )
