"""Loading and validating assignment specification files.

An assignment spec is a YAML document that tells the grader everything
assignment-specific: which assignment number it covers, how to compile
submissions, the lexical rules, the black-box tests, and how the rubric
weighs it all. Validation is eager and exhaustive: a bad spec is rejected
before any grading starts, and every problem in the file is reported at
once rather than one per run.

One table drives the reader: ``_SECTIONS`` maps each mapping section to the
config class it builds and each of its keys to a type reader, which only
checks and converts the YAML value (a number is never a bool), and
``_RULE_READERS`` and ``_TEST_READERS`` name a reader for every key of a rule
or test but its id. Omitted keys take the class's own default (a rule's
description is its id, its polarity must-match; a test's stdin is empty).
The range checks of a section, rule or test live only in its class's
``__post_init__``; ``load_spec`` checks ``assignment`` and ``output_cap``
itself, so that their problems are listed with the rest, and refuses
``allowed_extensions`` that admit no file the compiler builds.

Specs are parsed with libyaml's ``CSafeLoader`` where PyYAML was built with
it, and with ``_SafeLoader`` otherwise; both build the same values. An
escape such as ``"\\ud800"`` reads as a lone surrogate, which UTF-8 cannot
encode, so no report, log line or program's stdin could carry it: libyaml
refuses the escape, and ``_SafeLoader`` the string that holds it. Under
either loader a "not valid YAML" message names the spec file, line and
column, but quotes no snippet of the file.
"""

from __future__ import annotations

import io
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import yaml

from .assess import Rubric
from .blackbox import DEFAULT_OUTPUT_CAP, NormalizationPolicy, TestCase
from .build import COMPILE_EXTENSIONS, CompilerProfile
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

    def __post_init__(self) -> None:
        # load_spec checks these before it builds a spec; a library caller reaches the class directly.
        if not (_is_integer(self.assignment_number) and self.assignment_number >= 0):
            raise ValueError(f"assignment_number must be a non-negative integer, got {self.assignment_number!r}")
        if not (_is_integer(self.output_cap) and self.output_cap > 0):
            raise ValueError(f"output_cap must be a positive integer, got {self.output_cap!r}")


def _is_number(value: Any) -> bool:
    # YAML ``true`` is a bool, and a bool is an int to Python.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: Any) -> float:
    if not _is_number(value):
        raise ValueError("must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int too large for a float
        raise ValueError("must be a finite number")
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


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _text(value: Any) -> str:
    """A string, or a bare number as its text.

    YAML happily parses ``stdin: 2000`` as an integer; insisting on quotes
    there would reject specs that read perfectly clearly.
    """
    if not (isinstance(value, str) or _is_number(value)):
        raise ValueError("must be text")
    return str(value)


def _arguments(value: Any) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
        raise ValueError("must be a list of strings")
    return tuple(value)


def _pattern(value: Any) -> str:
    if not (isinstance(value, str) and value.strip()):
        raise ValueError("must be a non-empty string")
    return join_pattern_lines(value)


def _polarity(value: Any) -> RulePolarity:
    if value not in [polarity.value for polarity in RulePolarity]:
        raise ValueError("must be 'must-match' or 'must-not-match'")
    return RulePolarity(value)


def _text_file(ref: Any, spec_dir: Path) -> str:
    """The text of the file that ``ref`` names, relative to ``spec_dir``."""
    try:
        return (spec_dir / _string(ref)).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"is unusable: cannot read expected output file: {exc}") from exc


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
# Rule keys are LexicalRule's field names.
_RULE_READERS: _Readers = {
    "description": _string, "pattern": _pattern, "polarity": _polarity,
    "weight": _number, "strip_comments": _boolean, "strip_strings": _boolean,
}
# ``expected_stdout_file`` is read relative to the spec, so _parse_tests gives it the spec's directory.
_TEST_READERS: _Readers = {
    "stdin": _text, "expected_stdout": _text, "expected_stdout_file": _text_file,
    "args": _arguments, "timeout_secs": _number, "weight": _number,
}

_TOP_LEVEL_KEYS = {"assignment", "output_cap", "rules", "tests", *_SECTIONS}
_RULE_KEYS = {"id", *_RULE_READERS}
_TEST_KEYS = {"id", *_TEST_READERS}

# The only code points of a str that UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")


class _SafeLoader(yaml.SafeLoader):
    """``SafeLoader``, refusing a string that UTF-8 cannot encode where it reads it."""

    def construct_yaml_str(self, node: yaml.ScalarNode) -> str:
        value = super().construct_yaml_str(node)
        if _SURROGATE.search(value):
            raise yaml.constructor.ConstructorError(
                None, None, "found a lone surrogate, which UTF-8 cannot encode", node.start_mark
            )
        return value


# Every key and value string, an alias's and a merged key's included, is built by this constructor.
_SafeLoader.add_constructor("tag:yaml.org,2002:str", _SafeLoader.construct_yaml_str)
# Reads tests/data/assignment3.yaml in 0.26 ms where SafeLoader takes 2.3 ms.
_LOADER = getattr(yaml, "CSafeLoader", _SafeLoader)


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
        values = _read(entry, _RULE_READERS, where, problems)
        if "pattern" not in entry:
            problems.append(f"{where}: missing pattern")
        if "pattern" not in values:
            continue
        try:
            rules.append(LexicalRule(rule_id, **{"description": rule_id, "polarity": RulePolarity.MUST_MATCH} | values))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return tuple(rules)


def _parse_tests(section: Any, spec_dir: Path, problems: list[str]) -> tuple[TestCase, ...]:
    readers = {**_TEST_READERS, "expected_stdout_file": partial(_text_file, spec_dir=spec_dir)}
    tests: list[TestCase] = []
    for where, test_id, entry in _entries("tests", section, _TEST_KEYS, problems):
        if "expected_stdout" in entry and "expected_stdout_file" in entry:
            problems.append(f"{where}: give expected_stdout or expected_stdout_file, not both")
            continue
        values = _read(entry, readers, where, problems)
        expected = values.pop("expected_stdout", values.pop("expected_stdout_file", None))
        if not entry.keys() & {"expected_stdout", "expected_stdout_file"}:
            problems.append(f"{where}: missing expected_stdout")
        if expected is None:
            continue
        try:
            tests.append(TestCase(test_id, expected, values.pop("stdin", ""), **values))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return tuple(tests)


def load_spec(path: Path | str) -> AssignmentSpec:
    """Load and validate an assignment spec, raising :class:`SpecError` with
    every problem found if the file is not usable."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(str(path), [f"cannot read file: {exc}"]) from exc
    try:
        stream = io.StringIO(text)
        stream.name = str(path)  # both loaders name the file at the line and column of a syntax error
        raw = yaml.load(stream, Loader=_LOADER)
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
    if not sections["extraction"].allowed_extensions & COMPILE_EXTENSIONS:  # else no archive has a source to build
        sources = ", ".join(sorted(COMPILE_EXTENSIONS))
        problems.append(f"extraction: allowed_extensions must include one of {sources}")
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
