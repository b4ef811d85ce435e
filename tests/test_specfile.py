import pytest

from gradepipe.assess import DEFAULT_BLACKBOX_WEIGHT, DEFAULT_LEXICAL_WEIGHT, DEFAULT_SCALE, Rubric
from gradepipe.blackbox import DEFAULT_OUTPUT_CAP, TestCase
from gradepipe.build import DEFAULT_COMPILER_COMMAND, CompilerProfile
from gradepipe.ingest import ExtractionLimits
from gradepipe.lexcheck import LexicalRule, RulePolarity
from gradepipe.specfile import SpecError, load_spec

from support import SPEC_PATH


def write_spec(tmp_path, text, name="assignment.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_shipped_example_spec_loads():
    spec = load_spec(SPEC_PATH)
    assert spec.assignment_number == 3
    assert spec.compiler.command[0] == "g++"
    assert spec.rubric.lexical_weight == 0.3
    assert spec.rubric.blackbox_weight == 0.7
    assert len(spec.rules) == 1
    assert len(spec.tests) == 4
    assert "\n" not in spec.rules[0].pattern


def test_minimal_spec_uses_defaults(tmp_path):
    spec = load_spec(write_spec(tmp_path, "assignment: 1\n"))
    assert spec.assignment_number == 1
    assert spec.compiler.command == DEFAULT_COMPILER_COMMAND
    assert spec.compiler.timeout_secs == 30.0
    assert spec.rubric.compile_gate is True
    assert spec.rubric.scale == 100.0
    assert spec.normalization.case_sensitive is True
    assert spec.extraction.max_total_bytes == 64 * 1024 * 1024
    assert spec.rules == ()
    assert spec.tests == ()
    assert spec.output_cap == DEFAULT_OUTPUT_CAP


def test_full_spec_round_trips_every_field(tmp_path):
    path = write_spec(
        tmp_path,
        """
assignment: 7
compiler:
  command: [g++, -std=c++20, -Wall, '{sources}', -o, '{output}']
  timeout_secs: 12
rubric:
  lexical_weight: 0.4
  blackbox_weight: 0.6
  compile_gate: false
  scale: 50
normalization:
  case_sensitive: false
extraction:
  max_total_bytes: 1024
  max_entry_count: 3
  max_path_depth: 2
  allowed_extensions: [cpp, .H]
output_cap: 2048
rules:
  - id: uses-loop
    description: repeats with a while loop
    pattern: |
      while\\s*\\(
    polarity: must-match
    weight: 2
    strip_comments: true
    strip_strings: false
  - id: no-goto
    pattern: goto
    polarity: must-not-match
tests:
  - id: smoke
    stdin: 42
    expected_stdout: "answer\\n"
    args: [--fast]
    timeout_secs: 1.5
    weight: 3
""",
    )
    spec = load_spec(path)
    assert spec.assignment_number == 7
    assert spec.compiler.command == ("g++", "-std=c++20", "-Wall", "{sources}", "-o", "{output}")
    assert spec.compiler.timeout_secs == 12.0
    assert spec.rubric.lexical_weight == 0.4
    assert spec.rubric.compile_gate is False
    assert spec.rubric.scale == 50.0
    assert spec.normalization.case_sensitive is False
    assert spec.normalization.trim_trailing_ws is True
    assert spec.extraction.max_total_bytes == 1024
    assert spec.extraction.allowed_extensions == frozenset({".cpp", ".h"})
    assert spec.output_cap == 2048

    loop_rule, goto_rule = spec.rules
    assert loop_rule.pattern == "while\\s*\\("
    assert loop_rule.weight == 2.0
    assert loop_rule.strip_strings is False
    assert goto_rule.polarity is RulePolarity.MUST_NOT_MATCH

    (case,) = spec.tests
    assert case.stdin_text == "42"
    assert case.expected_stdout == "answer\n"
    assert case.args == ("--fast",)
    assert case.timeout_secs == 1.5
    assert case.weight == 3.0


def test_multiline_patterns_are_joined(tmp_path):
    path = write_spec(
        tmp_path,
        """
assignment: 2
rules:
  - id: nested
    pattern: |
      if\\s*\\([\\s\\S]*\\)\\s*\\{
      [\\s\\S]*\\}
""",
    )
    spec = load_spec(path)
    assert spec.rules[0].pattern == "if\\s*\\([\\s\\S]*\\)\\s*\\{[\\s\\S]*\\}"


def test_expected_stdout_file_reads_relative_to_spec(tmp_path):
    (tmp_path / "golden.txt").write_text("expected text\n", encoding="utf-8")
    path = write_spec(
        tmp_path,
        """
assignment: 2
tests:
  - id: golden
    expected_stdout_file: golden.txt
""",
    )
    spec = load_spec(path)
    assert spec.tests[0].expected_stdout == "expected text\n"


def test_missing_expected_file_is_reported(tmp_path):
    path = write_spec(
        tmp_path,
        """
assignment: 2
tests:
  - id: golden
    expected_stdout_file: nowhere.txt
""",
    )
    with pytest.raises(SpecError) as excinfo:
        load_spec(path)
    assert any("cannot read expected output file" in p for p in excinfo.value.problems)


def test_all_problems_reported_at_once(tmp_path):
    path = write_spec(
        tmp_path,
        """
assignment: -1
surprise: true
rubric:
  lexical_weight: 0.9
  blackbox_weight: 0.9
rules:
  - id: broken
    pattern: "(["
  - id: broken
    pattern: x
tests:
  - id: t1
    expected_stdout: a
    expected_stdout_file: b.txt
  - stdin: orphan
""",
    )
    with pytest.raises(SpecError) as excinfo:
        load_spec(path)
    problems = excinfo.value.problems
    assert any("assignment:" in p for p in problems)
    assert any("unknown key 'surprise'" in p for p in problems)
    assert any("rubric" in p and "weight" in p for p in problems)
    assert any("rules[0]" in p for p in problems)
    assert any("duplicate rule id 'broken'" in p for p in problems)
    assert any("not both" in p for p in problems)
    assert any("tests[1]: missing or non-string id" in p for p in problems)
    assert len(problems) >= 7
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize(
    "body, needle",
    [
        ("assignment: 2\ntests:\n  - id: t\n", "missing expected_stdout"),
        ("assignment: 2\ntests:\n  - id: t\n    expected_stdout: [1]\n", "missing expected_stdout"),
        ("assignment: 2\ntests:\n  - id: t\n    expected_stdout: ok\n    stdin: [a]\n", "stdin must be text"),
        ("assignment: 2\ntests:\n  - id: t\n    expected_stdout: ok\n    args: [1, 2]\n", "args must be a list"),
        ("assignment: 2\nrules:\n  - id: r\n    pattern: x\n    polarity: maybe\n", "polarity must be"),
        ("assignment: 2\nrules:\n  - id: r\n", "missing or empty pattern"),
        ("assignment: 2\ncompiler:\n  command: g++\n", "non-empty list of strings"),
        ("assignment: 2\ncompiler:\n  command: [g++, main.cpp]\n", "compiler:"),
        ("assignment: 2\nrubric:\n  compile_gate: 1\n", "must be a boolean"),
        ("assignment: 2\nextraction:\n  max_total_bytes: lots\n", "must be an integer"),
        ("assignment: 2\noutput_cap: 0\n", "output_cap"),
        ("assignment: yes\n", "assignment:"),
        ("assignment: 2\nrules:\n  - id: r\n    pattern: x\n    weight: true\n", "weight must be a number"),
        ("assignment: 2\ntests:\n  - id: t\n    expected_stdout: ok\n    weight: true\n", "weight must be a number"),
        (
            "assignment: 2\ntests:\n  - id: t\n    expected_stdout: ok\n    timeout_secs: true\n",
            "timeout_secs must be a number",
        ),
        ("assignment: 2\nrubric:\n  1: a\n  foo: b\n", "unknown key 1"),
        ("assignment: 2\nrubric:\n  lexical_weight: 0.5\n", "must sum to 1.0"),
    ],
)
def test_specific_problems_are_caught(tmp_path, body, needle):
    with pytest.raises(SpecError) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert any(needle in p for p in excinfo.value.problems)


@pytest.mark.parametrize(
    "pattern, needle",
    [
        (r"(a)\1", "a backreference"),
        ("(?=a)", "lookaround"),
        ("(?<!a)b", "lookaround"),
        ("(?(1)a|b)", "invalid group reference"),
        ("(a)?(?(1)a|b)", "a conditional group"),
        ("(?>a)", "an atomic group"),
        ("a++", "a possessive repeat"),
        ("a{6000}", "more than 5000 states"),
        ("(?m)^a", "MULTILINE"),
        (r"(?a:\w)", "ASCII"),
    ],
)
def test_patterns_the_matcher_cannot_run_are_rejected(tmp_path, pattern, needle):
    body = f"assignment: 2\nrules:\n  - id: odd-one\n    pattern: '{pattern}'\n"
    with pytest.raises(SpecError) as excinfo:
        load_spec(write_spec(tmp_path, body))
    [problem] = excinfo.value.problems
    assert problem.startswith("rules[0] (odd-one): rule 'odd-one': invalid pattern: ")
    assert needle in problem


@pytest.mark.parametrize(
    "build",
    [
        lambda: TestCase("t", "ok", weight=True),
        lambda: TestCase("t", "ok", timeout_secs=True),
        lambda: Rubric(lexical_weight=True, blackbox_weight=0),
        lambda: Rubric(lexical_weight=0, blackbox_weight=True),
        lambda: Rubric(scale=True),
        lambda: LexicalRule("r", "d", "x", RulePolarity.MUST_MATCH, weight=True),
        lambda: CompilerProfile(timeout_secs=True),
        lambda: ExtractionLimits(max_entry_count=True),
    ],
    ids=[
        "test-weight",
        "test-timeout",
        "rubric-lexical-weight",
        "rubric-blackbox-weight",
        "rubric-scale",
        "rule-weight",
        "compiler-timeout",
        "extraction-limit",
    ],
)
def test_config_classes_reject_a_bool_for_a_number(build):
    with pytest.raises(ValueError):
        build()


def test_omitted_rubric_keys_take_the_assess_defaults(tmp_path):
    spec = load_spec(write_spec(tmp_path, "assignment: 2\nrubric:\n  compile_gate: false\n"))
    assert spec.rubric.lexical_weight == DEFAULT_LEXICAL_WEIGHT
    assert spec.rubric.blackbox_weight == DEFAULT_BLACKBOX_WEIGHT
    assert spec.rubric.scale == DEFAULT_SCALE
    assert spec.rubric.compile_gate is False


def test_numeric_stdin_and_expected_are_coerced(tmp_path):
    path = write_spec(
        tmp_path,
        """
assignment: 2
tests:
  - id: t
    stdin: 2000
    expected_stdout: 12
""",
    )
    spec = load_spec(path)
    assert spec.tests[0].stdin_text == "2000"
    assert spec.tests[0].expected_stdout == "12"


def test_missing_file_raises_spec_error(tmp_path):
    with pytest.raises(SpecError) as excinfo:
        load_spec(tmp_path / "absent.yaml")
    assert any("cannot read file" in p for p in excinfo.value.problems)


def test_unparseable_yaml_raises_spec_error(tmp_path):
    path = write_spec(tmp_path, "assignment: [unclosed\n")
    with pytest.raises(SpecError) as excinfo:
        load_spec(path)
    assert any("not valid YAML" in p for p in excinfo.value.problems)


def test_non_mapping_document_raises_spec_error(tmp_path):
    path = write_spec(tmp_path, "- just\n- a\n- list\n")
    with pytest.raises(SpecError) as excinfo:
        load_spec(path)
    assert excinfo.value.problems == ["top level must be a mapping"]
