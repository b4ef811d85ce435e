import contextlib
import json
import random
import sys
import threading
from datetime import datetime, timezone
from fractions import Fraction

import pytest

from gradepipe import assess
from gradepipe.assess import (
    AssessmentReport,
    GradingLog,
    GradingLogError,
    ReportStatus,
    Rubric,
    format_score,
    read_log_events,
    render_report_json,
    render_report_text,
    report_payload,
    score_submission,
)
from gradepipe.blackbox import TestOutcome, TestResult
from gradepipe.build import CompileResult, Diagnostic, DiagnosticSeverity
from gradepipe.ingest import SubmissionIdentity
from gradepipe.lexcheck import RulePolarity, RuleResult

RECEIVED = datetime(2026, 8, 25, 12, 0, 0, tzinfo=timezone.utc)
IDENTITY = SubmissionIdentity("Ada", "Lovelace", 3)


def compile_ok():
    return CompileResult(True, ())


def compile_broken():
    diagnostic = Diagnostic(DiagnosticSeverity.ERROR, "main.cpp:5:5: error: expected ';'")
    return CompileResult(False, (diagnostic,))


def lexical(*satisfied, weight=1.0):
    return tuple(
        RuleResult(f"rule-{i}", f"rule {i}", RulePolarity.MUST_MATCH, flag, flag, weight)
        for i, flag in enumerate(satisfied)
    )


def suite(*outcomes, weight=1.0):
    return tuple(
        TestResult(f"test-{i}", outcome, "want", "got", 0, weight, 0.01)
        for i, outcome in enumerate(outcomes)
    )


PASS = TestOutcome.PASS
FAIL = TestOutcome.FAIL


# -- rubric --------------------------------------------------------------------


def test_rubric_defaults_are_valid():
    rubric = Rubric()
    assert rubric.lexical_weight + rubric.blackbox_weight == 1.0
    assert rubric.compile_gate is True
    assert rubric.scale == 100.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lexical_weight": 0.5, "blackbox_weight": 0.6},
        {"lexical_weight": -0.1, "blackbox_weight": 1.1},
        {"scale": 0},
        {"scale": -10},
        # Weights sum to exactly 1 as written; 1e-9 past 1, a passing score at this scale would not fit a float.
        {"lexical_weight": 0.3333333333, "blackbox_weight": 0.6666666666},
        {"lexical_weight": 0.5000000005, "blackbox_weight": 0.5, "scale": sys.float_info.max},
    ],
)
def test_rubric_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Rubric(**kwargs)


# -- scoring -------------------------------------------------------------------


def test_perfect_submission_scores_full_scale():
    score = score_submission(compile_ok(), lexical(True), suite(PASS, PASS))
    assert score == 100.0


def test_rule_miss_with_perfect_tests_scores_seventy():
    score = score_submission(compile_ok(), lexical(False), suite(PASS, PASS, PASS, PASS))
    assert score == pytest.approx(70.0, abs=1e-9)


def test_compile_gate_zeroes_everything():
    score = score_submission(compile_broken(), lexical(True), None)
    assert score == 0.0


def test_gate_off_still_pays_lexical_credit():
    rubric = Rubric(compile_gate=False)
    score = score_submission(compile_broken(), lexical(True), None, rubric)
    assert score == pytest.approx(30.0)


def test_mixed_fractions():
    score = score_submission(
        compile_ok(),
        lexical(True, False),
        suite(PASS, PASS, PASS, FAIL),
    )
    assert score == pytest.approx(100 * (0.3 * 0.5 + 0.7 * 0.75))
    # Each share is by weight. On a scale of 1, a rubric that weighs one route alone shows its share.
    rules_only, tests_only = Rubric(1.0, 0.0, scale=1.0), Rubric(0.0, 1.0, scale=1.0)
    nine_to_one = suite(PASS, weight=9.0) + suite(FAIL, weight=1.0)
    assert score_submission(compile_ok(), None, nine_to_one, tests_only) == pytest.approx(0.9)
    for first, second, share in ((False, False, 0.0), (True, True, 1.0), (True, False, 0.75)):
        three_to_one = lexical(first, weight=3.0) + lexical(second, weight=1.0)
        assert score_submission(compile_ok(), three_to_one, None, rules_only) == share


def test_no_rules_is_vacuous_credit():
    score = score_submission(compile_ok(), (), suite(PASS))
    assert score == pytest.approx(100.0)
    # No lexical report counts as no rules, and an empty suite that ran as full test
    # credit; a suite that never ran earns none.
    assert score_submission(compile_ok(), None, suite(PASS)) == pytest.approx(100.0)
    assert score_submission(compile_ok(), lexical(False), ()) == pytest.approx(70.0)
    assert score_submission(compile_ok(), lexical(True), None) == pytest.approx(30.0)


def test_custom_scale():
    rubric = Rubric(scale=20.0)
    score = score_submission(compile_ok(), lexical(True), suite(PASS), rubric)
    assert score == pytest.approx(20.0)


def test_weights_whose_float_sum_overflows_score_exactly():
    # 1e308 + 1e308 is infinite as a float; the exact sum is not, so the share is still 1/2.
    huge = lexical(True, weight=1e308) + lexical(False, weight=1e308)
    assert score_submission(compile_ok(), huge, suite(PASS), Rubric(1.0, 0.0, scale=1.0)) == 0.5


# Rule and test weights as a spec writes them, and (lexical, blackbox) weight pairs.
GRID_WEIGHTS = ["1", "0.1", "0.3", "2.5", "7"]
GRID_PAIRS = [("0.3", "0.7"), ("0.1", "0.9"), ("0.25", "0.75"), ("0.6", "0.4"), ("0.15", "0.85")]


def test_a_score_is_the_float_nearest_its_exact_value():
    rng = random.Random(19)
    noisy = 0
    for lexical_weight, blackbox_weight in GRID_PAIRS:
        rubric = Rubric(float(lexical_weight), float(blackbox_weight))
        for rule_count in range(1, 6):
            for test_count in range(1, 9):
                rules = [(rng.choice(GRID_WEIGHTS), rng.random() < 0.5) for _ in range(rule_count)]
                tests = [(rng.choice(GRID_WEIGHTS), rng.random() < 0.5) for _ in range(test_count)]
                rule_results = sum((lexical(ok, weight=float(weight)) for weight, ok in rules), ())
                test_results = sum((suite(PASS if ok else FAIL, weight=float(weight)) for weight, ok in tests), ())
                rule_share, test_share = (
                    sum(Fraction(weight) for weight, ok in entries if ok) / sum(Fraction(weight) for weight, _ in entries)
                    for entries in (rules, tests)
                )
                exact = 100 * (Fraction(lexical_weight) * rule_share + Fraction(blackbox_weight) * test_share)
                score = score_submission(compile_ok(), rule_results, test_results, rubric)
                assert score == float(exact), (lexical_weight, rules, tests)
                noisy += score != 100 * (rubric.lexical_weight * rule_share + rubric.blackbox_weight * test_share)
    assert noisy, "float arithmetic on the weights misses no score of the grid"


def test_format_score():
    assert format_score(70.00000000000001, 100.0) == "70.0/100"
    assert format_score(66.666, 100.0) == "66.67/100"
    assert format_score(0.0, 100.0) == "0.0/100"
    assert format_score(17.5, 20.0) == "17.5/20"
    # A tie rounds half to even as the decimal the JSON writes, whichever side of it the binary float lies.
    assert format_score(3.225, 10.0) == "3.22/10"
    assert format_score(2.675, 10.0) == "2.68/10"


def test_the_printed_score_is_the_exact_score_rounded_half_to_even():
    for lexical_weight, blackbox_weight in [("0.3", "0.7"), ("0.5", "0.5"), ("0.35", "0.65"), ("0.15", "0.85")]:
        for scale in (10, 20, 50, 100):
            rubric = Rubric(float(lexical_weight), float(blackbox_weight), scale=float(scale))
            for rule_count in range(1, 6):
                for satisfied in range(rule_count + 1):
                    rules = lexical(*[index < satisfied for index in range(rule_count)])
                    for test_count in range(1, 9):
                        for passed in range(test_count + 1):
                            tests = suite(*[PASS if index < passed else FAIL for index in range(test_count)])
                            exact = scale * (Fraction(lexical_weight) * Fraction(satisfied, rule_count)
                                             + Fraction(blackbox_weight) * Fraction(passed, test_count))
                            score = score_submission(compile_ok(), rules, tests, rubric)
                            assert format_score(score, rubric.scale) == f"{float(round(exact, 2))}/{scale}", (
                                lexical_weight, scale, satisfied, rule_count, passed, test_count)


# -- report skeleton and invariants ---------------------------------------------


def test_fresh_report_is_all_absent_and_repeatable():
    first = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED, "uploads")
    second = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED, "uploads")
    assert first == second
    assert first.score is None
    assert first.status is None
    assert first.compile_result is None
    assert first.lexical is None
    assert first.blackbox is None
    assert first.generated_at is None


def test_blackbox_after_failed_compile_is_rejected():
    report = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED)
    report.compile_result = compile_broken()
    report.blackbox = suite(PASS)
    with pytest.raises(ValueError):
        report.check_invariants()


def test_score_on_quarantined_report_is_rejected():
    report = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED)
    report.status = ReportStatus.QUARANTINED
    report.score = 50.0
    with pytest.raises(ValueError):
        report.check_invariants()


# -- rendering -----------------------------------------------------------------


def graded_report():
    report = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED, "uploads")
    report.compile_result = compile_ok()
    report.lexical = lexical(False)
    report.blackbox = suite(PASS, PASS, PASS, PASS)
    report.score = score_submission(report.compile_result, report.lexical, report.blackbox)
    report.status = ReportStatus.GRADED
    report.generated_at = RECEIVED
    return report


def test_text_report_reads_sensibly():
    text = render_report_text(graded_report())
    assert "Submission: Ada_Lovelace_3" in text
    assert "Student:    Ada Lovelace" in text
    assert "Status:     Graded" in text
    assert "Score:      70.0/100" in text
    assert "Black-box tests: 4/4 passed" in text
    assert "[MISS] rule-0" in text


def test_text_report_for_failed_build_mentions_not_run():
    report = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED)
    report.compile_result = compile_broken()
    report.lexical = lexical(False)
    report.score = 0.0
    report.status = ReportStatus.GRADED
    text = render_report_text(report)
    assert "Compilation FAILED" in text
    assert "NotRun" in text
    assert "expected ';'" in text


def test_json_payload_key_order_is_fixed():
    payload = report_payload(graded_report())
    assert list(payload) == [
        "student",
        "assignment",
        "received_at",
        "status",
        "score",
        "compile",
        "rules",
        "tests",
        "detail",
        "generated_at",
        "archive_owner",
    ]
    assert payload["student"] == "Ada Lovelace"
    assert payload["assignment"] == 3
    assert payload["score"] == 70.0
    assert payload["compile"] == {"succeeded": True, "diagnostics": []}
    assert [t["outcome"] for t in payload["tests"]] == ["Pass"] * 4


def test_json_report_has_no_timing_fields():
    rendered = render_report_json(graded_report())
    assert "duration" not in rendered
    json.loads(rendered)  # must stay valid JSON


def test_json_report_for_nameless_archive():
    report = AssessmentReport(None, "garbage.zip", RECEIVED)
    report.status = ReportStatus.QUARANTINED
    report.detail = "malformed-name:wrong-field-count"
    payload = report_payload(report)
    assert payload["student"] is None
    assert payload["assignment"] is None
    assert payload["detail"] == "malformed-name:wrong-field-count"


def finished(report, status=ReportStatus.GRADED):
    if status is ReportStatus.GRADED:
        report.score = score_submission(report.compile_result, report.lexical, report.blackbox)
    report.status = status
    report.generated_at = RECEIVED
    return report


def test_a_rule_warning_is_printed_under_its_rule():
    report = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED)
    report.compile_result = compile_ok()
    warning = "main.cpp: unterminated string literal"
    rule = RuleResult("nested", "uses a nested branch", RulePolarity.MUST_MATCH, True, True, 1.0, (warning,))
    report.lexical = (rule,)
    report.blackbox = suite(PASS)
    finished(report)
    assert render_report_text(report) == (
        "Submission: Ada_Lovelace_3\n"
        "Student:    Ada Lovelace\n"
        "Assignment: 3\n"
        "Received:   2026-08-25T12:00:00+00:00\n"
        "Status:     Graded\n"
        "Score:      100.0/100\n"
        "\n"
        "Compilation succeeded (0 diagnostic lines)\n"
        "\n"
        "Lexical rules: 1/1 satisfied\n"
        "  [ok ] nested: uses a nested branch (expected present, found)\n"
        "         note: main.cpp: unterminated string literal\n"
        "\n"
        "Black-box tests: 1/1 passed\n"
        "  [Pass] test-0\n"
        "\n"
        "Generated:  2026-08-25T12:00:00+00:00\n"
    )
    assert report_payload(report) == {
        "student": "Ada Lovelace",
        "assignment": 3,
        "received_at": "2026-08-25T12:00:00+00:00",
        "status": "Graded",
        "score": 100.0,
        "compile": {"succeeded": True, "diagnostics": []},
        "rules": [
            {
                "id": "nested", "description": "uses a nested branch", "polarity": "must-match",
                "matched": True, "satisfied": True, "weight": 1.0, "warnings": [warning],
            }
        ],
        "tests": [
            {"id": "test-0", "outcome": "Pass", "weight": 1.0, "exit_code": 0, "detail": "",
             "expected": "want", "actual": "got"},
        ],
        "detail": "",
        "generated_at": "2026-08-25T12:00:00+00:00",
        "archive_owner": None,
    }


def test_a_long_fail_excerpt_is_cut_at_200_characters_with_newlines_shown():
    # An excerpt shows a "Leap year" line in 11 characters and a "Common year" line in 13.
    expected, actual = "Leap year\n" * 25, "Common year\n" * 25
    report = AssessmentReport(IDENTITY, "Ada_Lovelace_3.zip", RECEIVED)
    report.compile_result = compile_ok()
    report.lexical = ()
    report.blackbox = (TestResult("year-2000", FAIL, expected, actual, 0, 1.0, 0.01),)
    finished(report)
    assert render_report_text(report) == (
        "Submission: Ada_Lovelace_3\n"
        "Student:    Ada Lovelace\n"
        "Assignment: 3\n"
        "Received:   2026-08-25T12:00:00+00:00\n"
        "Status:     Graded\n"
        "Score:      30.0/100\n"
        "\n"
        "Compilation succeeded (0 diagnostic lines)\n"
        "\n"
        "Lexical rules: 0/0 satisfied\n"
        "\n"
        "Black-box tests: 0/1 passed\n"
        "  [Fail] year-2000\n"
        "         expected: " + "Leap year\\n" * 18 + "Le...\n"
        "         actual:   " + "Common year\\n" * 15 + "Commo...\n"
        "\n"
        "Generated:  2026-08-25T12:00:00+00:00\n"
    )
    assert report_payload(report) == {
        "student": "Ada Lovelace",
        "assignment": 3,
        "received_at": "2026-08-25T12:00:00+00:00",
        "status": "Graded",
        "score": 30.0,
        "compile": {"succeeded": True, "diagnostics": []},
        "rules": [],
        "tests": [
            {"id": "year-2000", "outcome": "Fail", "weight": 1.0, "exit_code": 0, "detail": "",
             "expected": expected, "actual": actual},
        ],
        "detail": "",
        "generated_at": "2026-08-25T12:00:00+00:00",
        "archive_owner": None,
    }


@pytest.mark.parametrize(
    "text, excerpt",
    [
        ("Leap\\nyear", "Leap\\\\nyear"),
        ("Leap\nyear", "Leap\\nyear"),
        ("C:\\", "C:\\\\"),
        ("a" * 199 + "\nb", "a" * 199 + "..."),
        ("a" * 199 + "\\b", "a" * 199 + "..."),
        ("a" * 198 + "\\b", "a" * 198 + "\\\\..."),
        ("a" * 197 + "\\\nb", "a" * 197 + "\\\\..."),
    ],
    ids=["backslash-n", "newline", "backslash", "cut-in-newline", "cut-in-backslash", "cut-after-backslash",
         "cut-in-newline-after-backslash"],
)
def test_a_fail_excerpt_tells_a_backslash_from_a_newline_and_never_cuts_an_escape(text, excerpt):
    assert assess._excerpt(text) == excerpt


def test_a_report_without_an_identity_names_its_archive():
    report = finished(AssessmentReport(None, "garbage.zip", RECEIVED), ReportStatus.QUARANTINED)
    report.detail = "malformed-name:wrong-field-count"
    assert render_report_text(report) == (
        "Submission: garbage.zip\n"
        "Received:   2026-08-25T12:00:00+00:00\n"
        "Status:     Quarantined\n"
        "Detail:     malformed-name:wrong-field-count\n"
        "\n"
        "Generated:  2026-08-25T12:00:00+00:00\n"
    )
    assert report_payload(report) == {
        "student": None,
        "assignment": None,
        "received_at": "2026-08-25T12:00:00+00:00",
        "status": "Quarantined",
        "score": None,
        "compile": None,
        "rules": [],
        "tests": [],
        "detail": "malformed-name:wrong-field-count",
        "generated_at": "2026-08-25T12:00:00+00:00",
        "archive_owner": None,
    }


# -- grading log ----------------------------------------------------------------


def test_log_appends_jsonl(tmp_path):
    path = tmp_path / "grading.log"
    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="Ada_Lovelace_3.zip")
        log.append("graded", RECEIVED, submission="Ada_Lovelace_3", score=70.0)
    events = read_log_events(path)
    assert [e["kind"] for e in events] == ["received", "graded"]
    assert events[0]["timestamp"] == "2026-08-25T12:00:00+00:00"
    assert events[1]["score"] == 70.0


def test_log_is_append_only_across_sessions(tmp_path):
    path = tmp_path / "grading.log"
    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="first.zip")
    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="second.zip")
    events = read_log_events(path)
    assert [e["archive"] for e in events] == ["first.zip", "second.zip"]


def test_torn_last_line_is_skipped_and_the_next_session_starts_a_fresh_line(tmp_path):
    path = tmp_path / "grading.log"
    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="first.zip")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"timestamp": "x", "ki')  # an append cut off before its newline
    assert [e["archive"] for e in read_log_events(path)] == ["first.zip"], "only the torn last line is skipped"

    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="second.zip")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1] == '{"timestamp": "x", "ki\n', "the torn line is kept, ended by the new session"
    assert json.loads(lines[2])["archive"] == "second.zip", "the next event is whole on its own line"
    with pytest.raises(json.JSONDecodeError):
        read_log_events(path)  # a malformed line that ends in a newline is not skipped


def test_a_malformed_line_is_reported_with_the_log_path_and_its_line(tmp_path):
    path = tmp_path / "grading.log"
    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="first.zip")
        log.append("received", RECEIVED, archive="second.zip")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(1, '{"timestamp": "x", "kind" "received"}\n')  # the middle line of three
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as excinfo:
        read_log_events(path)
    assert (excinfo.value.lineno, excinfo.value.colno) == (2, 27)
    assert str(excinfo.value).startswith(f"{path}: Expecting ':' delimiter: line 2 column 27 ")


def test_a_log_that_can_be_appended_to_but_not_read_still_opens(tmp_path, monkeypatch):
    path = tmp_path / "grading.log"
    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="first.zip")

    def write_only(file, mode="r", *args, **kwargs):
        if "r" in mode or "+" in mode:  # any mode that reads
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(assess, "open", write_only, raising=False)
    with contextlib.closing(GradingLog(path)) as log:
        log.append("received", RECEIVED, archive="second.zip")
    monkeypatch.undo()
    assert [e["archive"] for e in read_log_events(path)] == ["first.zip", "second.zip"]


def test_log_survives_concurrent_appends(tmp_path):
    path = tmp_path / "grading.log"
    with contextlib.closing(GradingLog(path)) as log:
        threads = [
            threading.Thread(
                target=lambda worker=w: [
                    log.append("graded", RECEIVED, worker=worker, step=i) for i in range(50)
                ]
            )
            for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    events = read_log_events(path)  # every line must parse cleanly
    assert len(events) == 200


def test_unwritable_log_raises_loudly(tmp_path):
    with pytest.raises(GradingLogError):
        GradingLog(tmp_path)  # a directory cannot be opened for append
    log = GradingLog(tmp_path / "grading.log")
    log.close()
    with pytest.raises(GradingLogError):
        log.append("graded", RECEIVED)
