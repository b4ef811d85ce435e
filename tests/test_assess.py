import json
import threading
from datetime import datetime, timezone

import pytest

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
from gradepipe.blackbox import SuiteResult, TestOutcome, TestResult
from gradepipe.build import CompileResult, Diagnostic, DiagnosticSeverity
from gradepipe.ingest import SubmissionIdentity
from gradepipe.lexcheck import LexicalReport, RulePolarity, RuleResult

RECEIVED = datetime(2026, 8, 25, 12, 0, 0, tzinfo=timezone.utc)
IDENTITY = SubmissionIdentity("Ada", "Lovelace", 3)


def compile_ok():
    return CompileResult(True, (), ("g++", "main.cpp", "-o", "program"))


def compile_broken():
    diagnostic = Diagnostic(DiagnosticSeverity.ERROR, "main.cpp:5:5: error: expected ';'")
    return CompileResult(False, (diagnostic,), ("g++", "main.cpp", "-o", "program"))


def lexical(*satisfied, weight=1.0):
    results = tuple(
        RuleResult(f"rule-{i}", f"rule {i}", RulePolarity.MUST_MATCH, flag, flag, weight)
        for i, flag in enumerate(satisfied)
    )
    return LexicalReport(results)


def suite(*outcomes, weight=1.0):
    results = tuple(
        TestResult(f"test-{i}", outcome, "want", "got", 0, weight, 0.01)
        for i, outcome in enumerate(outcomes)
    )
    return SuiteResult(results)


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


def test_no_rules_is_vacuous_credit():
    score = score_submission(compile_ok(), LexicalReport(()), suite(PASS))
    assert score == pytest.approx(100.0)


def test_custom_scale():
    rubric = Rubric(scale=20.0)
    score = score_submission(compile_ok(), lexical(True), suite(PASS), rubric)
    assert score == pytest.approx(20.0)


def test_format_score():
    assert format_score(70.00000000000001, 100.0) == "70.0/100"
    assert format_score(66.666, 100.0) == "66.67/100"
    assert format_score(0.0, 100.0) == "0.0/100"
    assert format_score(17.5, 20.0) == "17.5/20"


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


# -- grading log ----------------------------------------------------------------


def test_log_appends_jsonl(tmp_path):
    path = tmp_path / "grading.log"
    with GradingLog(path) as log:
        log.append("received", RECEIVED, archive="Ada_Lovelace_3.zip")
        log.append("graded", RECEIVED, submission="Ada_Lovelace_3", score=70.0)
    events = read_log_events(path)
    assert [e["kind"] for e in events] == ["received", "graded"]
    assert events[0]["timestamp"] == "2026-08-25T12:00:00+00:00"
    assert events[1]["score"] == 70.0


def test_log_is_append_only_across_sessions(tmp_path):
    path = tmp_path / "grading.log"
    with GradingLog(path) as log:
        log.append("received", RECEIVED, archive="first.zip")
    with GradingLog(path) as log:
        log.append("received", RECEIVED, archive="second.zip")
    events = read_log_events(path)
    assert [e["archive"] for e in events] == ["first.zip", "second.zip"]


def test_log_survives_concurrent_appends(tmp_path):
    path = tmp_path / "grading.log"
    with GradingLog(path) as log:
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
