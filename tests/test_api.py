"""The public surface: the package exports and the names the benchmark traces."""

import inspect
from pathlib import Path

import gradepipe
from gradepipe import assess, blackbox, ingest, lexcheck, pipeline, specfile

README = Path(__file__).resolve().parent.parent / "README.md"

# The library API that the README's "Library use" section documents.
PUBLIC_API = {
    "AssessmentReport",
    "AssignmentSpec",
    "BatchSummary",
    "GradingLogError",
    "GradingSession",
    "ReportStatus",
    "SpecError",
    "__version__",
    "load_spec",
}

# Every (owner, attribute) that `perfbench/run.py --trace 1` wraps by name.
# The session looks the pipeline stages up at module level at call time, so
# they must stay module-level names of `gradepipe.pipeline`.
TRACED = [
    (specfile, "load_spec"),
    (pipeline.GradingSession, "grade_archive"),
    (ingest.InboxScanner, "poll"),
    (pipeline, "extract_archive"),
    (pipeline, "quarantine_archive"),
    (pipeline, "compile_workspace"),
    (pipeline, "collect_sources"),
    (lexcheck, "evaluate_rule"),
    (lexcheck, "preprocess_source"),
    (pipeline, "run_test_suite"),
    (blackbox, "run_test"),
    (pipeline, "render_report_text"),
    (pipeline, "render_report_json"),
    (assess.GradingLog, "append"),
]


def test_package_exports_exactly_the_documented_api():
    assert set(gradepipe.__all__) == PUBLIC_API
    library_use = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    for name in PUBLIC_API:
        assert hasattr(gradepipe, name), name
        assert f"`{name}" in library_use, f"{name} is exported but not documented"


def test_traced_names_exist_with_their_call_shapes():
    for owner, name in TRACED:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name} is gone"

    def params(function):
        return list(inspect.signature(function).parameters)

    assert params(pipeline.GradingSession.grade_archive) == ["self", "archive_path", "received_at"]
    assert params(lexcheck.preprocess_source) == ["text", "strip_comments", "strip_strings"]
    # The tracer reads the archive size through the first argument.
    assert params(ingest.extract_archive)[0] == "record"
    assert "archive_path" in {field.name for field in ingest.SubmissionRecord.__dataclass_fields__.values()}
