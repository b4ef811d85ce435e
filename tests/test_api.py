"""The public surface and the code's shape.

The package exports, the names the benchmark traces, where children start
and that nothing writes to one, how a run stops, and where spec keys and
rule matchers live.
"""

import ast
import inspect
from pathlib import Path

import gradepipe
from gradepipe import assess, blackbox, child, ingest, lexcheck, pipeline, specfile

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


def test_only_the_child_module_imports_subprocess_and_no_module_starts_a_thread():
    importers, thread_starters = set(), set()
    for path in sorted(Path(gradepipe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "subprocess" for alias in node.names):
                    importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "subprocess":
                    importers.add(path.name)
                if node.module == "threading" and any(alias.name == "Thread" for alias in node.names):
                    thread_starters.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "Thread":
                if isinstance(node.value, ast.Name) and node.value.id == "threading":
                    thread_starters.add(path.name)
    assert importers == {"child.py"}
    assert thread_starters == set()


def test_the_child_runner_never_writes_to_a_child():
    # Every child's stdin is a sealed in-memory file, so the loop waits only on the exit and stdout.
    text = Path(child.__file__).read_text(encoding="utf-8")
    assert "EVENT_WRITE" not in text
    assert "set_blocking" not in text


def test_one_thread_pool_runs_every_inbox():
    # Batch and watch share one loop, so the package builds its workers in one place.
    pools = [
        path.name
        for path in sorted(Path(gradepipe.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "ThreadPoolExecutor"
    ]
    assert pools == ["pipeline.py"]


def test_only_the_cli_installs_a_signal_handler_and_no_module_catches_ctrl_c():
    # One stop path: SIGINT and SIGTERM set the run's stop event, and nothing turns Ctrl-C into a stop by catching it.
    installers, interrupt_names = set(), set()
    for path in sorted(Path(gradepipe.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "KeyboardInterrupt" in text:
            interrupt_names.add(path.name)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "signal":
                installers.add(path.name)
    assert installers == {"cli.py"}
    assert interrupt_names == set()


def test_every_submission_ends_at_one_of_two_calls_to_finish():
    # _grade decides a submission's terminal state in one place; grade_archive's net catches what escapes it.
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "self._finish"
    ]
    assert sorted(callers) == ["_grade", "grade_archive"]


def test_lexcheck_keeps_no_cache_of_matchers():
    # Each rule builds its matcher once and keeps it; a bounded cache would rebuild them all past its size.
    assert "lru_cache" not in Path(lexcheck.__file__).read_text(encoding="utf-8")


def test_each_rule_and_test_key_is_named_once_in_its_reader_table():
    assert specfile._RULE_KEYS == {"id", *specfile._RULE_READERS}
    assert specfile._TEST_KEYS == {"id", *specfile._TEST_READERS}
