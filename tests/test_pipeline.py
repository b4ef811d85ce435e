import dataclasses
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest

from gradepipe import build, pipeline
from gradepipe.assess import GradingLogError, ReportStatus, read_log_events
from gradepipe.blackbox import SpawnFailure
from gradepipe.build import CompilerProfile

from support import DATA_DIR, make_zip, read_report, source, built_pch

T0 = datetime(2026, 8, 25, 9, 0, 0, tzinfo=timezone.utc)


def drop(inbox, name, files):
    inbox.mkdir(exist_ok=True)
    return make_zip(inbox / name, files)


def kinds(session):
    return [event["kind"] for event in read_log_events(session.log.path)]


def test_clean_submission_grades_at_full_marks(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.GRADED
    assert report.score == 100.0
    assert archive.exists(), "graded archives stay in the inbox"
    payload = read_report(session.reports_dir, "Ada_Lovelace_3")
    assert payload["student"] == "Ada Lovelace"
    assert payload["status"] == "Graded"
    assert payload["score"] == 100.0
    assert [t["outcome"] for t in payload["tests"]] == ["Pass"] * 4
    assert (session.reports_dir / "Ada_Lovelace_3.report.txt").exists()
    assert kinds(session) == ["received", "graded"]


def test_rule_miss_scores_seventy(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Flat_Fiona_3.zip", {"main.cpp": source("leap_flat.cpp")})

    report = session.grade_archive(archive)

    assert report.score == pytest.approx(70.0, abs=1e-9)
    payload = read_report(session.reports_dir, "Flat_Fiona_3")
    assert payload["rules"][0]["satisfied"] is False
    assert [t["outcome"] for t in payload["tests"]] == ["Pass"] * 4


def test_malformed_name_quarantines_without_report(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "BadName.zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.QUARANTINED
    assert report.detail == "malformed-name:wrong-field-count"
    assert not archive.exists()
    assert (session.quarantine_dir / "BadName.zip").exists()
    reason = (session.quarantine_dir / "BadName.zip.reason.txt").read_text(encoding="utf-8")
    assert "malformed-name:wrong-field-count" in reason
    assert list(session.reports_dir.glob("*")) == [], "no identity, so no report files"
    assert kinds(session) == ["received", "quarantined"]


def test_wrong_assignment_quarantines_with_report(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_4.zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.QUARANTINED
    assert report.detail == "wrong-assignment"
    assert (session.quarantine_dir / "Ada_Lovelace_4.zip").exists()
    payload = read_report(session.reports_dir, "Ada_Lovelace_4")
    assert payload["status"] == "Quarantined"
    assert payload["score"] is None
    assert payload["detail"] == "wrong-assignment"


def test_corrupt_archive_is_quarantined(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    archive = inbox / "Greta_Garbo_3.zip"
    archive.write_bytes(b"PK\x03\x04 but the rest is nonsense")

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.QUARANTINED
    assert report.detail == "corrupt-archive"
    assert (session.quarantine_dir / "Greta_Garbo_3.zip").exists()


def test_archive_with_no_extractable_entries_is_quarantined(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Rene_Empty_3.zip", {"readme.md": "just prose\n"})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.QUARANTINED
    assert report.detail == "no-source-files"


def test_text_only_archive_grades_to_zero(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Tess_Text_3.zip", {"notes.txt": "no code here\n"})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.GRADED
    assert report.score == 0.0
    assert report.compile_result is not None and not report.compile_result.succeeded


def test_compile_failure_grades_zero_and_skips_tests(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Broken_Bob_3.zip", {"main.cpp": source("leap_broken.cpp")})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.GRADED
    assert report.score == 0.0
    assert report.blackbox is None
    payload = read_report(session.reports_dir, "Broken_Bob_3")
    assert payload["score"] == 0.0
    assert payload["tests"] == []
    assert payload["compile"]["succeeded"] is False
    assert payload["compile"]["diagnostics"], "compiler output must reach the student"
    assert kinds(session) == ["received", "compile_error", "graded"]


def test_missing_compiler_is_an_environment_error(leap_spec, session_factory, tmp_path):
    broken_toolchain = dataclasses.replace(
        leap_spec,
        compiler=CompilerProfile(command=("g++-that-does-not-exist", "{sources}", "-o", "{output}")),
    )
    session = session_factory(broken_toolchain)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.ERRORED
    assert report.detail == "compiler-not-found"
    assert archive.exists(), "environment failures leave the archive for a retry"
    payload = read_report(session.reports_dir, "Ada_Lovelace_3")
    assert payload["status"] == "Errored"


def test_spawn_failure_is_an_environment_error(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    def refuse(*args, **kwargs):
        raise SpawnFailure("simulated resource exhaustion")

    monkeypatch.setattr("gradepipe.pipeline.run_test_suite", refuse)
    report = session.grade_archive(archive)

    assert report.status is ReportStatus.ERRORED
    assert report.detail == "spawn-failure"


def test_unexpected_exception_becomes_internal_error(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    def explode(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr("gradepipe.pipeline.compile_workspace", explode)
    report = session.grade_archive(archive)

    assert report.status is ReportStatus.ERRORED
    assert report.detail == "internal-error:RuntimeError"
    events = read_log_events(session.log.path)
    assert events[-1]["kind"] == "errored"
    assert events[-1]["message"] == "wires crossed"


def test_unwritable_reports_dir_marks_submission_errored(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    session.reports_dir.parent.mkdir(parents=True, exist_ok=True)
    session.reports_dir.touch()  # a file where the directory should be
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.ERRORED
    assert report.detail == "report-unwritable"
    assert report.score is None, "an Errored report carries no score"
    events = read_log_events(session.log.path)
    assert [e["kind"] for e in events] == ["received", "errored"]
    assert events[-1]["reason"] == "report-unwritable"
    assert events[-1]["submission"] == "Ada_Lovelace_3"


def test_unwritable_reports_dir_after_quarantine_logs_one_terminal_event(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    session.reports_dir.parent.mkdir(parents=True, exist_ok=True)
    session.reports_dir.touch()
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_4.zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert report.status is ReportStatus.ERRORED
    assert report.detail == "report-unwritable"
    assert (session.quarantine_dir / "Ada_Lovelace_4.zip").exists()
    events = read_log_events(session.log.path)
    assert [e["kind"] for e in events] == ["received", "errored"]
    assert events[-1]["reason"] == "report-unwritable"


def test_failed_report_write_keeps_the_previous_pair(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0)
    before = {path.name: path.read_bytes() for path in session.reports_dir.iterdir()}
    assert sorted(before) == ["Ada_Lovelace_3.report.json", "Ada_Lovelace_3.report.txt"]

    def disk_full(report):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pipeline, "render_report_json", disk_full)
    make_zip(inbox / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_flat.cpp")})
    report = session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0 + timedelta(minutes=5))

    assert report.status is ReportStatus.ERRORED
    assert report.detail == "report-unwritable"
    after = {path.name: path.read_bytes() for path in session.reports_dir.iterdir()}
    assert after == before, "the previous pair stays byte-identical and no temporary file remains"
    events = read_log_events(session.log.path)
    assert [e["kind"] for e in events] == ["received", "graded", "received", "errored"]
    assert events[-1]["reason"] == "report-unwritable"
    assert "No space left" in events[-1]["message"]


def test_failed_report_write_does_not_take_over_latest_wins(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_flat.cpp")})
    session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0)

    def disk_full(report):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "render_report_json", disk_full)
        failed = session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0 + timedelta(minutes=5))
    assert failed.status is ReportStatus.ERRORED

    # Received between the two: newer than the only pair that was written.
    make_zip(inbox / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    report = session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0 + timedelta(minutes=2))

    assert report.status is ReportStatus.GRADED
    assert report.score == 100.0
    assert read_report(session.reports_dir, "Ada_Lovelace_3")["score"] == 100.0
    events = read_log_events(session.log.path)
    assert [e["kind"] for e in events] == ["received", "graded", "received", "errored", "received", "superseded", "graded"]
    assert events[-2]["superseded_received_at"] == T0.isoformat()


def test_closed_log_aborts_grading_loudly(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    session.log.close()
    with pytest.raises(GradingLogError):
        session.grade_archive(archive)


# -- resubmission handling ------------------------------------------------------


def test_resubmission_supersedes_earlier_report(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_flat.cpp")})
    first = session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0)
    assert first.score == pytest.approx(70.0)

    make_zip(inbox / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    second = session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0 + timedelta(minutes=5))

    assert second.status is ReportStatus.GRADED
    assert second.score == 100.0
    payload = read_report(session.reports_dir, "Ada_Lovelace_3")
    assert payload["score"] == 100.0, "latest submission owns the report file"
    assert kinds(session) == ["received", "graded", "received", "superseded", "graded"]


def test_stale_submission_is_marked_superseded_and_not_written(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0 + timedelta(minutes=5))
    newest = (session.reports_dir / "Ada_Lovelace_3.report.json").read_text(encoding="utf-8")

    make_zip(inbox / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_flat.cpp")})
    stale = session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0)

    assert stale.status is ReportStatus.SUPERSEDED
    unchanged = (session.reports_dir / "Ada_Lovelace_3.report.json").read_text(encoding="utf-8")
    assert unchanged == newest, "a stale grade must not clobber the newer report"


def test_quarantined_resubmission_replaces_report_files(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0)

    (inbox / "Ada_Lovelace_3.zip").write_bytes(b"truncated upload")
    redo = session.grade_archive(inbox / "Ada_Lovelace_3.zip", received_at=T0 + timedelta(minutes=1))

    assert redo.status is ReportStatus.QUARANTINED
    payload = read_report(session.reports_dir, "Ada_Lovelace_3")
    assert payload["status"] == "Quarantined"
    assert payload["detail"] == "corrupt-archive"


def test_same_second_resubmission_resolves_by_discovery_not_finish_order(
    leap_spec, session_factory, tmp_path, monkeypatch
):
    # Both names are submission Ada_Lovelace_3; the batch lists "..._03.zip"
    # first, so "..._3.zip" is the newer even though both arrive in one second.
    session = session_factory(leap_spec, jobs=2)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_03.zip", {"main.cpp": source("leap_flat.cpp")})
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    newer_written = threading.Event()
    parse, render = pipeline.parse_submission_filename, pipeline.render_report_json

    def older_waits(name):
        if name == "Ada_Lovelace_03.zip":
            assert newer_written.wait(30), "the newer archive was never written"
        return parse(name)

    def note_newer(report):
        if report.archive_name == "Ada_Lovelace_3.zip":
            newer_written.set()
        return render(report)

    monkeypatch.setattr(pipeline, "parse_submission_filename", older_waits)
    monkeypatch.setattr(pipeline, "render_report_json", note_newer)
    monkeypatch.setattr(pipeline, "utc_now", lambda: T0)
    summary = session.run_batch(inbox)

    assert (summary.graded, summary.superseded) == (1, 1)
    assert read_report(session.reports_dir, "Ada_Lovelace_3")["score"] == 100.0, "the newer is nested"
    terminal = [(e["kind"], e.get("status")) for e in read_log_events(session.log.path) if e["kind"] != "received"]
    assert terminal == [("graded", "Graded"), ("superseded", "Superseded")], "the older one finished last"


def test_archives_of_one_submission_graded_at_once_keep_their_own_files(leap_spec, session_factory, tmp_path):
    # Both names are submission Ada_Lovelace_3 and grade side by side; each
    # must be built and judged from its own archive.
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_03.zip", {"main.cpp": source("leap_flat.cpp")})
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    for run in range(5):
        session = session_factory(leap_spec, subdir=f"run{run}", jobs=2)
        summary = session.run_batch(inbox)
        assert summary.errored == 0, f"run {run}"
        assert read_report(session.reports_dir, "Ada_Lovelace_3")["score"] == 100.0, f"run {run}: the newer is nested"


# -- batch mode -----------------------------------------------------------------


def test_batch_grades_everything_and_ignores_strays(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    drop(inbox, "Flat_Fiona_3.zip", {"main.cpp": source("leap_flat.cpp")})
    drop(inbox, "Broken_Bob_3.zip", {"main.cpp": source("leap_broken.cpp")})
    drop(inbox, "BadName.zip", {"main.cpp": source("leap_nested.cpp")})
    (inbox / "notes.txt").write_text("a stray file, not a submission\n", encoding="utf-8")

    summary = session.run_batch(inbox)

    assert summary.graded == 3
    assert summary.quarantined == 1
    assert summary.errored == 0
    assert summary.ignored == 1
    assert summary.total == 4
    assert (inbox / "notes.txt").exists()
    scores = {
        stem: read_report(session.reports_dir, stem)["score"]
        for stem in ("Ada_Lovelace_3", "Flat_Fiona_3", "Broken_Bob_3")
    }
    assert scores == {"Ada_Lovelace_3": 100.0, "Flat_Fiona_3": 70.0, "Broken_Bob_3": 0.0}


def test_build_dirs_are_removed_once_their_submissions_end(leap_spec, session_factory, tmp_path):
    # Fiona's program also writes a file into its working directory on every test.
    writer = "#include <fstream>\n" + source("leap_flat.cpp").replace(
        "cin >> year;", 'cin >> year;\n    ofstream("scratch.txt") << year;'
    )
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    drop(inbox, "Flat_Fiona_3.zip", {"main.cpp": writer})
    drop(inbox, "Broken_Bob_3.zip", {"main.cpp": source("leap_broken.cpp")})

    assert session.run_batch(inbox).graded == 3

    scores = {
        stem: read_report(session.reports_dir, stem)["score"]
        for stem in ("Ada_Lovelace_3", "Flat_Fiona_3", "Broken_Bob_3")
    }
    assert scores == {"Ada_Lovelace_3": 100.0, "Flat_Fiona_3": 70.0, "Broken_Bob_3": 0.0}
    assert sorted(kinds(session)) == sorted(["received"] * 3 + ["compile_error"] + ["graded"] * 3)
    # Only the session's precompiled headers may remain until it closes.
    assert [path.name for path in session.workspace_root.iterdir() if not path.name.startswith(".pch-")] == []


def test_batch_of_empty_inbox_is_a_quiet_noop(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    summary = session.run_batch(inbox)
    assert summary.total == 0
    assert summary.ignored == 0


def test_batch_stopped_before_it_starts_grades_nothing(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    drop(inbox, "Broken_Bob_3.zip", {"main.cpp": source("leap_broken.cpp")})
    stop = threading.Event()
    stop.set()
    assert session.run_batch(inbox, stop).total == 0
    assert kinds(session) == []
    assert sorted(path.name for path in inbox.iterdir()) == ["Ada_Lovelace_3.zip", "Broken_Bob_3.zip"]
    assert not session.reports_dir.exists()


def test_parallel_batch_matches_serial_batch(leap_spec, session_factory, tmp_path):
    inbox = tmp_path / "inbox"
    drop(inbox, "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    drop(inbox, "Flat_Fiona_3.zip", {"main.cpp": source("leap_flat.cpp")})
    drop(inbox, "Broken_Bob_3.zip", {"main.cpp": source("leap_broken.cpp")})

    serial = session_factory(leap_spec, subdir="serial", jobs=1)
    parallel = session_factory(leap_spec, subdir="parallel", jobs=4)
    assert serial.run_batch(inbox).graded == 3
    assert parallel.run_batch(inbox).graded == 3

    for stem in ("Ada_Lovelace_3", "Flat_Fiona_3", "Broken_Bob_3"):
        a = read_report(serial.reports_dir, stem)
        b = read_report(parallel.reports_dir, stem)
        for key in ("received_at", "generated_at"):
            a[key] = b[key] = None
        assert a == b


def test_pch_leaves_every_fixture_report_and_event_identical(leap_spec, session_factory, tmp_path, monkeypatch):
    # One test with a one-second timeout keeps the hanging fixture cheap; the
    # compile, which is what the PCH touches, is the spec's own.
    spec = dataclasses.replace(leap_spec, tests=(dataclasses.replace(leap_spec.tests[0], timeout_secs=1.0),))
    inbox = tmp_path / "inbox"
    for path in sorted(DATA_DIR.glob("*.cpp")):
        drop(inbox, f"{path.stem.replace('_', '-').title()}_Student_3.zip", {"main.cpp": path.read_text()})
    monkeypatch.setattr(pipeline, "utc_now", lambda: T0)

    outputs = {}
    for run in ("cold", "warm"):
        session = session_factory(spec, subdir=run, jobs=2)
        with monkeypatch.context() as patch:
            if run == "cold":
                patch.setattr(build, "_names_gcc", lambda *args: False)
            else:
                # Every <iostream> fixture tries the PCH, the broken one included.
                patch.setattr(build, "PCH_BUILD_AFTER_SILENT", 0)
                patch.setattr(build.PrecompiledHeaders, "record", lambda self, silent: None)
                built_pch(session._pch, spec.compiler)
            summary = session.run_batch(inbox)
        assert summary.graded == len(list(DATA_DIR.glob("*.cpp")))
        pch_dirs = list(session.workspace_root.glob(".pch-*"))
        assert len(pch_dirs) == (run == "warm")
        session.close()
        assert list(session.workspace_root.glob(".pch-*")) == [], "close() removes the PCH directory"
        reports = {path.name: path.read_bytes() for path in sorted(session.reports_dir.iterdir())}
        events = sorted(session.log.path.read_text(encoding="utf-8").splitlines())
        outputs[run] = (reports, events)
    assert outputs["warm"] == outputs["cold"]


# -- watch mode -----------------------------------------------------------------


def test_watch_inbox_rejects_tight_polling(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    with pytest.raises(ValueError):
        session.watch_inbox(inbox, poll_interval=0.1)


def test_watch_inbox_rejects_overlapping_dirs(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    stopped = threading.Event()
    stopped.set()  # a watcher that wrongly accepts the inbox returns at once
    for overlapping in (session.workspace_root, session.reports_dir, session.quarantine_dir):
        overlapping.mkdir(parents=True, exist_ok=True)
        with pytest.raises(ValueError):
            session.watch_inbox(overlapping, poll_interval=1.0, stop=stopped)


def test_watch_raises_while_running_when_the_log_fails(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})
    session.log.close()  # every append from here on fails

    stop = threading.Event()
    deadline = threading.Timer(20.0, stop.set)
    deadline.start()
    try:
        with pytest.raises(GradingLogError):
            session.watch_inbox(inbox, poll_interval=1.0, stop=stop)
    finally:
        deadline.cancel()
    assert not stop.is_set(), "a worker's log failure must end the watch, not wait for stop"


def test_watch_lists_the_inbox_four_times_per_settle_window(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    scanners = []

    class RecordingScanner(pipeline.InboxScanner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            scanners.append(self)

    waits = []

    class StopAtFirstWait(threading.Event):
        def wait(self, timeout=None):
            waits.append(timeout)
            self.set()
            return True

    monkeypatch.setattr(pipeline, "InboxScanner", RecordingScanner)
    session.watch_inbox(inbox, poll_interval=2.0, stop=StopAtFirstWait())
    assert [scanner.settle_secs for scanner in scanners] == [2.0]
    assert waits == [0.5]


def test_watch_grades_a_settled_upload(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})

    stop = threading.Event()
    outcome = {}

    def run():
        outcome["summary"] = session.watch_inbox(inbox, poll_interval=1.0, stop=stop)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        report_path = session.reports_dir / "Fast_Fred_3.report.json"
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and not report_path.exists():
            time.sleep(0.05)
        assert report_path.exists(), "watch mode never graded the upload"
    finally:
        stop.set()
        worker.join(timeout=15.0)
    assert not worker.is_alive()
    assert outcome["summary"].graded == 1
    assert read_report(session.reports_dir, "Fast_Fred_3")["score"] == 100.0

