import dataclasses
import json
import os
import socket
import stat
import subprocess
import threading
import time
import weakref
import zipfile
from datetime import datetime, timedelta, timezone

import pytest

from gradepipe import build, ingest, pipeline
from gradepipe.assess import AssessmentReport, GradingLogError, ReportStatus, read_log_events
from gradepipe.blackbox import SpawnFailure
from gradepipe.build import CompilerProfile
from gradepipe.specfile import load_spec

from support import (
    DATA_DIR, GOLD_DIR, IOSTREAM_MAIN, NO_GOLD, SPEC_PATH, built_pch, calls, damaged_lzma_zip, has_gold,
    header_build, is_terminal, make_zip, pch_include, read_report, source, stub_compiler,
)

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


def test_a_test_timeout_of_weeks_grades_normally(session_factory, tmp_path):
    spec = tmp_path / "long-timeouts.yaml"
    spec.write_text((DATA_DIR / "assignment3.yaml").read_text(encoding="utf-8").replace(
        "timeout_secs: 2\n", "timeout_secs: 3000000\n"), encoding="utf-8")
    long_spec = load_spec(spec)
    assert {case.timeout_secs for case in long_spec.tests} == {3e6}
    session = session_factory(long_spec)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert (report.status, report.score) == (ReportStatus.GRADED, 100.0)
    assert [test.outcome.value for test in report.blackbox] == ["Pass"] * 4
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
    assert list(session.workspace_root.glob("Greta_Garbo_3.*")) == [], "a build dir was left"


def test_a_symlink_upload_is_quarantined_not_graded_as_its_target(leap_spec, session_factory, tmp_path):
    private = drop(tmp_path / "private", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    private.chmod(0o600)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    link = inbox / "Eve_Mallory_3.zip"
    link.symlink_to(os.path.relpath(private, inbox))
    session = session_factory(leap_spec)

    report = session.grade_archive(link)

    assert (report.status, report.detail, report.score) == (ReportStatus.QUARANTINED, "not-a-regular-file", None)
    moved = session.quarantine_dir / "Eve_Mallory_3.zip"
    assert moved.is_symlink(), "the link itself is the evidence"
    assert (session.quarantine_dir / "Eve_Mallory_3.zip.reason.txt").read_text() == "not-a-regular-file\n"
    assert private.is_file() and not link.exists()


def test_a_fifo_upload_is_quarantined_without_waiting_for_a_writer(leap_spec, session_factory, tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    fifo = inbox / "Eve_Mallory_3.zip"
    os.mkfifo(fifo)
    session = session_factory(leap_spec)
    reports = []
    grading = threading.Thread(target=lambda: reports.append(session.grade_archive(fifo)))
    grading.start()
    grading.join(timeout=10)
    hung = grading.is_alive()
    if hung:  # a writer's open releases the reader's, and the read then sees EOF
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        grading.join()

    assert not hung, "grading blocked opening the FIFO"
    [report] = reports
    assert (report.status, report.detail) == (ReportStatus.QUARANTINED, "not-a-regular-file")
    assert stat.S_ISFIFO((session.quarantine_dir / "Eve_Mallory_3.zip").lstat().st_mode)
    assert kinds(session) == ["received", "quarantined"]


# Uploads whose ZIP_LZMA entry has damaged properties or data: zipfile raises lzma.LZMAError reading them.
LZMA_DAMAGE = {"Lzma_Props_3.zip": "properties", "Lzma_Data_3.zip": "data"}


def test_archive_that_fails_while_it_is_read_is_quarantined_not_errored(leap_spec, session_factory, tmp_path):
    intact = make_zip(tmp_path / "intact.zip", {"main.cpp": source("leap_nested.cpp")}).read_bytes()
    named = bytearray(intact)
    entry = intact.index(b"PK\x01\x02")
    named[entry + 9] |= 0x08  # flags a central directory name as UTF-8 ...
    named[entry + 46] = 0xDC  # ... that is not
    inflated = bytearray(intact)
    inflated[30 + len("main.cpp")] = 0xFF  # deflate data that opens with the reserved block type
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (inbox / "Ada_Lovelace_3.zip").write_bytes(named)
    (inbox / "Bob_Byron_3.zip").write_bytes(inflated)
    for name, part in LZMA_DAMAGE.items():
        (inbox / name).write_bytes(damaged_lzma_zip("main.cpp", source("leap_nested.cpp"), part))

    session = session_factory(leap_spec)
    summary = session.run_batch(inbox)
    assert (summary.quarantined, summary.errored) == (4, 0)
    assert not any(inbox.iterdir()), "every archive left the inbox"
    for name in ("Ada_Lovelace_3.zip", "Bob_Byron_3.zip", *LZMA_DAMAGE):
        assert (session.quarantine_dir / f"{name}.reason.txt").read_text() == "corrupt-archive\n"


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


def test_a_compile_error_reports_the_same_bytes_in_a_utf8_locale(leap_spec, session_factory, tmp_path, monkeypatch):
    locales = subprocess.run(["locale", "-a"], capture_output=True, text=True).stdout.split()
    utf8 = [name for name in locales if name.lower().endswith((".utf8", ".utf-8"))]
    if not utf8:
        pytest.skip("no UTF-8 locale is installed")
    monkeypatch.setattr(pipeline, "utc_now", lambda: T0)
    reports = []
    for locale in ("C", utf8[0]):
        monkeypatch.setenv("LC_ALL", locale)
        session = session_factory(leap_spec, subdir=locale)
        session.grade_archive(drop(tmp_path / locale, "Cafe_Carl_3.zip", {"main.cpp": "int main() { return cafe; }\n"}))
        reports.append((session.reports_dir / "Cafe_Carl_3.report.json").read_bytes())
    assert reports[0] == reports[1]
    assert b"'cafe' was not declared" in reports[0]


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
    assert list(session.workspace_root.glob("Ada_Lovelace_3.*")) == [], "a build dir was left"


def test_spawn_failure_is_an_environment_error(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    def refuse(*args, **kwargs):
        raise SpawnFailure("simulated resource exhaustion")

    monkeypatch.setattr("gradepipe.pipeline.run_test_suite", refuse)
    report = session.grade_archive(archive)

    assert report.status is ReportStatus.ERRORED
    assert report.detail == "spawn-failure"
    assert list(session.workspace_root.glob("Ada_Lovelace_3.*")) == [], "a build dir was left"


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


def test_an_entry_name_too_long_for_the_filesystem_is_quarantined(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    files = {"main.cpp": source("leap_nested.cpp"), "a" * 300 + ".cpp": "int x;\n"}
    archive = drop(tmp_path / "inbox", "Ada_Lovelace_3.zip", files)

    report = session.grade_archive(archive)

    assert (report.status, report.detail) == (ReportStatus.QUARANTINED, "name-too-long")
    events = read_log_events(session.log.path)
    assert [e["kind"] for e in events] == ["received", "quarantined"]
    assert events[-1]["submission"] == "Ada_Lovelace_3"
    assert str(session.workspace_root) not in events[-1]["message"]
    assert list(session.workspace_root.glob("Ada_Lovelace_3.*")) == [], "a build dir was left"
    assert (session.quarantine_dir / "Ada_Lovelace_3.zip.reason.txt").read_text() == "name-too-long\n"


def test_the_longest_name_that_fits_is_graded_and_its_pair_written(leap_spec, session_factory, tmp_path):
    # 243 bytes leave room for ".report.json" in 255; the temporary report names once grew past that.
    session = session_factory(leap_spec)
    stem = "A" * 232 + "_Lovelace_3"
    archive = drop(tmp_path / "inbox", stem + ".zip", {"main.cpp": source("leap_nested.cpp")})

    report = session.grade_archive(archive)

    assert (report.status, report.score) == (ReportStatus.GRADED, 100.0)
    assert sorted(path.name for path in session.reports_dir.iterdir()) == [
        stem + ".report.json",
        stem + ".report.txt",
    ]
    assert kinds(session) == ["received", "graded"]


def test_a_255_byte_name_is_quarantined_with_its_reason_file(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    name = "x" * 251 + ".zip"  # one field, and no room for ".reason.txt" after it
    for _ in range(2):  # the second copy gets a numbered name in quarantine
        archive = drop(tmp_path / "inbox", name, {"main.cpp": source("leap_nested.cpp")})

        report = session.grade_archive(archive)

        assert (report.status, report.detail) == (ReportStatus.QUARANTINED, "malformed-name:wrong-field-count")
        assert not archive.exists()
    kept = sorted(session.quarantine_dir.iterdir())
    assert len(kept) == 4
    archives = [path for path in kept if not path.name.endswith(".reason.txt")]
    assert len(archives) == 2
    for path in archives:
        assert zipfile.is_zipfile(path)
        assert path.with_name(path.name + ".reason.txt").read_text() == "malformed-name:wrong-field-count\n"
    assert kinds(session) == ["received", "quarantined"] * 2


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


ENDS = ("Graded", "Quarantined", "Errored")


def _ending(inbox, name, status):
    """An archive that ends ``status``: a corrupt zip is Quarantined, and Errored needs a failed spawn."""
    if status == "Quarantined":
        inbox.mkdir(parents=True, exist_ok=True)
        (inbox / name).write_bytes(b"PK\x03\x04 but the rest is nonsense")
        return inbox / name
    return drop(inbox, name, {"main.cpp": "int main() { return 0; }\n"})


@pytest.mark.parametrize("newer", ENDS)
@pytest.mark.parametrize("older", ENDS)
def test_pair_on_disk_is_the_newest_receipts_whatever_the_finish_order(
    older, newer, leap_spec, session_factory, tmp_path, monkeypatch
):
    # Both names are submission Ada_Lovelace_3; each order grades the two one after the other.
    receipts = {
        "older": ("Ada_Lovelace_03.zip", older, T0),
        "newer": ("Ada_Lovelace_3.zip", newer, T0 + timedelta(minutes=5)),
    }

    def refuse(*args, **kwargs):
        raise SpawnFailure("simulated resource exhaustion")

    monkeypatch.setattr(pipeline, "utc_now", lambda: T0)
    pairs, ends = {}, {}
    for order in (("older", "newer"), ("newer", "older")):
        run = "-then-".join(order)
        session = session_factory(leap_spec, subdir=run)
        for which in order:
            name, status, at = receipts[which]
            archive = _ending(tmp_path / run / "inbox", name, status)
            seen = len(read_log_events(session.log.path))
            with monkeypatch.context() as patch:
                if status == "Errored":
                    patch.setattr(pipeline, "run_test_suite", refuse)
                ends[run, which] = session.grade_archive(archive, received_at=at).status.value
            events = read_log_events(session.log.path)[seen:]
            assert [is_terminal(event) for event in events].count(True) == 1, f"{run}: {which} {events}"
        pairs[run] = {path.name: path.read_bytes() for path in sorted(session.reports_dir.iterdir())}

    assert pairs["older-then-newer"] == pairs["newer-then-older"], "finish order picked the pair"
    payload = read_report(tmp_path / "newer-then-older" / "reports", "Ada_Lovelace_3")
    assert (payload["status"], payload["received_at"]) == (newer, receipts["newer"][2].isoformat())
    assert ends["older-then-newer", "older"] == older
    assert ends["older-then-newer", "newer"] == ends["newer-then-older", "newer"] == newer
    assert ends["newer-then-older", "older"] == ("Superseded" if older == "Graded" else older)


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


NOT_REGULAR = ["Dan_Gling_3.zip", "Fi_Fo_3.zip", "So_Cket_3.zip"]


def test_batch_quarantines_every_upload_that_is_not_a_regular_file(leap_spec, session_factory, tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (inbox / "Dan_Gling_3.zip").symlink_to(tmp_path / "gone.zip")
    os.mkfifo(inbox / "Fi_Fo_3.zip")
    os.mkfifo(inbox / "notes.txt")
    session = session_factory(leap_spec)
    outcome = {}
    with socket.socket(socket.AF_UNIX) as listener:
        listener.bind(str(inbox / "So_Cket_3.zip"))
        # A daemon, so a batch blocked on a FIFO fails the test rather than hanging the run.
        batch = threading.Thread(target=lambda: outcome.update(summary=session.run_batch(inbox)), daemon=True)
        batch.start()
        batch.join(timeout=20)
        assert not batch.is_alive(), "the batch blocked on an upload"

    summary = outcome["summary"]
    assert (summary.graded, summary.quarantined, summary.errored, summary.ignored) == (0, 3, 0, 1)
    events = sorted((event["kind"], event["archive"], event.get("reason")) for event in read_log_events(session.log.path))
    assert events == sorted(
        [("received", name, None) for name in NOT_REGULAR]
        + [("quarantined", name, "not-a-regular-file") for name in NOT_REGULAR]
        + [("ignored", "notes.txt", "not-a-zip-archive")]
    )
    assert sorted(path.name for path in inbox.iterdir()) == ["notes.txt"]
    for name in NOT_REGULAR:
        assert os.path.lexists(session.quarantine_dir / name), f"{name} was not moved aside itself"


def test_a_batch_holds_no_report_it_has_counted(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec, jobs=1)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    for number in range(6):
        (inbox / f"Ada_Lovelace_{number}.zip").write_bytes(b"")
    counted, alive = [], []
    record = pipeline.BatchSummary.record

    def graded_at_once(path, received_at=None):
        return AssessmentReport(None, path.name, received_at.at, status=ReportStatus.GRADED)

    def count(summary, report):
        alive.append(sum(ref() is not None for ref in counted))
        counted.append(weakref.ref(report))
        record(summary, report)

    monkeypatch.setattr(session, "grade_archive", graded_at_once)
    monkeypatch.setattr(pipeline.BatchSummary, "record", count)
    assert session.run_batch(inbox).graded == 6
    assert alive == [0] * 6, "a report outlived its count"


def test_batch_never_lists_its_own_log(leap_spec, session_factory, tmp_path):
    inbox = tmp_path / "inbox"
    drop(inbox, "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})
    (tmp_path / "link").symlink_to(inbox)
    session = session_factory(leap_spec, log_path=tmp_path / "link" / "grading.log")  # the log, spelled another way

    summary = session.run_batch(inbox)

    assert (summary.graded, summary.ignored) == (1, 0)
    assert "ignored" not in kinds(session)


def test_a_link_to_the_log_is_an_upload_like_any_other(leap_spec, session_factory, tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    session = session_factory(leap_spec)
    (inbox / "Lo_G_3.zip").symlink_to(session.log.path)
    (inbox / "notes.txt").symlink_to(session.log.path)

    summary = session.run_batch(inbox)

    assert (summary.quarantined, summary.ignored) == (1, 1)
    assert (session.quarantine_dir / "Lo_G_3.zip").is_symlink()
    assert session.log.path.is_file() and not session.log.path.is_symlink(), "the log itself stays where it is"


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


QUEUED = ["Ada_Lovelace_3.zip", "Broken_Bob_3.zip", "Fast_Fred_3.zip", "Flat_Fiona_3.zip"]


@pytest.mark.parametrize("mode", ["batch", "watch"])
def test_a_run_whose_grading_raises_starts_no_archive_it_queued(mode, leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec, jobs=1)
    inbox = tmp_path / "inbox"
    for name in QUEUED:
        drop(inbox, name, {"main.cpp": source("leap_fast.cpp")})
    grade = session.grade_archive
    started = []

    def fail_first(path, received_at=None):
        started.append(path.name)
        if len(started) == 1:
            time.sleep(0.05)  # the run has gone back to waiting when the failure comes
            raise GradingLogError("simulated log failure")
        return grade(path, received_at)

    monkeypatch.setattr(session, "grade_archive", fail_first)
    stop = threading.Event()
    deadline = threading.Timer(20.0, stop.set)
    deadline.start()
    try:
        with pytest.raises(GradingLogError):
            if mode == "batch":
                session.run_batch(inbox, stop)
            else:
                session.watch_inbox(inbox, poll_interval=1.0, stop=stop)
    finally:
        deadline.cancel()
    assert started == QUEUED[:1], "the one worker took no queued archive after the failure"
    assert kinds(session) == []
    assert sorted(path.name for path in inbox.iterdir()) == QUEUED
    assert not stop.is_set(), "the failure ended the run, not the deadline"


def test_interrupted_batch_finishes_what_is_in_flight_and_starts_nothing_queued(
    leap_spec, session_factory, tmp_path, monkeypatch
):
    session = session_factory(leap_spec, jobs=1)
    inbox = tmp_path / "inbox"
    for name in QUEUED:
        drop(inbox, name, {"main.cpp": source("leap_fast.cpp")})

    def interrupt(summary, report):
        raise KeyboardInterrupt  # Ctrl-C while the batch waits on its first result

    monkeypatch.setattr(pipeline.BatchSummary, "record", interrupt)
    with pytest.raises(KeyboardInterrupt):
        session.run_batch(inbox)
    received = [event["archive"] for event in read_log_events(session.log.path) if event["kind"] == "received"]
    # Only the run's own thread starts an archive, and it was interrupted before it started a second.
    assert received == QUEUED[:1]
    assert kinds(session).count("graded") == len(received), "what started was graded to the end"


def test_the_pool_is_handed_no_archive_before_a_worker_is_free(leap_spec, session_factory, tmp_path, monkeypatch):
    submitted = []

    class CountingPool(pipeline.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args[0].name)
            return super().submit(fn, *args, **kwargs)

    session = session_factory(leap_spec, jobs=1)
    inbox = tmp_path / "inbox"
    for name in QUEUED[:3]:
        drop(inbox, name, {"main.cpp": source("leap_fast.cpp")})
    grade = session.grade_archive
    seen_while_grading = []

    def grade_and_look(path, received_at=None):
        seen_while_grading.append(list(submitted))
        return grade(path, received_at)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(session, "grade_archive", grade_and_look)
    assert session.run_batch(inbox).graded == 3
    assert seen_while_grading == [QUEUED[:1], QUEUED[:2], QUEUED[:3]], "an archive was handed over before it started"


def test_watch_refills_a_free_worker_without_waiting_for_the_next_listing(
    leap_spec, session_factory, tmp_path, monkeypatch
):
    session = session_factory(leap_spec, jobs=1)
    inbox = tmp_path / "inbox"
    for name in QUEUED[:3]:
        drop(inbox, name, {"main.cpp": source("leap_fast.cpp")})
    spans = []
    listings = []

    class CountingScanner(pipeline.InboxScanner):
        def poll(self):
            listings.append(time.monotonic())
            return super().poll()

    def fast_grade(path, received_at=None):
        started = time.monotonic()
        time.sleep(0.05)
        spans.append((path.name, started, time.monotonic()))
        return AssessmentReport(None, path.name, T0, status=ReportStatus.ERRORED, detail="stub")

    monkeypatch.setattr(session, "grade_archive", fast_grade)
    monkeypatch.setattr(pipeline, "InboxScanner", CountingScanner)
    stop = threading.Event()
    deadline = threading.Timer(20.0, stop.set)
    watcher = threading.Thread(target=session.watch_inbox, args=(inbox,), kwargs=dict(poll_interval=30.0, stop=stop))
    deadline.start()
    watcher.start()
    try:
        while len(spans) < 3 and not stop.is_set():
            time.sleep(0.01)
    finally:
        stop.set()
        deadline.cancel()
        watcher.join(timeout=15.0)
    assert not watcher.is_alive(), "the watch did not return once stopped"
    assert [name for name, _, _ in spans] == QUEUED[:3]
    for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
        assert start - end < 1.0, "the free worker waited for the next listing, 7.5 s away"
    assert len(listings) == 1, "a refill listed the inbox again"


@pytest.mark.parametrize("jobs", [0, -3, True, 1.5, "2"])
def test_a_session_refuses_a_worker_count_that_is_not_a_positive_int(leap_spec, session_factory, tmp_path, jobs):
    with pytest.raises(ValueError, match="jobs must be a positive int"):
        session_factory(leap_spec, jobs=jobs)
    assert not (tmp_path / "run").exists(), "nothing was opened"


def test_a_session_without_a_worker_count_takes_the_cpu_count_capped_at_8(leap_spec, session_factory):
    assert session_factory(leap_spec, jobs=None).jobs == min(8, os.cpu_count() or 1)


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


def grade_cold_and_warm(spec, inbox, session_factory, monkeypatch, build_first=True):
    """The reports and sorted events of a batch of ``inbox`` graded cold, then warm, and each warm session compile.

    The cold session's compiler is not taken for GCC. Each compile is a
    (workspace name, added variables) pair; a cold rerun adds none.
    """
    monkeypatch.setattr(pipeline, "utc_now", lambda: T0)
    compiles = []
    run_compiler = build._run_compiler

    def recorded(command, workspace, profile, env):
        compiles.append((workspace.name, env))
        return run_compiler(command, workspace, profile, env)

    outputs = {}
    for run in ("cold", "warm"):
        session = session_factory(spec, subdir=run, jobs=2)
        with monkeypatch.context() as patch:
            if run == "cold":
                patch.setattr(build, "_names_gcc", lambda *args: False)
            else:
                patch.setattr(build, "_run_compiler", recorded)
                if build_first:
                    built_pch(session._pch, spec.compiler)
            summary = session.run_batch(inbox)
        assert summary.graded == len(list(inbox.iterdir()))
        pch_dirs = list(session.workspace_root.glob(".pch-*"))
        assert len(pch_dirs) == (run == "warm")
        session.close()
        assert list(session.workspace_root.glob(".pch-*")) == [], "close() removes the PCH directory"
        reports = {path.name: path.read_bytes() for path in sorted(session.reports_dir.iterdir())}
        events = sorted(session.log.path.read_text(encoding="utf-8").splitlines())
        outputs[run] = (reports, events)
    return outputs["cold"], outputs["warm"], compiles


def test_pch_leaves_every_fixture_report_and_event_identical(leap_spec, session_factory, tmp_path, monkeypatch):
    # One test with a one-second timeout keeps the hanging fixture cheap; the
    # compile, which is what the PCH touches, is the spec's own.
    spec = dataclasses.replace(leap_spec, tests=(dataclasses.replace(leap_spec.tests[0], timeout_secs=1.0),))
    inbox = tmp_path / "inbox"
    for path in sorted(DATA_DIR.glob("*.cpp")):
        drop(inbox, f"{path.stem.replace('_', '-').title()}_Student_3.zip", {"main.cpp": path.read_text()})
    cold, warm, compiles = grade_cold_and_warm(spec, inbox, session_factory, monkeypatch)
    assert warm == cold
    warm_envs = [env for _, env in compiles if env]
    assert warm_envs, "no compile ran warm"
    if not has_gold():
        pytest.skip(NO_GOLD)
    assert [env["COMPILER_PATH"].split(os.pathsep)[0] for env in warm_envs] == [GOLD_DIR] * len(warm_envs)


def test_a_batch_builds_the_pch_its_last_compile_alone_wants(leap_spec, session_factory, tmp_path, monkeypatch):
    # Whether a batch may build is decided once, from its size, not counted down compile by compile.
    firsts = ["Ada", "Ben", "Cal", "Dee", "Eve", "Fay", "Gus", "Hal", "Ivy", "Jon"][:build.PCH_BUILD_FOR_AT_LEAST]
    inbox = tmp_path / "inbox"
    for first in firsts[:-1]:
        drop(inbox, f"{first}_Student_3.zip", {"main.cpp": "int main() { return 0; }\n"})
    drop(inbox, f"{firsts[-1]}_Student_3.zip", {"main.cpp": source("leap_nested.cpp")})
    compiles = []
    run_compiler = build._run_compiler

    def recorded(command, workspace, profile, added):
        compiles.append(added)
        return run_compiler(command, workspace, profile, added)

    monkeypatch.setattr(build, "_run_compiler", recorded)
    session = session_factory(leap_spec, jobs=1)
    assert session.run_batch(inbox).graded == len(firsts)
    assert ["CPLUS_INCLUDE_PATH" in added for added in compiles] == [False] * (len(firsts) - 1) + [True]
    assert read_report(session.reports_dir, f"{firsts[-1]}_Student_3")["score"] == 100.0


# Leap-year programs that compile with warnings under -Wall, and with nothing else.
WALL_WARNINGS = {
    "unused-variable": source("leap_nested.cpp").replace("    int year;\n", "    int year;\n    int unused;\n"),
    "sign-compare": source("leap_nested.cpp").replace(
        "    return 0;", "    unsigned n = 1;\n    for (int i = 0; i < n; i++) {}\n    return 0;"),
    "unused-function": source("leap_nested.cpp").replace("int main", "static int helper() { return 1; }\n\nint main"),
    "parentheses": source("leap_nested.cpp").replace(
        "    cin >> year;\n", "    cin >> year;\n    year += 0 & 1 == 1;\n"),
    "misleading-indentation": source("leap_nested.cpp").replace(
        "    return 0;", "    if (year < 0)\n        year = -year;\n        year += 0;\n    return 0;"),
    "cstdio-unused-variable": source("leap_fast.cpp").replace("int main() {\n", "int main() {\n    int unused;\n"),
}


def test_a_wall_class_whose_programs_all_warn_compiles_each_once_and_grades_as_cold(
    session_factory, tmp_path, monkeypatch
):
    spec_path = tmp_path / "wall.yaml"
    spec_path.write_text(SPEC_PATH.read_text(encoding="utf-8").replace("-std=c++17,", "-std=c++17, -Wall,"),
                         encoding="utf-8")
    spec = load_spec(spec_path)
    assert "-Wall" in spec.compiler.command and len(WALL_WARNINGS) >= build.PCH_BUILD_FOR_AT_LEAST
    inbox = tmp_path / "inbox"
    for name, text in WALL_WARNINGS.items():
        drop(inbox, f"{name.replace('-', '').title()}_Student_3.zip", {"main.cpp": text})
    cold, warm, compiles = grade_cold_and_warm(spec, inbox, session_factory, monkeypatch, build_first=False)
    assert warm == cold
    reports, _ = warm
    for name in WALL_WARNINGS:
        report = json.loads(reports[f"{name.replace('-', '').title()}_Student_3.report.json"])
        assert {d["severity"] for d in report["compile"]["diagnostics"]} >= {"Warning"}, name
        assert report["compile"]["succeeded"], name
    workspaces = [workspace for workspace, _ in compiles]
    assert len(workspaces) == len(set(workspaces)) == len(WALL_WARNINGS), "each compiled once"
    assert any("CPLUS_INCLUDE_PATH" in (env or {}) for _, env in compiles), "no compile used a PCH"


def test_a_program_is_started_by_a_name_that_leaves_the_session_out(leap_spec, session_factory, tmp_path, monkeypatch):
    spec = dataclasses.replace(leap_spec, tests=leap_spec.tests[:1])
    program = "#include <cstdio>\nint main(int argc, char **argv) { std::puts(argv[0]); }\n"
    archive = drop(tmp_path / "inbox", "Arg_Zero_3.zip", {"main.cpp": program})
    monkeypatch.setattr(pipeline, "utc_now", lambda: T0)
    reports = []
    for run in ("one", "two"):
        session = session_factory(spec, subdir=run)
        session.grade_archive(archive)
        reports.append({path.name: path.read_bytes() for path in sorted(session.reports_dir.iterdir())})
    assert reports[0] == reports[1]
    assert read_report(session.reports_dir, "Arg_Zero_3")["tests"][0]["actual"] == "./program"


def test_a_program_that_prints_its_build_time_grades_the_same_in_two_sessions(
    leap_spec, session_factory, tmp_path, monkeypatch
):
    spec = dataclasses.replace(leap_spec, tests=leap_spec.tests[:1])
    program = '#include <cstdio>\nint main() { std::puts(__DATE__ " " __TIME__); }\n'
    archive = drop(tmp_path / "inbox", "Build_Time_3.zip", {"main.cpp": program})
    monkeypatch.setattr(pipeline, "utc_now", lambda: T0)
    reports = []
    # The second session's grader inherits a SOURCE_DATE_EPOCH of its own; the compile's is fixed.
    for run, inherited in (("one", None), ("two", "1000000000")):
        if inherited is None:
            monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        else:
            monkeypatch.setenv("SOURCE_DATE_EPOCH", inherited)
        session = session_factory(spec, subdir=run)
        session.grade_archive(archive)
        reports.append({path.name: path.read_bytes() for path in sorted(session.reports_dir.iterdir())})
    assert reports[0] == reports[1]
    assert read_report(session.reports_dir, "Build_Time_3")["tests"][0]["actual"] == "Jan  1 1970 00:00:00"


def stub_spec(spec, directory):
    """``spec`` compiled by a stub g++ that logs each call (see ``stub_compiler``) and compiles with the real one."""
    profile, log = stub_compiler(directory, compile_step='exec g++ "$@"')
    return dataclasses.replace(spec, compiler=profile, tests=spec.tests[:1]), log


@pytest.mark.usefixtures("plain_environment")
def test_a_batch_under_the_bound_builds_no_pch(leap_spec, session_factory, tmp_path):
    spec, log = stub_spec(leap_spec, tmp_path)
    session = session_factory(spec, jobs=2)
    inbox = tmp_path / "inbox"
    for letter in "abcdefghij"[: build.PCH_BUILD_FOR_AT_LEAST - 1]:
        drop(inbox, f"Stu_Dent{letter}_3.zip", {"main.cpp": IOSTREAM_MAIN})
    assert session.run_batch(inbox).graded == build.PCH_BUILD_FOR_AT_LEAST - 1
    assert calls(log) == ["version"] + ["compile unset"] * (build.PCH_BUILD_FOR_AT_LEAST - 1)
    assert list(session.workspace_root.glob(".pch-*")) == []


@pytest.mark.usefixtures("plain_environment")
def test_a_watch_builds_the_pch_at_its_first_iostream_compile(leap_spec, session_factory, tmp_path, monkeypatch):
    spec, log = stub_spec(leap_spec, tmp_path)
    session = session_factory(spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    staged = drop(tmp_path / "staging", "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    watcher = _Watcher(session, inbox, 30.0, monkeypatch)
    try:
        os.replace(staged, inbox / staged.name)
        assert _wait_for(session.reports_dir / "Ada_Lovelace_3.report.json", 10.0), "not graded within 10 s"
    finally:
        watcher.finish()
    warm = f"compile {pch_include(session.workspace_root)}"
    assert calls(log) == ["version", header_build(session.workspace_root), warm]
    assert read_report(session.reports_dir, "Ada_Lovelace_3")["score"] == 100.0
    # Once the watch has returned, a single grade still uses the PCH the session has.
    session.grade_archive(drop(tmp_path / "later", "Ada_Lovelace_3.zip", {"main.cpp": IOSTREAM_MAIN}))
    assert calls(log)[3:] == [warm]


@pytest.mark.usefixtures("plain_environment")
def test_a_broken_iostream_archive_is_compiled_once_after_the_pch_is_built(leap_spec, session_factory, tmp_path):
    spec, log = stub_spec(leap_spec, tmp_path)
    session = session_factory(spec)
    built_pch(session._pch, spec.compiler)
    inbox = tmp_path / "inbox"
    drop(inbox, "Broken_Bob_3.zip", {"main.cpp": source("leap_broken.cpp")})
    assert session.run_batch(inbox).graded == 1
    warm = f"compile {pch_include(session.workspace_root)}"
    assert calls(log) == ["version", header_build(session.workspace_root), warm]
    compiled = read_report(session.reports_dir, "Broken_Bob_3")["compile"]
    assert not compiled["succeeded"]
    assert any("error: expected initializer before" in d["text"] for d in compiled["diagnostics"])


# -- watch mode -----------------------------------------------------------------


def test_watch_inbox_rejects_tight_polling(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    with pytest.raises(ValueError):
        session.watch_inbox(inbox, poll_interval=0.1)


@pytest.mark.parametrize("interval", [float("nan"), float("inf")])
def test_watch_inbox_rejects_an_interval_that_is_not_finite(leap_spec, session_factory, tmp_path, interval):
    # NaN is not below the minimum, and a watcher polling every NaN seconds lists the inbox without pause.
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    with pytest.raises(ValueError, match="finite"):
        pipeline.check_inbox(inbox, (), interval)
    stopped = threading.Event()
    stopped.set()  # a watcher that wrongly accepts the interval returns at once
    with pytest.raises(ValueError, match="finite"):
        session.watch_inbox(inbox, poll_interval=interval, stop=stopped)


def test_watch_inbox_rejects_overlapping_dirs(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    stopped = threading.Event()
    stopped.set()  # a run that wrongly accepts the inbox returns at once
    for overlapping in (session.workspace_root, session.reports_dir, session.quarantine_dir):
        overlapping.mkdir(parents=True, exist_ok=True)
        with pytest.raises(ValueError):
            session.watch_inbox(overlapping, poll_interval=1.0, stop=stopped)
        with pytest.raises(ValueError):
            session.run_batch(overlapping, stopped)


def test_an_inbox_that_resolves_to_a_session_dir_is_refused(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    session.quarantine_dir.mkdir(parents=True)
    link = tmp_path / "link-to-quarantine"
    link.symlink_to(session.quarantine_dir)
    stopped = threading.Event()
    stopped.set()  # a run that wrongly accepts the inbox returns at once
    for inbox in (link, session.quarantine_dir / ".." / session.quarantine_dir.name):
        with pytest.raises(ValueError):
            session.run_batch(inbox, stopped)
        with pytest.raises(ValueError):
            session.watch_inbox(inbox, poll_interval=1.0, stop=stopped)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_watch_raises_while_running_when_the_log_fails(leap_spec, session_factory, tmp_path):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})
    session.log.close()  # every append from here on fails

    stop = threading.Event()
    deadline = threading.Timer(20.0, stop.set)
    deadline.start()
    fds = _open_fds()
    try:
        with pytest.raises(GradingLogError):
            session.watch_inbox(inbox, poll_interval=1.0, stop=stop)
    finally:
        deadline.cancel()
    assert not stop.is_set(), "a worker's log failure must end the watch, not wait for stop"
    assert _open_fds() == fds, "the inotify fd outlived the watch"


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

    def stop_at_first_wait(events, wake, stop, deadline):
        waits.append(deadline - time.monotonic())
        stop.set()

    monkeypatch.setattr(pipeline, "InboxScanner", RecordingScanner)
    monkeypatch.setattr(pipeline, "_wait_for_inbox", stop_at_first_wait)
    session.watch_inbox(inbox, poll_interval=2.0)
    assert [scanner.settle_secs for scanner in scanners] == [2.0]
    assert waits == [pytest.approx(0.5, abs=0.1)]


def test_watch_never_lists_its_own_log(leap_spec, session_factory, tmp_path, monkeypatch):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    session = session_factory(leap_spec, log_path=inbox / ".." / "inbox" / "grading.log")
    listings = []

    def fourth_listing_stops(events, wake, stop, deadline):
        listings.append(deadline)
        if len(listings) == 4:
            stop.set()

    # A file settles at the second listing that sees its stamp, so the log would be handed out by then,
    # and again after every event that the handing out logged.
    monkeypatch.setattr(pipeline, "InboxScanner", lambda inbox, settle_secs: ingest.InboxScanner(inbox, 0.0))
    monkeypatch.setattr(pipeline, "_wait_for_inbox", fourth_listing_stops)
    summary = session.watch_inbox(inbox, poll_interval=1.0)

    assert len(listings) == 4
    assert summary.ignored == 0
    assert "ignored" not in kinds(session)


class _Watcher:
    """``watch_inbox`` on a thread, with the start of each listing recorded."""

    def __init__(self, session, inbox, poll_interval, monkeypatch):
        self.listings = []  # when each listing started
        self.stop = threading.Event()
        self.outcome = {}
        poll = pipeline.InboxScanner.poll

        def counted(scanner):
            self.listings.append(time.monotonic())
            return poll(scanner)

        monkeypatch.setattr(pipeline.InboxScanner, "poll", counted)
        self.thread = threading.Thread(target=self._run, args=(session, inbox, poll_interval))
        self.thread.start()
        deadline = time.monotonic() + 5.0
        while not self.listings and time.monotonic() < deadline:
            time.sleep(0.01)

    def _run(self, session, inbox, poll_interval):
        self.outcome["summary"] = session.watch_inbox(inbox, poll_interval=poll_interval, stop=self.stop)

    def finish(self, within=15.0):
        """Stop the watcher; returns how long it took to return."""
        started = time.monotonic()
        self.stop.set()
        self.thread.join(timeout=within)
        assert not self.thread.is_alive(), "the watcher did not stop"
        return time.monotonic() - started


def _wait_for(path, within):
    deadline = time.monotonic() + within
    while time.monotonic() < deadline and not path.exists():
        time.sleep(0.02)
    return path.exists()


def test_watch_grades_an_upload_moved_in_at_once_at_a_long_interval(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    staged = drop(tmp_path / "staging", "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})
    fds = _open_fds()
    watcher = _Watcher(session, inbox, 30.0, monkeypatch)
    try:
        assert any(os.readlink(f"/proc/self/fd/{fd}") == "anon_inode:inotify" for fd in _open_fds())
        os.replace(staged, inbox / staged.name)
        assert _wait_for(session.reports_dir / "Fast_Fred_3.report.json", 3.0), "not graded within 3 s"
    finally:
        watcher.finish()
    assert watcher.outcome["summary"].graded == 1
    assert _open_fds() == fds, "the inotify fd outlived the watch"


def test_watch_without_inotify_still_grades_at_its_idle_cadence(leap_spec, session_factory, tmp_path, monkeypatch):
    import ctypes

    def no_libc(*args, **kwargs):
        raise OSError("no inotify here")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    staged = drop(tmp_path / "staging", "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})
    watcher = _Watcher(session, inbox, 1.0, monkeypatch)
    try:
        os.replace(staged, inbox / staged.name)
        assert _wait_for(session.reports_dir / "Fast_Fred_3.report.json", 15.0), "watch mode never graded the upload"
    finally:
        watcher.finish()
    assert watcher.outcome["summary"].graded == 1
    assert read_report(session.reports_dir, "Fast_Fred_3")["score"] == 100.0


def test_watch_stops_promptly_at_a_long_interval(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    watcher = _Watcher(session, inbox, 30.0, monkeypatch)
    time.sleep(0.3)
    assert watcher.finish() < 0.5


def test_stopped_watch_starts_no_archive_it_has_not_started(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec, jobs=1)
    inbox = tmp_path / "inbox"
    names = ["Ada_Lovelace_3.zip", "Broken_Bob_3.zip", "Fast_Fred_3.zip", "Flat_Fiona_3.zip"]
    for name in names:
        drop(inbox, name, {"main.cpp": source("leap_fast.cpp")})
    stop = threading.Event()
    parse = pipeline.parse_submission_filename

    def stop_while_grading(name):
        stop.set()
        return parse(name)

    monkeypatch.setattr(pipeline, "parse_submission_filename", stop_while_grading)
    deadline = threading.Timer(20.0, stop.set)
    deadline.start()
    try:
        summary = session.watch_inbox(inbox, poll_interval=1.0, stop=stop)
    finally:
        deadline.cancel()
    received = [event["archive"] for event in read_log_events(session.log.path) if event["kind"] == "received"]
    assert summary.total == len(received) == 1, "only the archive in flight when stop was set is graded"
    assert sorted(path.name for path in inbox.iterdir()) == names, "the others stay in the inbox"


def test_watch_lists_a_burst_of_uploads_far_fewer_times_than_it_has_events(
    leap_spec, session_factory, tmp_path, monkeypatch
):
    session = session_factory(leap_spec)
    inbox, staging = tmp_path / "inbox", tmp_path / "staging"
    inbox.mkdir()
    staging.mkdir()
    for number in range(200):
        (staging / f"upload{number}.txt").write_text("not yet\n")
    watcher = _Watcher(session, inbox, 30.0, monkeypatch)
    try:
        first = len(watcher.listings)
        for number in range(100):
            os.replace(staging / f"upload{number}.txt", inbox / f"upload{number}.txt")
        time.sleep(0.3)
        second = len(watcher.listings)
        for number in range(100, 200):  # a trickle, about 1 ms apart
            os.replace(staging / f"upload{number}.txt", inbox / f"upload{number}.txt")
            time.sleep(0.001)
        time.sleep(0.3)
    finally:
        watcher.finish()
    assert 1 <= second - first <= 10, f"100 renames at once cost {second - first} listings"
    trickle = watcher.listings[second - 1 :]
    gaps = [later - earlier for earlier, later in zip(trickle, trickle[1:])]
    assert len(gaps) >= 2 and min(gaps) >= 0.009, f"listings woken by events came {min(gaps):.4f} s apart"


def test_watch_survives_uploads_that_fail_while_they_are_read(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    drop(inbox, "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})
    for name, part in LZMA_DAMAGE.items():
        (inbox / name).write_bytes(damaged_lzma_zip("main.cpp", source("leap_fast.cpp"), part))
    watcher = _Watcher(session, inbox, 1.0, monkeypatch)
    try:
        for name in LZMA_DAMAGE:
            assert _wait_for(session.quarantine_dir / f"{name}.reason.txt", 15.0), f"{name} was never quarantined"
        assert _wait_for(session.reports_dir / "Fast_Fred_3.report.json", 15.0), "the whole upload was never graded"
        assert watcher.thread.is_alive(), "the watcher died"
    finally:
        watcher.finish()
    summary = watcher.outcome["summary"]
    assert (summary.graded, summary.quarantined, summary.errored) == (1, 2, 0)
    for name in LZMA_DAMAGE:
        assert (session.quarantine_dir / f"{name}.reason.txt").read_text() == "corrupt-archive\n"


def test_watch_quarantines_a_dangling_link_once_its_window_has_passed(leap_spec, session_factory, tmp_path, monkeypatch):
    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    watcher = _Watcher(session, inbox, 1.0, monkeypatch)
    try:
        (inbox / "Dan_Gling_3.zip").symlink_to(tmp_path / "gone.zip")
        assert _wait_for(session.quarantine_dir / "Dan_Gling_3.zip.reason.txt", 15.0), "the link was never quarantined"
    finally:
        watcher.finish()
    assert watcher.outcome["summary"].quarantined == 1
    assert (session.quarantine_dir / "Dan_Gling_3.zip").is_symlink()
    assert (session.quarantine_dir / "Dan_Gling_3.zip.reason.txt").read_text() == "not-a-regular-file\n"
    assert kinds(session) == ["received", "quarantined"]


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
