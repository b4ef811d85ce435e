import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gradepipe
from gradepipe.assess import read_log_events
from gradepipe.child import LINGER_SECS
from gradepipe.cli import build_parser, main

from support import SPEC_PATH, calls, is_terminal, make_zip, source, stub_compiler, wait_until_dead


def run_dirs(tmp_path, log="grading.log"):
    return [
        "--reports-dir", str(tmp_path / "reports"),
        "--workspace-dir", str(tmp_path / "workspace"),
        "--quarantine-dir", str(tmp_path / "quarantine"),
        "--log", str(tmp_path / log),
    ]


# A refused command is given its log in a directory of its own, so the check sees that it made neither.
REFUSED_LOG = "logs/grading.log"


def nothing_logged(tmp_path):
    return not (tmp_path / REFUSED_LOG).exists() and not (tmp_path / REFUSED_LOG).parent.exists()


def test_parser_accepts_the_documented_commands():
    parser = build_parser()
    args = parser.parse_args(["grade", "Ada_Lovelace_3.zip", "--spec", "a.yaml"])
    assert args.command == "grade"
    args = parser.parse_args(["batch", "inbox", "--spec", "a.yaml", "--jobs", "2"])
    assert args.jobs == 2
    args = parser.parse_args(["watch", "inbox", "--spec", "a.yaml", "--interval", "5"])
    assert args.interval == 5.0
    args = parser.parse_args(["validate-spec", "a.yaml"])
    assert args.command == "validate-spec"


def test_parser_requires_a_command_and_a_spec(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["batch", "inbox"])
    capsys.readouterr()


def test_validate_spec_reports_ok(capsys):
    rc = main(["validate-spec", str(SPEC_PATH)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "ok (assignment 3, 1 rules, 4 tests)" in captured.out
    assert captured.err == ""


def test_validate_spec_rejects_a_backreference_naming_the_rule(tmp_path, capsys):
    spec = tmp_path / "twice.yaml"
    spec.write_text(
        "assignment: 3\n"
        "rules:\n"
        "  - id: doubled-word\n"
        "    pattern: '(\\w+) \\1'\n"
        "  - id: has-if\n"
        "    pattern: 'if\\s*\\('\n",
        encoding="utf-8",
    )
    rc = main(["validate-spec", str(spec)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "rules[0] (doubled-word)" in captured.err
    assert "a backreference is not supported" in captured.err
    assert "has-if" not in captured.err
    assert captured.out == ""


def test_validate_spec_lists_problems(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("assignment: -3\nsurprise: 1\n", encoding="utf-8")
    rc = main(["validate-spec", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown key 'surprise'" in err
    assert "assignment:" in err


def test_validate_spec_refuses_a_string_that_utf8_cannot_encode(tmp_path, capsys):
    # Such a spec used to print ok, then end every submission errored with a UnicodeEncodeError.
    text = SPEC_PATH.read_text(encoding="utf-8").replace('"Common year\\n"', '"Common\\ud800 year\\n"', 1)
    assert "ud800" in text
    bad = tmp_path / "surrogate.yaml"
    bad.write_text(text, encoding="utf-8")
    rc = main(["validate-spec", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "line 35" in captured.err or "tests[1].expected_stdout" in captured.err


def test_grade_prints_the_report(tmp_path, capsys):
    archive = tmp_path / "Ada_Lovelace_3.zip"
    make_zip(archive, {"main.cpp": source("leap_fast.cpp")})
    rc = main(["grade", str(archive), "--spec", str(SPEC_PATH), *run_dirs(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Student:    Ada Lovelace" in out
    assert "Score:      100.0/100" in out
    payload = json.loads((tmp_path / "reports" / "Ada_Lovelace_3.report.json").read_text(encoding="utf-8"))
    assert payload["score"] == 100.0


@pytest.mark.usefixtures("plain_environment")
def test_grade_of_one_archive_builds_no_pch_and_asks_no_version(tmp_path, capsys):
    # The stub logs each call, then compiles with the real g++.
    profile, log = stub_compiler(tmp_path, compile_step='exec g++ "$@"')
    spec = tmp_path / "stub.yaml"
    spec.write_text(SPEC_PATH.read_text(encoding="utf-8").replace(
        "command: [g++, -std=c++17, -O0,", f"command: ['{profile.command[0]}',"), encoding="utf-8")
    archive = make_zip(tmp_path / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})
    assert main(["grade", str(archive), "--spec", str(spec), *run_dirs(tmp_path)]) == 0
    assert "Score:      100.0/100" in capsys.readouterr().out
    assert calls(log) == ["compile unset"]
    assert list((tmp_path / "workspace").glob(".pch-*")) == []


def test_grade_missing_archive_is_a_usage_error(tmp_path, capsys):
    rc = main(["grade", str(tmp_path / "absent.zip"), "--spec", str(SPEC_PATH), *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err
    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "no such archive" in err


def test_grade_of_a_quarantined_archive_is_a_usage_error_and_moves_nothing(tmp_path, capsys):
    quarantine = tmp_path / "quarantine"
    quarantine.mkdir()
    (quarantine / "Ada_Lovelace_3.zip").write_bytes(b"PK\x03\x04 but the rest is nonsense")
    (quarantine / "Ada_Lovelace_3.zip.reason.txt").write_text("corrupt-archive\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in quarantine.iterdir()}

    archive = quarantine / "Ada_Lovelace_3.zip"
    rc = main(["grade", str(archive), "--spec", str(SPEC_PATH), *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err

    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "inbox must be distinct" in err
    assert {path.name: path.read_bytes() for path in quarantine.iterdir()} == before


def test_grade_of_a_file_that_is_not_a_zip_is_a_usage_error_and_moves_nothing(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text("not a submission\n", encoding="utf-8")

    rc = main(["grade", str(notes), "--spec", str(SPEC_PATH), *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err

    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "not a .zip archive" in err
    assert notes.read_text(encoding="utf-8") == "not a submission\n"
    assert not (tmp_path / "quarantine").exists()


def test_grade_of_a_fifo_prints_a_quarantined_report(tmp_path, capsys):
    fifo = tmp_path / "Fi_Fo_3.zip"
    os.mkfifo(fifo)

    rc = main(["grade", str(fifo), "--spec", str(SPEC_PATH), *run_dirs(tmp_path)])
    out = capsys.readouterr().out

    assert rc == 0
    assert "Status:     Quarantined" in out
    assert "Detail:     not-a-regular-file" in out
    assert not os.path.lexists(fifo)
    assert (tmp_path / "quarantine" / "Fi_Fo_3.zip.reason.txt").read_text() == "not-a-regular-file\n"


def test_grade_of_a_directory_is_a_usage_error_and_moves_nothing(tmp_path, capsys):
    directory = tmp_path / "X_Y_3.zip"
    directory.mkdir()
    (directory / "main.cpp").write_text(source("leap_fast.cpp"), encoding="utf-8")

    rc = main(["grade", str(directory), "--spec", str(SPEC_PATH), *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err

    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "a directory, not an archive" in err
    assert [path.name for path in directory.iterdir()] == ["main.cpp"]
    assert not (tmp_path / "quarantine").exists()


def test_grade_with_bad_spec_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("assignment: nope\n", encoding="utf-8")
    archive = tmp_path / "Ada_Lovelace_3.zip"
    make_zip(archive, {"main.cpp": source("leap_fast.cpp")})
    rc = main(["grade", str(archive), "--spec", str(bad), *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err
    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "invalid assignment spec" in err


def test_batch_prints_summary_and_quarantines(tmp_path, capsys):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    make_zip(inbox / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_fast.cpp")})
    make_zip(inbox / "BadName.zip", {"main.cpp": source("leap_fast.cpp")})
    (inbox / "stray.txt").write_text("not a submission\n", encoding="utf-8")

    rc = main(["batch", str(inbox), "--spec", str(SPEC_PATH), *run_dirs(tmp_path)])
    out = capsys.readouterr().out

    assert rc == 0
    assert "graded 1, quarantined 1, errored 0, ignored 1" in out
    assert (tmp_path / "quarantine" / "BadName.zip").exists()


def test_batch_missing_inbox_is_a_usage_error(tmp_path, capsys):
    rc = main(["batch", str(tmp_path / "nowhere"), "--spec", str(SPEC_PATH), *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err
    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "no such inbox" in err


def test_batch_of_the_quarantine_is_a_usage_error_and_moves_nothing(tmp_path, capsys):
    quarantine = tmp_path / "quarantine"
    make_zip(quarantine / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_fast.cpp")})
    (quarantine / "Ada_Lovelace_3.zip.reason.txt").write_text("corrupt-archive\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in quarantine.iterdir()}

    rc = main(["batch", str(quarantine), "--spec", str(SPEC_PATH), *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err

    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "inbox must be distinct" in err
    assert {path.name: path.read_bytes() for path in quarantine.iterdir()} == before
    assert not (tmp_path / "reports").exists()


def test_batch_with_environment_failure_exits_nonzero(tmp_path, capsys):
    spec = tmp_path / "toolchain-broken.yaml"
    spec.write_text(
        "assignment: 3\n"
        "compiler:\n"
        "  command: [g++-that-does-not-exist, '{sources}', -o, '{output}']\n",
        encoding="utf-8",
    )
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    make_zip(inbox / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_fast.cpp")})

    rc = main(["batch", str(inbox), "--spec", str(spec), *run_dirs(tmp_path)])
    out = capsys.readouterr().out

    assert rc == 1
    assert "errored 1" in out


def test_watch_rejects_sub_second_interval(tmp_path, capsys):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    rc = main([
        "watch", str(inbox), "--spec", str(SPEC_PATH), "--interval", "0.5", *run_dirs(tmp_path, REFUSED_LOG),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "at least 1 second" in err
    assert "watching" not in err


@pytest.mark.parametrize("interval", ["nan", "inf"])
def test_watch_rejects_an_interval_that_is_not_finite(tmp_path, capsys, monkeypatch, interval):
    def watch_inbox(*args, **kwargs):
        raise AssertionError("watch started")  # fail at once rather than watch forever

    monkeypatch.setattr(gradepipe.pipeline.GradingSession, "watch_inbox", watch_inbox)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    rc = main(["watch", str(inbox), "--spec", str(SPEC_PATH), "--interval", interval, *run_dirs(tmp_path, REFUSED_LOG)])
    err = capsys.readouterr().err
    assert rc == 2
    assert nothing_logged(tmp_path)
    assert "must be finite" in err
    assert "watching" not in err


def test_validate_spec_rejects_an_infinite_timeout(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_text("assignment: 2\ntests:\n  - id: t\n    expected_stdout: ok\n    timeout_secs: .inf\n")
    rc = main(["validate-spec", str(spec)])
    assert rc == 2
    assert "tests[0] (t): timeout_secs must be a finite number" in capsys.readouterr().err


def test_unwritable_log_is_a_fatal_error(tmp_path, capsys):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    rc = main([
        "batch", str(inbox), "--spec", str(SPEC_PATH),
        "--log", str(tmp_path),  # a directory cannot be a log file
        "--reports-dir", str(tmp_path / "reports"),
        "--workspace-dir", str(tmp_path / "workspace"),
        "--quarantine-dir", str(tmp_path / "quarantine"),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert "fatal" in err


def test_batch_with_default_relative_dirs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    make_zip(tmp_path / "inbox" / "Ada_Lovelace_3.zip", {"main.cpp": source("leap_nested.cpp")})

    rc = main(["batch", "inbox", "--spec", str(SPEC_PATH)])
    out = capsys.readouterr().out

    assert rc == 0
    assert "graded 1" in out
    payload = json.loads((tmp_path / "reports" / "Ada_Lovelace_3.report.json").read_text(encoding="utf-8"))
    assert payload["score"] == 100.0


def test_main_restores_the_sigint_and_sigterm_handlers(tmp_path, capsys):
    before = {signum: signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)}
    (tmp_path / "inbox").mkdir()
    assert main(["batch", str(tmp_path / "inbox"), "--spec", str(SPEC_PATH), *run_dirs(tmp_path)]) == 0
    capsys.readouterr()
    assert {signum: signal.getsignal(signum) for signum in before} == before


def _child_named(pid, name):
    """The pid of a running child of ``pid`` whose command is ``name``, or None."""
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                text = stat.read()
        except (OSError, ValueError):
            continue
        comm, rest = text[text.index("(") + 1 :].rsplit(")", 1)
        if comm == name and int(rest.split()[1]) == pid:
            return int(entry)
    return None


def test_batch_stops_on_sigterm_and_leaves_no_program_running(tmp_path):
    # One test of the spec, with its 2 s limit, so an in-flight hang ends within 2 s.
    text = SPEC_PATH.read_text(encoding="utf-8")
    spec = tmp_path / "one-test.yaml"
    spec.write_text(text[: text.index("  - id: year-1900")], encoding="utf-8")
    timeout = 2.0
    inbox = tmp_path / "inbox"
    make_zip(inbox / "Hang_Harry_3.zip", {"main.cpp": source("leap_hang.cpp")})
    make_zip(inbox / "Later_Lucy_3.zip", {"main.cpp": source("leap_nested.cpp")})
    src = Path(gradepipe.__file__).parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradepipe.cli", "batch", str(inbox), "--spec", str(spec), "--jobs", "1",
         *run_dirs(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while (program := _child_named(proc.pid, "program")) is None:
            assert proc.poll() is None, "the batch ended before the hanging program started"
            assert time.monotonic() < deadline, "the hanging program never started"
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        sent = time.monotonic()
        out, _ = proc.communicate(timeout=timeout + LINGER_SECS + 10)
        assert time.monotonic() - sent < timeout + LINGER_SECS + 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert wait_until_dead(program), "the hanging program outlived the grader"
    assert proc.returncode == 0
    assert out.splitlines() == ["graded 1, quarantined 0, errored 0"]
    assert sorted(path.name for path in (tmp_path / "reports").iterdir()) == [
        "Hang_Harry_3.report.json", "Hang_Harry_3.report.txt"
    ], "no archive starts after SIGTERM"
    assert sorted(path.name for path in inbox.iterdir()) == ["Hang_Harry_3.zip", "Later_Lucy_3.zip"]


def _short_spec(tmp_path):
    """The fixture spec with 0.5 s test timeouts: a spinning program is graded within about 2 s."""
    spec = tmp_path / "short.yaml"
    spec.write_text(SPEC_PATH.read_text(encoding="utf-8").replace("timeout_secs: 2\n", "timeout_secs: 0.5\n"),
                    encoding="utf-8")
    return spec


def _running_programs_under(root):
    """The pids of live processes whose executable lies under ``root``."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            exe = os.readlink(f"/proc/{entry}/exe")
        except OSError:  # gone, a zombie, or not ours to read
            continue
        if exe.startswith(f"{root}/") and not wait_until_dead(int(entry), within=0.5):
            pids.append(int(entry))  # killed by wait_until_dead, so none is left behind
    return pids


def _interrupted_cli(tmp_path, args, signals):
    """Run the CLI with ``args``; once a student program runs, send SIGINT ``signals`` times, 0.3 s apart.

    Returns the exit code and stdout, after checking that the CLI exited within its
    time limits, that no student program outlived it and that no build dir is left.
    """
    src = Path(gradepipe.__file__).parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradepipe.cli", *args, "--spec", str(_short_spec(tmp_path)), *run_dirs(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while _child_named(proc.pid, "program") is None:
            assert proc.poll() is None, "the grader ended before the spinning program started"
            assert time.monotonic() < deadline, "the spinning program never started"
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        for _ in range(signals - 1):
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert _running_programs_under(tmp_path) == [], "a student program outlived the grader"
    assert [path.name for path in (tmp_path / "workspace").iterdir() if not path.name.startswith(".pch-")] == []
    assert "Traceback" not in err
    return proc.returncode, out


def _terminal_events_per_receipt(log):
    events = read_log_events(log)
    received = [event["archive"] for event in events if event["kind"] == "received"]
    return {
        archive: sum(
            1 for event in events
            if is_terminal(event) and archive in (event.get("archive"), f"{event.get('submission')}.zip")
        )
        for archive in received
    }


def test_batch_stops_on_two_sigints_like_on_sigterm(tmp_path):
    inbox = tmp_path / "inbox"
    for name in ("Hang_Hana_3.zip", "Hang_Harry_3.zip", "Hang_Hugo_3.zip"):
        make_zip(inbox / name, {"main.cpp": source("leap_hang.cpp")})

    returncode, out = _interrupted_cli(tmp_path, ["batch", str(inbox), "--jobs", "1"], signals=2)

    assert returncode == 0
    assert out.splitlines() == ["graded 1, quarantined 0, errored 0"]
    assert _terminal_events_per_receipt(tmp_path / "grading.log") == {"Hang_Hana_3.zip": 1}
    assert sorted(path.name for path in inbox.iterdir()) == ["Hang_Hana_3.zip", "Hang_Harry_3.zip", "Hang_Hugo_3.zip"]


def test_grade_finishes_and_prints_its_report_on_sigint(tmp_path):
    archive = make_zip(tmp_path / "inbox" / "Hang_Harry_3.zip", {"main.cpp": source("leap_hang.cpp")})

    returncode, out = _interrupted_cli(tmp_path, ["grade", str(archive)], signals=1)

    assert returncode == 0
    assert "Status:     Graded" in out
    assert "Black-box tests: 0/4 passed" in out
    assert _terminal_events_per_receipt(tmp_path / "grading.log") == {"Hang_Harry_3.zip": 1}
