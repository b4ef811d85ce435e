import json

import pytest

from gradepipe.cli import build_parser, main

from support import SPEC_PATH, make_zip, source


def run_dirs(tmp_path):
    return [
        "--reports-dir", str(tmp_path / "reports"),
        "--workspace-dir", str(tmp_path / "workspace"),
        "--quarantine-dir", str(tmp_path / "quarantine"),
        "--log", str(tmp_path / "grading.log"),
    ]


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


def test_grade_missing_archive_is_a_usage_error(tmp_path, capsys):
    rc = main(["grade", str(tmp_path / "absent.zip"), "--spec", str(SPEC_PATH), *run_dirs(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no such archive" in err


def test_grade_with_bad_spec_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("assignment: nope\n", encoding="utf-8")
    archive = tmp_path / "Ada_Lovelace_3.zip"
    make_zip(archive, {"main.cpp": source("leap_fast.cpp")})
    rc = main(["grade", str(archive), "--spec", str(bad), *run_dirs(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
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
    rc = main(["batch", str(tmp_path / "nowhere"), "--spec", str(SPEC_PATH), *run_dirs(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no such inbox" in err


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
        "watch", str(inbox), "--spec", str(SPEC_PATH), "--interval", "0.5", *run_dirs(tmp_path),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "at least 1 second" in err
    assert "watching" not in err


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
