"""Command-line front end.

Subcommands mirror the three ways a course actually runs grading (one file,
one directory, or a long-lived watcher) plus a spec linter for instructors:

    gradepipe grade Ada_Lovelace_3.zip --spec assignment3.yaml
    gradepipe batch inbox/ --spec assignment3.yaml
    gradepipe watch inbox/ --spec assignment3.yaml --interval 5
    gradepipe validate-spec assignment3.yaml

Exit status is 0 only when no submission ended up Errored; student mistakes
(quarantines, failed tests) are normal outcomes, not tool failures.

Ctrl-C (SIGINT) and SIGTERM are one request, and they stop every subcommand
cleanly: nothing new is started, and what is in flight finishes within its
own time limits, so no compiler or student binary outlives the grader. A
repeated signal changes nothing; only SIGKILL abandons work in flight.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .assess import GradingLogError, ReportStatus, render_report_text
from .ingest import ARCHIVE_SUFFIX
from .pipeline import DEFAULT_POLL_INTERVAL, SCANS_PER_INTERVAL, BatchSummary, GradingSession, check_inbox
from .specfile import SpecError, load_spec


# How `watch` picks uploads up; the --interval help and the start-up banner both say it.
WATCH_RULE = (
    "an upload is graded as soon as a listing finds it to be a whole zip whose entries pass their CRC check, "
    "else once it has stayed unchanged for {interval}; the inbox is listed on each Linux inotify event where "
    f"the filesystem raises them, and {SCANS_PER_INTERVAL} times per interval in any case"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradepipe",
        description="Hybrid autograder: black-box I/O tests fused with lexical rule checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--spec", required=True, type=Path, metavar="FILE",
                          help="assignment spec file (YAML)")
    run_opts.add_argument("--reports-dir", type=Path, default=Path("reports"), metavar="DIR",
                          help="where report files are written (default: ./reports)")
    run_opts.add_argument("--workspace-dir", type=Path, default=Path("workspace"), metavar="DIR",
                          help="root for per-submission build directories (default: ./workspace)")
    run_opts.add_argument("--quarantine-dir", type=Path, default=Path("quarantine"), metavar="DIR",
                          help="where rejected archives are moved (default: ./quarantine)")
    run_opts.add_argument("--log", type=Path, default=Path("grading.log"), metavar="FILE",
                          help="append-only JSONL audit log (default: ./grading.log)")
    run_opts.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="max submissions graded in parallel (default: CPU count, capped at 8)")

    p_grade = sub.add_parser("grade", parents=[run_opts], help="grade a single submission archive")
    p_grade.add_argument("archive", type=Path, help="First_Last_N.zip archive to grade")

    p_batch = sub.add_parser("batch", parents=[run_opts], help="grade every archive in an inbox directory")
    p_batch.add_argument("inbox", type=Path, help="directory of submission archives")

    p_watch = sub.add_parser("watch", parents=[run_opts], help="poll an inbox and grade archives as they arrive")
    p_watch.add_argument("inbox", type=Path, help="directory to poll for submission archives")
    p_watch.add_argument("--interval", type=float, default=DEFAULT_POLL_INTERVAL, metavar="SECS",
                         help=WATCH_RULE.format(interval="this many seconds") + " (default: 30, minimum 1)")

    p_validate = sub.add_parser("validate-spec", help="check an assignment spec file and list every problem")
    p_validate.add_argument("spec_file", type=Path, help="spec file to validate")

    return parser


def _print_summary(summary: BatchSummary) -> None:
    parts = [
        f"graded {summary.graded}",
        f"quarantined {summary.quarantined}",
        f"errored {summary.errored}",
    ]
    if summary.superseded:
        parts.append(f"superseded {summary.superseded}")
    if summary.ignored:
        parts.append(f"ignored {summary.ignored}")
    print(", ".join(parts))


def _cmd_validate(spec_file: Path) -> int:
    try:
        spec = load_spec(spec_file)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(
        f"{spec_file}: ok (assignment {spec.assignment_number}, "
        f"{len(spec.rules)} rules, {len(spec.tests)} tests)"
    )
    return 0


@contextmanager
def _signals_set(stop: threading.Event) -> Iterator[None]:
    """Within the block, SIGINT (Ctrl-C) and SIGTERM both set ``stop`` instead of ending the process."""
    if threading.current_thread() is not threading.main_thread():
        yield  # only the main thread may install a handler; signal handling stays as it is
        return

    def handler(signum: int, frame: object) -> None:
        stop.set()

    previous = {signum: signal.signal(signum, handler) for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        yield
    finally:
        for signum, prior in previous.items():
            signal.signal(signum, signal.SIG_DFL if prior is None else prior)


def _check_inputs(args: argparse.Namespace) -> None:
    """Raise ValueError for an input the command refuses, before anything is opened or written."""
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    session_dirs = (args.workspace_dir, args.reports_dir, args.quarantine_dir)
    if args.command == "grade":
        # Only a path that is not there or is a directory is refused: anything else, a FIFO or a link say,
        # is graded as batch would grade it, and quarantined if it is not a regular file.
        if not os.path.lexists(args.archive):
            raise ValueError(f"no such archive: {args.archive}")
        if args.archive.is_dir() and not args.archive.is_symlink():
            raise ValueError(f"a directory, not an archive: {args.archive}")
        # Refused, moving nothing, as batch would leave it where it is.
        if args.archive.suffix.lower() != ARCHIVE_SUFFIX:
            raise ValueError(f"not a {ARCHIVE_SUFFIX} archive: {args.archive}")
        check_inbox(args.archive.parent, session_dirs)
    elif not args.inbox.is_dir():
        raise ValueError(f"no such inbox directory: {args.inbox}")
    else:
        check_inbox(args.inbox, session_dirs, args.interval if args.command == "watch" else None)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate-spec":
        return _cmd_validate(args.spec_file)

    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        _check_inputs(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stop = threading.Event()
    try:
        with _signals_set(stop), GradingSession(
            spec,
            workspace_root=args.workspace_dir,
            reports_dir=args.reports_dir,
            quarantine_dir=args.quarantine_dir,
            log_path=args.log,
            jobs=args.jobs,
        ) as session:
            if args.command == "grade":
                report = session.grade_archive(args.archive)
                sys.stdout.write(render_report_text(report))
                return 1 if report.status is ReportStatus.ERRORED else 0
            if args.command == "batch":
                summary = session.run_batch(args.inbox, stop)
            else:
                rule = WATCH_RULE.format(interval=f"{args.interval:g} s")
                print(f"watching {args.inbox}: {rule}; Ctrl-C to stop", file=sys.stderr)
                summary = session.watch_inbox(args.inbox, args.interval, stop)
            _print_summary(summary)
            return 1 if summary.errored else 0
    except GradingLogError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
