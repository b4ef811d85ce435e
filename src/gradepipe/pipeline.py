"""End-to-end grading pipeline.

A :class:`GradingSession` owns the directories and the audit log for one
grading run. Batch and watch mode hand archives in through one loop,
and each submission takes the same path: validate the filename, unpack
under limits, compile, apply lexical rules, run black-box tests and score.
It leaves through one exit in exactly one terminal state (Graded,
Quarantined, Errored), where only the newest receipt of a submission that
has ended so far writes the report pair. Nothing a student uploads can
abort a session; only an unwritable audit log stops the batch, loudly,
because grades without an audit trail are worse than no grades. Otherwise
a batch or a watch stops only when its caller sets the ``stop`` event it
was given, as the CLI does on SIGINT and SIGTERM.

On disk a run looks like::

    inbox/                     student uploads, watched or batch-read
    workspace/.session-X/      the session's own directory, removed when it closes:
        First_Last_N.S/        build dir of receipt S, removed once its submission ends
        .pch-H/                build of header H's PCH
    reports/First_Last_N.report.txt and .report.json
    quarantine/                rejected archives plus *.reason.txt files
    grading.log                append-only JSONL event log
"""

from __future__ import annotations

import itertools
import math
import os
import select
import shutil
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .assess import (
    EVENT_COMPILE_ERROR,
    EVENT_ERRORED,
    EVENT_GRADED,
    EVENT_IGNORED,
    EVENT_QUARANTINED,
    EVENT_RECEIVED,
    EVENT_SUPERSEDED,
    AssessmentReport,
    GradingLog,
    GradingLogError,
    ReportStatus,
    render_report_json,
    render_report_text,
    score_submission,
)
from .blackbox import SpawnFailure, run_test_suite
from .build import CompilerNotFound, PrecompiledHeaders, compile_workspace
from .ingest import (
    ARCHIVE_SUFFIX,
    ArchiveRejected,
    InboxScanner,
    MalformedName,
    SubmissionRecord,
    archive_owner,
    extract_archive,
    list_inbox,
    parse_submission_filename,
    quarantine_archive,
    utc_now,
)
from .lexcheck import collect_sources, evaluate_ruleset
from .specfile import AssignmentSpec

REASON_WRONG_ASSIGNMENT = "wrong-assignment"
REASON_REPORT_UNWRITABLE = "report-unwritable"

DEFAULT_POLL_INTERVAL = 30.0
MIN_POLL_INTERVAL = 1.0
# Watch mode lists the inbox when Linux inotify says a file was written or
# moved into it, and this many times per poll interval in any case, so an
# upload that raised no event is seen a quarter interval after it lands.
SCANS_PER_INTERVAL = 4
_STOP_CHECK_SECS = 0.1  # a wait notices ``stop`` within this
_IN_CLOSE_WRITE = 0x08  # from <sys/inotify.h>
_IN_MOVED_TO = 0x80


def _is_archive(path: Path) -> bool:
    return path.suffix.lower() == ARCHIVE_SUFFIX


def check_inbox(inbox: Path, session_dirs: Iterable[Path], poll_interval: float | None = None) -> Path:
    """The absolute ``inbox`` that a run over ``session_dirs`` would list.

    Raises ValueError if the inbox is one of the session's workspace, reports
    and quarantine directories, or, given a watch's ``poll_interval``, if
    that is not a finite number of at least ``MIN_POLL_INTERVAL`` seconds.
    Nothing is opened or written, so a caller can refuse before it starts.
    """
    if poll_interval is not None and not MIN_POLL_INTERVAL <= poll_interval < math.inf:  # NaN fails both
        raise ValueError(f"poll interval must be finite and at least {MIN_POLL_INTERVAL:g} second, "
                         f"got {poll_interval:g}")
    inbox = Path(inbox).absolute()
    if inbox.resolve() in {path.resolve() for path in session_dirs}:
        raise ValueError("inbox must be distinct from the workspace, reports and quarantine directories")
    return inbox


def _same_file(path: Path, stat: os.stat_result) -> bool:
    """Whether the entry at ``path`` itself is the file ``stat`` describes; a link to it is not."""
    try:
        return os.path.samestat(path.lstat(), stat)
    except OSError:  # gone since it was listed
        return False


def _inbox_events(inbox: Path) -> int | None:
    """A non-blocking inotify fd, readable once a file is written or moved into ``inbox``; None without inotify."""
    import ctypes  # only watch mode pays for it

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        fd = libc.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
    except (OSError, AttributeError):
        return None
    if fd < 0:
        return None
    if libc.inotify_add_watch(fd, os.fsencode(inbox), _IN_CLOSE_WRITE | _IN_MOVED_TO) < 0:
        os.close(fd)
        return None
    return fd


def _wait_for_inbox(events: int | None, wake: int, stop: threading.Event, deadline: float) -> bool:
    """Wait until ``deadline`` on ``time.monotonic``, until ``stop`` is set, for an inbox event, or for ``wake``.

    Returns True only when ``wake``, an eventfd that each finished archive
    writes to, ended the wait: a grading ended, and the inbox needs no new
    listing. An inbox event is only a cue to list, so its queue is drained
    unread, and the wait ends at once. With ``events`` None only ``wake``
    and the deadline end the wait.
    """
    watched = [wake] if events is None else [wake, events]
    while not stop.is_set() and (left := deadline - time.monotonic()) > 0:
        if ready := select.select(watched, [], [], min(left, _STOP_CHECK_SECS))[0]:
            os.read(ready[0], 64 * 1024)  # the eventfd's count, or a few thousand events; any left wake the next wait
            return ready[0] == wake
    return False


@dataclass
class BatchSummary:
    graded: int = 0
    quarantined: int = 0
    errored: int = 0
    superseded: int = 0
    ignored: int = 0

    def record(self, report: AssessmentReport) -> None:
        if report.status is ReportStatus.GRADED:
            self.graded += 1
        elif report.status is ReportStatus.QUARANTINED:
            self.quarantined += 1
        elif report.status is ReportStatus.SUPERSEDED:
            self.superseded += 1
        else:
            self.errored += 1

    @property
    def total(self) -> int:
        return self.graded + self.quarantined + self.errored + self.superseded


@dataclass(frozen=True, order=True)
class Receipt:
    """When the session took an archive in, in latest-wins order.

    ``at`` is the receipt time the report shows (UTC, whole seconds);
    ``seq`` counts receipts across the session, so of two archives received
    in the same second the one found later is the newer.
    """

    at: datetime
    seq: int


class GradingSession:
    """One grading run: shared directories, audit log, and duplicate tracking.

    Sessions are safe to drive from multiple threads; per-submission state
    never leaves the submission, and the log and the latest-wins registry
    are the only shared mutable pieces.
    """

    def __init__(
        self,
        spec: AssignmentSpec,
        *,
        workspace_root: Path = Path("workspace"),
        reports_dir: Path = Path("reports"),
        quarantine_dir: Path = Path("quarantine"),
        log_path: Path = Path("grading.log"),
        jobs: int | None = None,
    ):
        if jobs is not None and (not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1):
            raise ValueError(f"jobs must be a positive int or None, got {jobs!r}")
        self.spec = spec
        # Made absolute once, against the working directory at start-up: the
        # test runner starts a binary from inside its workspace, where a
        # relative path would be resolved a second time.
        self.workspace_root = Path(workspace_root).absolute()
        self.reports_dir = Path(reports_dir).absolute()
        self.quarantine_dir = Path(quarantine_dir).absolute()
        self.jobs = jobs or min(8, os.cpu_count() or 1)
        self.log = GradingLog(Path(log_path).absolute())
        self._log_stat = self.log.path.stat()  # how _run knows the log in an inbox, however its path is spelled
        # Named, not made: extraction and the header builds make it, so a session that grades nothing makes nothing.
        self._dir = self.workspace_root / f".session-{os.urandom(8).hex()}"
        self._pch = PrecompiledHeaders(self._dir)
        self._receipts = itertools.count()
        self._receipt_lock = threading.Lock()
        self._stamped = datetime.min.replace(tzinfo=timezone.utc)  # the latest time _receive took from the clock
        self._registry: dict[str, Receipt] = {}
        self._registry_lock = threading.Lock()

    def close(self) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)
        self.log.close()

    def __enter__(self) -> GradingSession:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- single submission ------------------------------------------------

    def grade_archive(
        self, archive_path: Path, received_at: datetime | Receipt | None = None
    ) -> AssessmentReport:
        """Grade one archive through the full pipeline.

        ``received_at`` is the receipt time (now, if omitted), or the
        :class:`Receipt` that the session stamped when its own listing
        found the archive. Always returns a finished report;
        student-caused problems become Quarantined, environment problems
        become Errored. Only :class:`GradingLogError` escapes, and a
        ``received_at`` that is neither a timezone-aware datetime nor a
        :class:`Receipt` raises ValueError before anything is logged or moved.
        """
        if not (received_at is None or isinstance(received_at, Receipt)
                or isinstance(received_at, datetime) and received_at.utcoffset() is not None):
            raise ValueError(f"received_at must be a timezone-aware datetime or a Receipt, got {received_at!r}")
        archive_path = Path(archive_path)
        receipt = received_at if isinstance(received_at, Receipt) else self._receive(received_at)
        return self._grade(archive_path, receipt)

    def _receive(self, at: datetime | None = None) -> Receipt:
        """Stamp an archive as received now (or at ``at``), after every earlier receipt.

        A time the session takes itself is never earlier than the one before,
        so a wall clock stepped back cannot make a later upload the older.
        """
        with self._receipt_lock:
            if at is None:
                at = self._stamped = max(utc_now(), self._stamped)
            return Receipt(at, next(self._receipts))

    def _grade(self, archive_path: Path, receipt: Receipt) -> AssessmentReport:
        """Run the stages in order; the cause that stops them, if any, decides the terminal state.

        Every exit but an unwritable log ends in the one :meth:`_finish`, with this report and its identity.
        """
        owner = archive_owner(archive_path)
        self.log.append(EVENT_RECEIVED, receipt.at, archive=archive_path.name, owner=owner)
        report = AssessmentReport(None, archive_path.name, receipt.at, owner, scale=self.spec.rubric.scale)
        status, reason, message = ReportStatus.GRADED, "", ""
        workspace: Path | None = None
        try:
            try:
                identity = report.identity = parse_submission_filename(archive_path.name)
                if identity.assignment_number != self.spec.assignment_number:
                    raise ArchiveRejected(
                        REASON_WRONG_ASSIGNMENT,
                        f"archive is for assignment {identity.assignment_number}, "
                        f"this session grades assignment {self.spec.assignment_number}",
                    )
                # A "." cannot occur in a stem, which starts with a letter, so no other submission
                # or .pch-* directory can take this name, and two archives of one submission never share a tree.
                workspace = self._dir / f"{identity.stem()}.{receipt.seq}"
                files = extract_archive(SubmissionRecord(archive_path), self.spec.extraction, workspace)
                if isinstance(files, ArchiveRejected):
                    raise files
                compile_result = report.compile_result = compile_workspace(workspace, self.spec.compiler, files, self._pch)
                if not compile_result.succeeded:
                    self.log.append(
                        EVENT_COMPILE_ERROR,
                        utc_now(),
                        submission=identity.stem(),
                        diagnostics=[d.text for d in compile_result.diagnostics],
                    )
                # Lexical rules read source text, so they apply whether or not the
                # build succeeded; behaviour tests need a binary.
                report.lexical = evaluate_ruleset(self.spec.rules, collect_sources(workspace, files))
                if compile_result.succeeded:
                    assert compile_result.output_path is not None
                    report.blackbox = run_test_suite(
                        compile_result.output_path, self.spec.tests, self.spec.normalization, self.spec.output_cap
                    )
                report.score = score_submission(compile_result, report.lexical, report.blackbox, self.spec.rubric)
            except ArchiveRejected as exc:
                status, reason, message = ReportStatus.QUARANTINED, exc.reason, str(exc)
                if isinstance(exc, MalformedName):
                    reason = f"malformed-name:{reason}"
                quarantine_archive(archive_path, reason, self.quarantine_dir)
            except CompilerNotFound as exc:
                status, reason, message = ReportStatus.ERRORED, "compiler-not-found", str(exc)
            except SpawnFailure as exc:
                status, reason, message = ReportStatus.ERRORED, "spawn-failure", str(exc)
        except GradingLogError:
            raise
        # Outside the handlers above, so that it also ends a quarantine move that fails.
        except Exception as exc:  # noqa: BLE001 - one submission must not sink the batch
            status, reason, message = ReportStatus.ERRORED, f"internal-error:{type(exc).__name__}", str(exc)
        finally:
            # With whatever the tests wrote into it: disk use is bounded by the submissions in flight.
            if workspace is not None:
                shutil.rmtree(workspace, ignore_errors=True)
        return self._finish(report, receipt, status, reason, message)

    # -- terminal states ---------------------------------------------------

    def _finish(
        self, report: AssessmentReport, receipt: Receipt, status: ReportStatus, reason: str = "", message: str = ""
    ) -> AssessmentReport:
        """End a submission: resolve latest-wins, write its pair, append its one terminal event.

        Only the newest receipt of a stem that has ended so far writes its
        pair, whatever its status; an older one writes nothing and keeps its
        status, but Graded becomes Superseded. Receipts order by time, then
        by the order the session found them, so the pair on disk does not
        depend on which grading finishes first. Only a written pair takes
        over the registry and logs the replacement.
        """
        report.status = status
        report.detail = reason
        now = report.generated_at = utc_now()
        report.check_invariants()
        stem = report.identity.stem() if report.identity else None
        if stem is not None:
            with self._registry_lock:
                prior = self._registry.get(stem)
                if prior is not None and prior > receipt:
                    if report.status is ReportStatus.GRADED:
                        report.status = ReportStatus.SUPERSEDED
                elif (failure := self._write_report_files(report, stem)) is not None:
                    message = failure
                else:
                    if prior is not None:
                        replaced = prior.at.isoformat()
                        self.log.append(EVENT_SUPERSEDED, now, submission=stem, superseded_received_at=replaced)
                    self._registry[stem] = receipt
        if report.status in (ReportStatus.GRADED, ReportStatus.SUPERSEDED):
            kind = EVENT_GRADED if report.status is ReportStatus.GRADED else EVENT_SUPERSEDED
            self.log.append(kind, now, submission=stem, score=report.score, status=report.status.value)
        else:
            kind = EVENT_QUARANTINED if report.status is ReportStatus.QUARANTINED else EVENT_ERRORED
            self.log.append(kind, now, archive=report.archive_name, submission=stem, reason=report.detail, message=message)
        return report

    def _write_report_files(self, report: AssessmentReport, stem: str) -> str | None:
        """Write the report pair; if that fails, mark the report Errored and return why.

        Both halves go to temporary files in the reports directory and are
        renamed over the previous pair only once both are written, so a
        failed write leaves the previous pair as it was and no partial file.
        """
        # Unique per process and thread, since a thread writes one pair at a
        # time, and not named after the stem, which may leave no room in NAME_MAX.
        tag = f"{os.getpid()}.{threading.get_ident()}.tmp"
        written: list[tuple[Path, Path]] = []
        try:
            self.reports_dir.mkdir(parents=True, exist_ok=True)
            for suffix, render in ((".report.txt", render_report_text), (".report.json", render_report_json)):
                final = self.reports_dir / f"{stem}{suffix}"
                temp = self.reports_dir / f"{suffix}.{tag}"
                written.append((temp, final))
                temp.write_text(render(report), encoding="utf-8")
            for temp, final in written:
                os.replace(temp, final)
        except OSError as exc:
            report.status = ReportStatus.ERRORED
            report.detail = REASON_REPORT_UNWRITABLE
            report.score = None
            return str(exc)
        finally:
            for temp, _ in written:
                temp.unlink(missing_ok=True)
        return None

    # -- batch and watch ----------------------------------------------------

    def _run(self, listings: Iterable[list[Path]], stop: threading.Event, wake: int | None = None) -> BatchSummary:
        """Grade each listing's archives on up to ``jobs`` workers, in listing order, and return counts.

        A ``.zip`` is stamped as it is listed and joins a backlog; any other
        entry is logged as ignored, except the session's own log, which is
        skipped. Only the calling thread starts archives, after each listing and
        as each archive finishes: it first counts every finished submission,
        dropping each report once counted, then, while ``stop`` is unset, hands
        the pool archives from the backlog until ``jobs`` are in flight. So the
        pool never holds an archive that has not started, and ``stop`` is
        checked on this thread just before each start: a signal handler, which
        Python runs on the main thread, sets it before a run driven from there
        starts anything more. Each archive that finishes writes to ``wake``, a
        watch's eventfd, so the watch yields an empty listing at once, which
        counts it and refills its worker. The run ends when the listings
        do and nothing is in flight. An exception from a submission (an
        unwritable log) or raised while the run waits (Ctrl-C, where the caller
        installed no handler for it) propagates once those in flight have
        finished, and the backlog is never started.
        """
        summary = BatchSummary()
        backlog: deque[tuple[Path, Receipt]] = deque()
        pending: set[Future[AssessmentReport]] = set()

        def count(timeout: float | None) -> None:
            """Count what has finished, waiting up to ``timeout`` s (None: without limit) for the first; then refill."""
            nonlocal pending
            done, pending = wait(pending, timeout, FIRST_COMPLETED)
            while done:  # one at a time, so each report is freed before the next is counted
                summary.record(done.pop().result())
            while backlog and len(pending) < self.jobs and not stop.is_set():
                future = executor.submit(self.grade_archive, *backlog.popleft())
                if wake is not None:
                    future.add_done_callback(lambda _: os.eventfd_write(wake, 1))
                pending.add(future)

        with ThreadPoolExecutor(max_workers=self.jobs) as executor:
            for listing in listings:
                for path in listing:
                    if _same_file(path, self._log_stat):
                        continue
                    if _is_archive(path):
                        backlog.append((path, self._receive()))
                    else:
                        self.log.append(EVENT_IGNORED, utc_now(), archive=path.name, reason="not-a-zip-archive")
                        summary.ignored += 1
                count(0)
            while pending:
                count(None)
        return summary

    def run_batch(self, inbox: Path, stop: threading.Event | None = None) -> BatchSummary:
        """Grade every archive currently in the inbox, then return counts.

        A one-shot pass takes the inbox as-is (no upload debouncing, unlike
        watch mode) in name order, through the loop watch mode uses: a
        file without a .zip suffix is logged as ignored and left untouched,
        and of two archives of one submission the later name is the newer.
        Submissions grade in parallel up to ``jobs`` workers. Once ``stop``
        is set, or a submission raises, nothing more starts; those in flight
        finish, and the rest stay in the inbox uncounted. Raises ValueError,
        moving nothing, for an inbox that is the workspace, reports or
        quarantine directory.
        """
        entries = list_inbox(check_inbox(inbox, (self.workspace_root, self.reports_dir, self.quarantine_dir)))
        self._pch.expect(sum(map(_is_archive, entries)))
        try:
            return self._run([entries], stop or threading.Event())
        finally:
            self._pch.expect(0)

    def watch_inbox(
        self,
        inbox: Path,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        stop: threading.Event | None = None,
    ) -> BatchSummary:
        """Watch the inbox until ``stop`` is set, grading archives as they settle.

        The inbox is listed as soon as Linux inotify reports a file written
        or moved into it, and ``SCANS_PER_INTERVAL`` times per interval in
        any case, which is all there is without inotify or on a filesystem
        (NFS) that raises no events; there is no setting for it.
        A file is picked up at the first listing if it is one whole zip
        whose entries pass their CRC check, else once every listing over
        ``poll_interval`` seconds has seen its size and mtime unchanged (see
        :class:`InboxScanner`), so an upload is never opened half-written.
        Resubmissions under the same name are graded again and the older
        report is superseded. Each submission that finishes ends the wait at
        once and, without a listing, is counted and frees its worker for the
        next archive held back, so an unwritable audit log raises
        :class:`GradingLogError` as soon as the submission that hit it ends.
        It stops as :meth:`run_batch` does. Raises ValueError, opening
        nothing, for a poll interval that is not a finite number of at least
        ``MIN_POLL_INTERVAL`` seconds, or an inbox that ``run_batch`` refuses.
        """
        inbox = check_inbox(inbox, (self.workspace_root, self.reports_dir, self.quarantine_dir), poll_interval)
        stop = stop or threading.Event()
        scanner = InboxScanner(inbox, settle_secs=poll_interval)
        wake = os.eventfd(0, os.EFD_CLOEXEC | os.EFD_NONBLOCK)  # opened first: it may raise, _inbox_events does not
        events = _inbox_events(inbox)

        def listings() -> Iterable[list[Path]]:
            while not stop.is_set():
                yield scanner.poll()
                deadline = time.monotonic() + poll_interval / SCANS_PER_INTERVAL
                while _wait_for_inbox(events, wake, stop, deadline):
                    yield []  # a grading ended: count it and refill its worker, then wait out the rest

        self._pch.expect(None)
        try:
            return self._run(listings(), stop, wake)
        finally:
            self._pch.expect(0)
            os.close(wake)
            if events is not None:
                os.close(events)
