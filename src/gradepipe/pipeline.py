"""End-to-end grading pipeline.

A :class:`GradingSession` owns the directories and the audit log for one
grading run and drives each submission through the same path: validate the
filename, unpack under limits, compile, apply lexical rules, run black-box
tests, score, and write the report pair. Nothing a student uploads can abort
a session; every failure mode lands in exactly one of three terminal states
per submission (Graded, Quarantined, Errored). The single exception is the
audit log itself becoming unwritable, which stops the batch loudly because
grades without an audit trail are worse than no grades.

On disk a run looks like::

    inbox/                     student uploads, watched or batch-read
    workspace/First_Last_N.S/  build dir of receipt S, removed once its submission ends
    reports/First_Last_N.report.txt and .report.json
    quarantine/                rejected archives plus *.reason.txt files
    grading.log                append-only JSONL event log
"""

from __future__ import annotations

import itertools
import os
import shutil
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

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
    ArchiveRejected,
    InboxScanner,
    MalformedName,
    SubmissionRecord,
    archive_owner,
    extract_archive,
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
# Watch mode lists the inbox this many times per poll interval, so an upload
# is first seen at most a quarter interval after it lands, not a whole one.
SCANS_PER_INTERVAL = 4


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


def _default_jobs() -> int:
    return min(8, os.cpu_count() or 1)


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
        self.spec = spec
        # Made absolute once, against the working directory at start-up: the
        # test runner starts a binary from inside its workspace, where a
        # relative path would be resolved a second time.
        self.workspace_root = Path(workspace_root).absolute()
        self.reports_dir = Path(reports_dir).absolute()
        self.quarantine_dir = Path(quarantine_dir).absolute()
        self.jobs = jobs if jobs and jobs > 0 else _default_jobs()
        self.log = GradingLog(Path(log_path).absolute())
        self._pch = PrecompiledHeaders(self.workspace_root)
        self._receipts = itertools.count()
        self._registry: dict[str, Receipt] = {}
        self._registry_lock = threading.Lock()

    def close(self) -> None:
        self._pch.close()
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
        become Errored. Only :class:`GradingLogError` escapes.
        """
        archive_path = Path(archive_path)
        receipt = received_at if isinstance(received_at, Receipt) else self._receive(received_at)
        try:
            return self._grade(archive_path, receipt)
        except GradingLogError:
            raise
        except Exception as exc:  # noqa: BLE001 - one submission must not sink the batch
            report = AssessmentReport(None, archive_path.name, receipt.at)
            return self._end(report, ReportStatus.ERRORED, f"internal-error:{type(exc).__name__}", str(exc))

    def _receive(self, at: datetime | None = None) -> Receipt:
        """Stamp an archive as received now (or at ``at``), after every earlier receipt."""
        # next() on an itertools.count is atomic, so receipts from threads never repeat.
        return Receipt(at or utc_now(), next(self._receipts))

    def _grade(self, archive_path: Path, receipt: Receipt) -> AssessmentReport:
        received = receipt.at
        owner = archive_owner(archive_path)
        self.log.append(EVENT_RECEIVED, received, archive=archive_path.name, owner=owner)
        report = AssessmentReport(None, archive_path.name, received, owner, scale=self.spec.rubric.scale)
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
                # A "." cannot occur in a stem, so no other submission or the .pch-* directory
                # can take this name, and two archives of one submission never share a tree.
                workspace = self.workspace_root / f"{identity.stem()}.{receipt.seq}"
                record = SubmissionRecord(identity, archive_path, received)
                files = extract_archive(record, self.spec.extraction, workspace)
                if isinstance(files, ArchiveRejected):
                    raise files
            except (MalformedName, ArchiveRejected) as exc:
                reason = f"malformed-name:{exc.reason}" if isinstance(exc, MalformedName) else exc.reason
                quarantine_archive(archive_path, reason, self.quarantine_dir)
                return self._end(report, ReportStatus.QUARANTINED, reason, str(exc))

            try:
                compile_result = compile_workspace(workspace, self.spec.compiler, files, self._pch)
            except CompilerNotFound as exc:
                return self._end(report, ReportStatus.ERRORED, "compiler-not-found", str(exc))
            report.compile_result = compile_result
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
                try:
                    report.blackbox = run_test_suite(
                        compile_result.output_path,
                        self.spec.tests,
                        self.spec.normalization,
                        self.spec.output_cap,
                    )
                except SpawnFailure as exc:
                    return self._end(report, ReportStatus.ERRORED, "spawn-failure", str(exc))

            report.score = score_submission(compile_result, report.lexical, report.blackbox, self.spec.rubric)
            report.status = ReportStatus.GRADED
            return self._conclude(report, self._finalize(report, receipt) or "")
        finally:
            # With whatever the tests wrote into it: disk use is bounded by the submissions in flight.
            if workspace is not None:
                shutil.rmtree(workspace, ignore_errors=True)

    # -- terminal states ---------------------------------------------------

    def _end(self, report: AssessmentReport, status: ReportStatus, reason: str, message: str) -> AssessmentReport:
        """End an unscored submission as Quarantined or Errored and write its report pair."""
        report.status = status
        report.detail = reason
        report.generated_at = utc_now()
        return self._conclude(report, self._write_report_files(report) or message)

    def _finalize(self, report: AssessmentReport, receipt: Receipt) -> str | None:
        """Apply latest-wins resolution and write the report pair.

        If a submission with the same stem and a newer receipt has already
        been graded, this report is marked Superseded and its files are not
        written; otherwise it replaces the previous report. Receipts order
        by time, then by the order the session found them, so the outcome
        does not depend on which grading finishes first. Only a pair that
        was written takes over the registry and notes the replacement in
        the log. Returns why the pair could not be written, if it could not.
        """
        report.generated_at = utc_now()
        report.check_invariants()
        assert report.identity is not None
        stem = report.identity.stem()
        with self._registry_lock:
            prior = self._registry.get(stem)
            if prior is not None and prior > receipt:
                report.status = ReportStatus.SUPERSEDED
                return None
            failure = self._write_report_files(report)
            if failure is not None:
                return failure
            if prior is not None:
                self.log.append(
                    EVENT_SUPERSEDED,
                    report.generated_at,
                    submission=stem,
                    superseded_received_at=prior.at.isoformat(),
                )
            self._registry[stem] = receipt
            return None

    def _write_report_files(self, report: AssessmentReport) -> str | None:
        """Write the report pair; if that fails, mark the report Errored and return why.

        Both halves go to temporary files in the reports directory and are
        renamed over the previous pair only once both are written, so a
        failed write leaves the previous pair as it was and no partial file.
        """
        if report.identity is None:
            return None
        stem = report.identity.stem()
        # Unique per process and thread: a resubmission may be written while
        # an earlier one of the same stem is still being written.
        tag = f"{os.getpid()}.{threading.get_ident()}.tmp"
        written: list[tuple[Path, Path]] = []
        try:
            self.reports_dir.mkdir(parents=True, exist_ok=True)
            for suffix, render in ((".report.txt", render_report_text), (".report.json", render_report_json)):
                final = self.reports_dir / f"{stem}{suffix}"
                temp = final.with_name(f".{final.name}.{tag}")
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

    def _conclude(self, report: AssessmentReport, message: str) -> AssessmentReport:
        """Append the submission's one terminal event, chosen by its final status."""
        submission = report.identity.stem() if report.identity else None
        if report.status in (ReportStatus.GRADED, ReportStatus.SUPERSEDED):
            self.log.append(
                EVENT_GRADED if report.status is ReportStatus.GRADED else EVENT_SUPERSEDED,
                report.generated_at,
                submission=submission,
                score=report.score,
                status=report.status.value,
            )
        else:
            self.log.append(
                EVENT_QUARANTINED if report.status is ReportStatus.QUARANTINED else EVENT_ERRORED,
                report.generated_at,
                archive=report.archive_name,
                submission=submission,
                reason=report.detail,
                message=message,
            )
        return report

    # -- batch and watch ----------------------------------------------------

    def _ignore(self, path: Path, summary: BatchSummary) -> None:
        self.log.append(EVENT_IGNORED, utc_now(), archive=path.name, reason="not-a-zip-archive")
        summary.ignored += 1

    def run_batch(self, inbox: Path, stop: threading.Event | None = None) -> BatchSummary:
        """Grade every archive currently in the inbox, then return counts.

        A one-shot pass takes the inbox as-is (no upload debouncing, unlike
        watch mode). Files without a .zip suffix are logged as ignored and
        left untouched. Submissions grade in parallel up to ``jobs`` workers.
        Archives are received in name order as they are listed, so of two
        that resolve to one submission the later name is the newer. Once
        ``stop`` is set no further archive is started; those in flight
        finish, and the rest stay in the inbox ungraded and uncounted.
        """
        summary = BatchSummary()
        entries = sorted(path for path in Path(inbox).iterdir() if path.is_file())
        archives: list[Path] = []
        receipts: list[Receipt] = []
        for path in entries:
            if path.suffix.lower() == ".zip":
                archives.append(path)
                receipts.append(self._receive())
            else:
                self._ignore(path, summary)

        def grade(path: Path, receipt: Receipt) -> AssessmentReport | None:
            return None if stop is not None and stop.is_set() else self.grade_archive(path, receipt)

        self._pch.expect(len(archives))
        try:
            with ThreadPoolExecutor(max_workers=self.jobs) as executor:
                for report in executor.map(grade, archives, receipts):
                    if report is not None:
                        summary.record(report)
        finally:
            self._pch.expect(None)
        return summary

    def check_watch_inputs(self, inbox: Path, poll_interval: float) -> Path:
        """Return the absolute inbox that :meth:`watch_inbox` would poll.

        Raises ValueError for a poll interval under ``MIN_POLL_INTERVAL``
        seconds or an inbox that is also the workspace, reports or quarantine
        directory.
        """
        if poll_interval < MIN_POLL_INTERVAL:
            raise ValueError(f"poll interval must be at least {MIN_POLL_INTERVAL:g} second, got {poll_interval:g}")
        inbox = Path(inbox).absolute()
        if inbox in (self.workspace_root, self.reports_dir, self.quarantine_dir):
            raise ValueError("inbox must be distinct from the workspace, reports and quarantine directories")
        return inbox

    def watch_inbox(
        self,
        inbox: Path,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        stop: threading.Event | None = None,
    ) -> BatchSummary:
        """Poll the inbox until ``stop`` is set, grading archives as they settle.

        The inbox is listed ``SCANS_PER_INTERVAL`` times per interval. A
        file is picked up once two listings in a row have seen its size and
        mtime unchanged and either its bytes are one whole zip archive or
        every listing over ``poll_interval`` seconds has seen it unchanged
        (see :class:`InboxScanner`), so an upload written front to back is
        never opened half-written. A finished upload then waits a quarter to
        half an interval, anything else about one interval. Resubmissions
        under the same name are graded again and the older report is
        superseded. Each listing also counts the submissions that have
        finished since the last one, so an unwritable audit log raises
        :class:`GradingLogError` within a quarter interval. Returns counts
        for everything processed; in-flight submissions are finished before
        returning.

        Raises ValueError when :meth:`check_watch_inputs` does.
        """
        inbox = self.check_watch_inputs(inbox, poll_interval)
        stop = stop or threading.Event()
        summary = BatchSummary()
        scanner = InboxScanner(inbox, settle_secs=poll_interval)
        in_flight: list[Future[AssessmentReport]] = []
        executor = ThreadPoolExecutor(max_workers=self.jobs)
        try:
            while not stop.is_set():
                for path in scanner.poll():
                    if path.suffix.lower() != ".zip":
                        self._ignore(path, summary)
                        continue
                    in_flight.append(executor.submit(self.grade_archive, path, self._receive()))
                for future in [future for future in in_flight if future.done()]:
                    in_flight.remove(future)
                    summary.record(future.result())
                stop.wait(poll_interval / SCANS_PER_INTERVAL)
        except KeyboardInterrupt:
            stop.set()
        finally:
            executor.shutdown(wait=True)
        for future in in_flight:
            summary.record(future.result())
        return summary
