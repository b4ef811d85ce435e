"""Collection of student submissions from a drop-box directory.

Submissions arrive as zip archives named ``FirstName_LastName_AssignmentNumber.zip``.
This module owns everything that happens before a compiler runs: validating
the filename grammar, noticing new archives without racing half-written
uploads, unpacking them into per-submission workspaces under hard resource
limits, and moving anything suspicious into a quarantine directory with a
machine-readable reason.
"""

from __future__ import annotations

import shutil
import time
import zipfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

ARCHIVE_SUFFIX = ".zip"

# Filename grammar violations, one code per distinct failure mode.
REASON_MISSING_EXTENSION = "missing-extension"
REASON_WRONG_FIELD_COUNT = "wrong-field-count"
REASON_EMPTY_FIELD = "empty-field"
REASON_NON_NUMERIC_ASSIGNMENT = "non-numeric-assignment"
REASON_INVALID_CHARACTER = "invalid-character"

# Archive-content quarantine reasons.
REASON_CORRUPT_ARCHIVE = "corrupt-archive"
REASON_PATH_TRAVERSAL = "path-traversal"
REASON_PATH_COLLISION = "path-collision"
REASON_NO_SOURCE_FILES = "no-source-files"
REASON_LIMIT_TOTAL_BYTES = "limit-exceeded:max-total-bytes"
REASON_LIMIT_ENTRY_COUNT = "limit-exceeded:max-entry-count"
REASON_LIMIT_PATH_DEPTH = "limit-exceeded:max-path-depth"

_NAME_EXTRA_CHARS = "-'"
_ASCII_DIGITS = frozenset("0123456789")


class MalformedName(ValueError):
    """Raised when an archive filename does not follow First_Last_N.zip.

    The ``reason`` attribute carries one of the ``REASON_*`` filename codes so
    callers can quarantine with a stable, machine-readable cause.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class InboxUnreadable(OSError):
    """Raised when the inbox directory cannot be listed at all."""


def _valid_name_field(value: str) -> bool:
    if not value:
        return False
    return all(ch.isalpha() or ch in _NAME_EXTRA_CHARS for ch in value)


@dataclass(frozen=True)
class SubmissionIdentity:
    """Who submitted what: the parsed form of a submission filename."""

    first_name: str
    last_name: str
    assignment_number: int

    def __post_init__(self) -> None:
        for label, value in (("first name", self.first_name), ("last name", self.last_name)):
            if not _valid_name_field(value):
                raise ValueError(f"invalid {label}: {value!r}")
        if not isinstance(self.assignment_number, int) or self.assignment_number < 0:
            raise ValueError(f"assignment number must be a non-negative int, got {self.assignment_number!r}")

    def stem(self) -> str:
        """Canonical filename without the .zip suffix, e.g. ``Ada_Lovelace_3``."""
        return f"{self.first_name}_{self.last_name}_{self.assignment_number}"

    def display_name(self) -> str:
        return f"{self.first_name} {self.last_name}"


def parse_submission_filename(filename: str) -> SubmissionIdentity:
    """Parse ``First_Last_N.zip`` into a :class:`SubmissionIdentity`.

    Raises :class:`MalformedName` with a distinct reason code for each way the
    grammar can be violated: missing/wrong extension, a field count other than
    three, an empty field, a non-numeric assignment field, or a name field
    containing anything besides letters, hyphens, and apostrophes.
    """
    if not filename.lower().endswith(ARCHIVE_SUFFIX):
        raise MalformedName(REASON_MISSING_EXTENSION, f"{filename!r} does not end in {ARCHIVE_SUFFIX}")
    stem = filename[: -len(ARCHIVE_SUFFIX)]
    fields = stem.split("_")
    if len(fields) != 3:
        raise MalformedName(
            REASON_WRONG_FIELD_COUNT,
            f"{filename!r} has {len(fields)} underscore-separated fields, expected 3",
        )
    first, last, assignment = fields
    if not first or not last or not assignment:
        raise MalformedName(REASON_EMPTY_FIELD, f"{filename!r} has an empty field")
    if not set(assignment) <= _ASCII_DIGITS:
        raise MalformedName(
            REASON_NON_NUMERIC_ASSIGNMENT,
            f"assignment field {assignment!r} in {filename!r} is not a decimal number",
        )
    for value in (first, last):
        if not _valid_name_field(value):
            raise MalformedName(
                REASON_INVALID_CHARACTER,
                f"name field {value!r} in {filename!r} contains characters outside letters, '-', and \"'\"",
            )
    return SubmissionIdentity(first, last, int(assignment))


def render_submission_filename(identity: SubmissionIdentity) -> str:
    """Inverse of :func:`parse_submission_filename` up to leading zeros."""
    return identity.stem() + ARCHIVE_SUFFIX


# A file observation: (size in bytes, mtime). An upload counts as finished
# once every listing over the settle window has seen the same stamp.
FileStamp = tuple[int, float]


class InboxScanner:
    """Repeated listing of an inbox for uploads that have settled.

    A file is ready once its (size, mtime) stamp matches the previous
    listing and it has shown that stamp for at least ``settle_secs`` seconds
    of ``time.monotonic()``, counted from the first listing that saw it; any
    stamp change restarts the window. With ``settle_secs=0`` a file is ready
    at the second listing that sees it unchanged. It is handed out once per
    distinct stamp while it stays in the inbox: a resubmission under the
    same name gets a fresh stamp and is handed out again. All state is keyed
    by the names of the latest listing, so a file that leaves the inbox
    leaves nothing behind.
    """

    def __init__(self, inbox: Path, settle_secs: float):
        self.inbox = inbox
        self.settle_secs = settle_secs
        # name -> (stamp, monotonic time of the first listing with that stamp)
        self._observed: dict[str, tuple[FileStamp, float]] = {}
        self._handed: dict[str, FileStamp] = {}

    def poll(self) -> list[Path]:
        """One pass over the inbox; returns the newly ready files in name order."""
        now = time.monotonic()
        try:
            entries = sorted(path for path in self.inbox.iterdir() if path.is_file())
        except OSError as exc:
            raise InboxUnreadable(f"cannot list inbox {self.inbox}: {exc}") from exc
        ready: list[Path] = []
        observed: dict[str, tuple[FileStamp, float]] = {}
        handed: dict[str, FileStamp] = {}
        for path in entries:
            try:
                stat = path.stat()
            except OSError:
                # Vanished between listing and stat; pretend we never saw it.
                continue
            stamp: FileStamp = (stat.st_size, stat.st_mtime)
            previous = self._observed.get(path.name)
            unchanged = previous is not None and previous[0] == stamp
            first_seen = previous[1] if unchanged else now
            observed[path.name] = (stamp, first_seen)
            if self._handed.get(path.name) == stamp:
                handed[path.name] = stamp
            elif unchanged and now - first_seen >= self.settle_secs:
                ready.append(path)
                handed[path.name] = stamp
        self._observed, self._handed = observed, handed
        return ready


@dataclass(frozen=True)
class SubmissionRecord:
    """The archive handed to extraction, with who sent it and when."""

    identity: SubmissionIdentity
    archive_path: Path
    received_at: datetime


class ArchiveRejected(ValueError):
    """An archive that must be quarantined rather than graded.

    Like :class:`MalformedName`, ``reason`` carries a stable,
    machine-readable ``REASON_*`` code.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ExtractionLimits:
    """Hard caps applied while unpacking an archive."""

    max_total_bytes: int = 64 * 1024 * 1024
    max_entry_count: int = 256
    max_path_depth: int = 4
    allowed_extensions: frozenset[str] = frozenset({".cpp", ".h", ".hpp", ".c", ".txt"})

    def __post_init__(self) -> None:
        for name in ("max_total_bytes", "max_entry_count", "max_path_depth"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        for ext in self.allowed_extensions:
            if not ext.startswith(".") or ext != ext.lower():
                raise ValueError(f"extensions must be lowercase and dotted, got {ext!r}")


def _entry_parts(entry_name: str) -> list[str]:
    # Zip paths are nominally "/"-separated, but archives built on Windows
    # sometimes carry backslashes; treat both as separators before judging.
    return [part for part in entry_name.replace("\\", "/").split("/") if part not in ("", ".")]


def extract_archive(
    record: SubmissionRecord,
    limits: ExtractionLimits,
    workspace_dir: Path,
) -> tuple[str, ...] | ArchiveRejected:
    """Unpack ``record.archive_path`` into ``workspace_dir`` under ``limits``.

    Returns the sorted workspace-relative paths of the files written, or,
    for an archive that must be quarantined (corruption, traversal paths,
    colliding entries, busted limits, nothing extractable), the
    :class:`ArchiveRejected` that says why. The rejection is returned rather
    than raised because perfbench's tracer annotates only the calls that
    return, and it reads every extraction's archive size. Entries whose extension is not allowed are silently
    skipped; of duplicate entries for one path the last wins. Any existing
    workspace content is replaced.

    The byte budget is enforced on the actual decompressed stream, not the
    sizes declared in the zip directory, so a lying header cannot smuggle
    more than ``max_total_bytes`` onto disk.
    """
    try:
        return _unpack(record.archive_path, limits, workspace_dir)
    except ArchiveRejected as rejection:
        return rejection


def _plan(infos: list[zipfile.ZipInfo], limits: ExtractionLimits) -> dict[str, zipfile.ZipInfo]:
    """Map each workspace-relative path to write onto its (last) zip entry."""
    plan: dict[str, zipfile.ZipInfo] = {}
    for info in infos:
        name = info.filename
        parts = _entry_parts(name)
        if name.startswith(("/", "\\")) or any(part == ".." for part in parts):
            raise ArchiveRejected(REASON_PATH_TRAVERSAL, f"entry {name!r} escapes the workspace")
        if info.is_dir() or not parts:
            continue
        if len(parts) > limits.max_path_depth:
            raise ArchiveRejected(REASON_LIMIT_PATH_DEPTH, f"entry {name!r} is nested too deeply")
        if Path(parts[-1]).suffix.lower() not in limits.allowed_extensions:
            continue
        plan["/".join(parts)] = info
    for path in plan:
        parent = path.rpartition("/")[0]
        while parent:
            if parent in plan:
                raise ArchiveRejected(REASON_PATH_COLLISION, f"{parent!r} is both a file and a directory")
            parent = parent.rpartition("/")[0]
    return plan


def _unpack(archive_path: Path, limits: ExtractionLimits, workspace_dir: Path) -> tuple[str, ...]:
    try:
        archive = zipfile.ZipFile(archive_path)
    except (zipfile.BadZipFile, NotImplementedError) as exc:
        raise ArchiveRejected(REASON_CORRUPT_ARCHIVE, str(exc)) from exc

    with archive:
        infos = archive.infolist()
        if len(infos) > limits.max_entry_count:
            raise ArchiveRejected(REASON_LIMIT_ENTRY_COUNT, f"{len(infos)} entries")
        plan = _plan(infos, limits)
        if not plan:
            raise ArchiveRejected(REASON_NO_SOURCE_FILES, "no entry has an allowed extension")

        if workspace_dir.exists():
            shutil.rmtree(workspace_dir)
        workspace_dir.mkdir(parents=True)

        remaining = limits.max_total_bytes
        try:
            for path, info in plan.items():
                target = workspace_dir / path
                target.parent.mkdir(parents=True, exist_ok=True)
                with archive.open(info) as source, open(target, "wb") as sink:
                    while chunk := source.read(64 * 1024):
                        remaining -= len(chunk)
                        if remaining < 0:
                            shutil.rmtree(workspace_dir, ignore_errors=True)
                            raise ArchiveRejected(
                                REASON_LIMIT_TOTAL_BYTES, f"more than {limits.max_total_bytes} bytes unpacked"
                            )
                        sink.write(chunk)
        except (zipfile.BadZipFile, RuntimeError, NotImplementedError, EOFError) as exc:
            # Truncated/encrypted/unsupported payloads surface here rather
            # than at open time.
            shutil.rmtree(workspace_dir, ignore_errors=True)
            raise ArchiveRejected(REASON_CORRUPT_ARCHIVE, str(exc)) from exc

    return tuple(sorted(plan))


def quarantine_archive(archive_path: Path, reason: str, quarantine_dir: Path) -> Path:
    """Move an archive into quarantine and drop a one-line reason file.

    Returns the quarantined archive's new path. Repeated quarantines of the
    same filename get a numeric suffix instead of overwriting the evidence.
    """
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    target = quarantine_dir / archive_path.name
    counter = 2
    while target.exists():
        target = quarantine_dir / f"{archive_path.name}.{counter}"
        counter += 1
    shutil.move(str(archive_path), str(target))
    target.with_name(target.name + ".reason.txt").write_text(reason + "\n", encoding="utf-8")
    return target


def archive_owner(path: Path) -> str | None:
    """Best-effort owner of the archive file, recorded for the audit trail."""
    try:
        return path.owner()
    except (KeyError, OSError, NotImplementedError):
        return None


def utc_now() -> datetime:
    """Receipt timestamps are UTC with second precision."""
    return datetime.now(timezone.utc).replace(microsecond=0)
