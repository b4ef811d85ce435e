"""Collection of student submissions from a drop-box directory.

Submissions arrive as zip archives named ``FirstName_LastName_AssignmentNumber.zip``.
This module owns everything that happens before a compiler runs: validating
the filename grammar, noticing new archives without racing half-written
uploads, unpacking them into per-submission workspaces under hard resource
limits, and moving anything suspicious into a quarantine directory with a
machine-readable reason.
"""

from __future__ import annotations

import errno
import itertools
import lzma
import os
import pwd
import shutil
import stat
import struct
import time
import zipfile
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Iterator

ARCHIVE_SUFFIX = ".zip"

# Filename grammar violations, one code per distinct failure mode.
REASON_MISSING_EXTENSION = "missing-extension"
REASON_WRONG_FIELD_COUNT = "wrong-field-count"
REASON_EMPTY_FIELD = "empty-field"
REASON_NON_NUMERIC_ASSIGNMENT = "non-numeric-assignment"
REASON_INVALID_CHARACTER = "invalid-character"
# Also an archive-content reason: an entry name the filesystem cannot hold.
REASON_NAME_TOO_LONG = "name-too-long"

# Archive-content quarantine reasons.
REASON_CORRUPT_ARCHIVE = "corrupt-archive"
REASON_PATH_TRAVERSAL = "path-traversal"
REASON_PATH_COLLISION = "path-collision"
REASON_NO_SOURCE_FILES = "no-source-files"
REASON_LIMIT_TOTAL_BYTES = "limit-exceeded:max-total-bytes"
REASON_LIMIT_ENTRY_COUNT = "limit-exceeded:max-entry-count"
REASON_LIMIT_PATH_DEPTH = "limit-exceeded:max-path-depth"
# An upload that is a symbolic link, a FIFO or anything else but a regular file.
REASON_NOT_REGULAR_FILE = "not-a-regular-file"

_NAME_EXTRA_CHARS = "-'"
# The longest file name, in bytes, that Linux filesystems hold (NAME_MAX).
_NAME_MAX = 255
# A stem leaves room for the longest name the session derives from it, "<stem>.report.json",
# which also covers its build dir "<stem>.<seq>" up to an 11-digit receipt number.
_STEM_MAX = _NAME_MAX - len(".report.json")
_ASCII_DIGITS = frozenset("0123456789")


class ArchiveRejected(ValueError):
    """An archive that must be quarantined rather than graded.

    ``reason`` carries a stable, machine-readable ``REASON_*`` code.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class MalformedName(ArchiveRejected):
    """Raised when an archive filename does not follow First_Last_N.zip.

    ``reason`` is the bare filename code; the pipeline quarantines the
    archive as ``malformed-name:<reason>``.
    """


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
    identity = SubmissionIdentity(first, last, int(assignment))
    if len(os.fsencode(identity.stem())) > _STEM_MAX:
        raise MalformedName(REASON_NAME_TOO_LONG, f"the report name of {filename!r} would exceed {_NAME_MAX} bytes")
    return identity


# A file observation: (size in bytes, mtime). An upload is finished at the
# first listing that sees its stamp if it is a whole zip that passes its CRC
# check, else once every listing over the settle window has seen that stamp.
FileStamp = tuple[int, float]

# What zipfile raises reading a damaged archive: bad deflate or LZMA data (bzip2
# raises OSError), a seek to a negative offset, an undecodable UTF-8 name,
# encryption, unknown methods, truncation. Extraction quarantines on these.
ARCHIVE_READ_ERRORS = (
    zipfile.BadZipFile, zlib.error, lzma.LZMAError, EOFError, OSError, RuntimeError, NotImplementedError,
    UnicodeDecodeError,
)
# Inflated bytes the scanner may read to check an upload at its first listing.
CRC_CHECK_BUDGET = 4 * 1024 * 1024

_LOCAL_HEADER = b"PK\x03\x04"
_LOCAL_HEADER_SIZE = 30  # name and extra-field lengths at 26 and 28
# Flag bit 3: a descriptor of 12 bytes, or 16 with its optional signature, follows the data.
_HAS_DESCRIPTOR = 0x08
_DESCRIPTOR_SIGNATURE = b"PK\x07\x08"
# The end-of-central-directory record: signature, this disk, the directory's
# disk, entries on this disk, entries in all, directory size, directory
# offset, comment length; the comment follows it.
_END_RECORD = struct.Struct("<4s4H2LH")
_END_SIGNATURE = b"PK\x05\x06"
_END_SEARCH = _END_RECORD.size + 0xFFFF


def _directory_offset(upload: BinaryIO, size: int) -> int | None:
    """Where the central directory starts, if the ``size`` bytes of ``upload`` hold one zip and nothing else.

    They must start with a local file header and end with an end record
    whose comment runs exactly to the last byte, on one disk, with at least
    one entry and no Zip64 sentinel, and whose central directory ends where
    the record starts. A file written front to back has no end record until
    its last byte, so no proper prefix of it passes; nor does data before or
    after the archive. Reads the first 4 bytes and at most the last 64 KiB plus 22.
    """
    start = max(0, size - _END_SEARCH)
    if upload.read(4) != _LOCAL_HEADER:
        return None
    upload.seek(start)
    tail = upload.read(size - start)
    at = tail.rfind(_END_SIGNATURE)
    if at < 0 or len(tail) - at < _END_RECORD.size:
        return None
    _, disk, cd_disk, on_disk, entries, cd_size, cd_offset, comment = _END_RECORD.unpack_from(tail, at)
    whole = (
        start + at + _END_RECORD.size + comment == size
        and disk == cd_disk == 0
        and 0 < on_disk == entries < 0xFFFF
        and cd_size < 0xFFFFFFFF
        and cd_offset < 0xFFFFFFFF
        and cd_offset + cd_size == start + at
    )
    return cd_offset if whole else None


def _entries_fill(upload: BinaryIO, directory: int) -> bool:
    """Whether the zip's entries fill ``upload`` up to ``directory`` and each passes its CRC check.

    In offset order, each entry's local header, data and descriptor start
    where the previous one ended, and the last ends at ``directory``. Each
    entry inflates with a matching CRC-32, within ``CRC_CHECK_BUDGET`` in all.
    """
    budget, at = CRC_CHECK_BUDGET, 0
    try:
        with _open_zip(upload) as archive:
            for info in sorted(archive.infolist(), key=lambda info: info.header_offset):
                upload.seek(at)
                header = upload.read(_LOCAL_HEADER_SIZE)
                if info.header_offset != at or len(header) < _LOCAL_HEADER_SIZE:
                    return False
                at += _LOCAL_HEADER_SIZE + sum(struct.unpack_from("<2H", header, 26)) + info.compress_size
                if info.flag_bits & _HAS_DESCRIPTOR:
                    upload.seek(at)
                    at += 16 if upload.read(4) == _DESCRIPTOR_SIGNATURE else 12
                for chunk in _inflate(archive, info):
                    budget -= len(chunk)
                    if budget < 0:
                        return False
    except ArchiveRejected:
        return False
    return at == directory


def _open_upload(path: Path) -> BinaryIO:
    """The upload at ``path`` opened for reading; ArchiveRejected unless it is a regular file itself.

    The open neither follows a symbolic link nor waits for a FIFO's writer,
    so nothing in the inbox can make the grader read a file it names or
    block it.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC)
    except OSError as exc:
        if exc.errno not in (errno.ELOOP, errno.ENXIO):  # a symbolic link, a socket
            raise
        raise ArchiveRejected(REASON_NOT_REGULAR_FILE, f"{path.name} is not a regular file: {exc.strerror}") from exc
    upload = os.fdopen(fd, "rb")
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        upload.close()
        raise ArchiveRejected(REASON_NOT_REGULAR_FILE, f"{path.name} is not a regular file")
    return upload


def _is_whole_zip(path: Path, stamp: FileStamp) -> bool:
    """Whether the file at ``path``, still at ``stamp`` after both checks read it, is one whole zip.

    The entry checks turn away a preallocated file filled out of order while
    holes remain with its header and end record in place: a zeroed run fails
    a CRC or breaks the chain of entries. Any error at all fails the check,
    so an upload zipfile cannot read, or one that is not a regular file,
    waits out the settle window and extraction, not the watch loop, deals with it.
    """
    try:
        with _open_upload(path) as upload:
            directory = _directory_offset(upload, stamp[0])
            whole = directory is not None and _entries_fill(upload, directory)
            now = os.fstat(upload.fileno())
    except Exception:
        return False
    return whole and (now.st_size, now.st_mtime) == stamp


def list_inbox(inbox: Path) -> list[Path]:
    """Every entry of ``inbox`` that is not itself a directory, in name order; InboxUnreadable if it cannot be listed.

    A symbolic link (dangling or not), a FIFO or a socket is listed like a
    file, so it reaches :func:`_open_upload`, which refuses it. Where the
    filesystem reports entry types in the directory read, as Linux local
    filesystems do, no entry is stat'ed.
    """
    try:
        with os.scandir(inbox) as entries:
            return sorted(inbox / entry.name for entry in entries if not entry.is_dir(follow_symlinks=False))
    except OSError as exc:
        raise InboxUnreadable(f"cannot list inbox {inbox}: {exc}") from exc


class InboxScanner:
    """Repeated listing of an inbox for uploads that have settled.

    Each entry :func:`list_inbox` returns is stamped with the (size, mtime)
    of its ``lstat``, so a link, a FIFO or a socket is stamped as itself. An
    entry is ready at the first listing that sees its stamp if its bytes are
    a whole zip whose entries pass their CRC check (see :func:`_is_whole_zip`,
    run once per name and stamp). Anything else, partial, corrupt, over
    budget, no zip or not a regular file, is ready once its stamp matches the
    previous listing and has been shown for ``settle_secs`` seconds of
    ``time.monotonic()`` since the first listing that saw it; any stamp
    change restarts the window. An entry is handed out once per distinct
    stamp while it stays in the inbox: a resubmission under the same name
    gets a fresh stamp and is handed out again. The one record per name is
    keyed by the names of the latest listing, so an entry that leaves the
    inbox leaves nothing behind.
    """

    def __init__(self, inbox: Path, settle_secs: float):
        self.inbox = inbox
        self.settle_secs = settle_secs
        # name -> (stamp, monotonic time of the first listing with that stamp, handed out at that stamp)
        self._seen: dict[str, tuple[FileStamp, float, bool]] = {}

    def poll(self) -> list[Path]:
        """One pass over the inbox; returns the newly ready entries in name order."""
        now = time.monotonic()
        ready: list[Path] = []
        seen: dict[str, tuple[FileStamp, float, bool]] = {}
        for path in list_inbox(self.inbox):
            try:
                entry = path.lstat()
            except OSError:
                # Vanished between listing and stat; pretend we never saw it.
                continue
            stamp: FileStamp = (entry.st_size, entry.st_mtime)
            record = self._seen.get(path.name)
            if record is not None and record[0] == stamp:
                _, first_seen, handed = record
                ready_now = not handed and now - first_seen >= self.settle_secs
            else:
                first_seen, handed = now, False
                ready_now = _is_whole_zip(path, stamp)
            if ready_now:
                ready.append(path)
            seen[path.name] = (stamp, first_seen, handed or ready_now)
        self._seen = seen
        return ready


@dataclass(frozen=True)
class SubmissionRecord:
    """The archive handed to extraction; its path is all that extraction and the benchmark's tracer read."""

    archive_path: Path


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
    for an archive that must be quarantined (not a regular file, corruption,
    traversal paths, colliding entries, busted limits, nothing extractable), the
    :class:`ArchiveRejected` that says why. The rejection is returned rather
    than raised because perfbench's tracer annotates only the calls that
    return, and it reads every extraction's archive size. Entries whose extension is not allowed are silently
    skipped; of duplicate entries for one path the last wins.

    The caller owns ``workspace_dir``, which must not exist: it is made only
    once the archive's entries have passed their checks, and one that
    exists raises ``FileExistsError``. A rejection found while writing (bad
    data, the byte budget) leaves what was written, which the caller removes.

    The byte budget is enforced on the actual decompressed stream, not the
    sizes declared in the zip directory, so a lying header cannot smuggle
    more than ``max_total_bytes`` onto disk.
    """
    try:
        with _open_upload(record.archive_path) as upload, _open_zip(upload) as archive:
            infos = archive.infolist()
            if len(infos) > limits.max_entry_count:
                raise ArchiveRejected(REASON_LIMIT_ENTRY_COUNT, f"{len(infos)} entries")
            plan = _plan(infos, limits)
            if not plan:
                raise ArchiveRejected(REASON_NO_SOURCE_FILES, "no entry has an allowed extension")
            workspace_dir.mkdir(parents=True)
            remaining = limits.max_total_bytes
            for path, info in plan.items():
                target = workspace_dir / path
                target.parent.mkdir(parents=True, exist_ok=True)
                with open(target, "wb") as sink:
                    for chunk in _inflate(archive, info):
                        remaining -= len(chunk)
                        if remaining < 0:
                            raise ArchiveRejected(
                                REASON_LIMIT_TOTAL_BYTES, f"more than {limits.max_total_bytes} bytes unpacked"
                            )
                        sink.write(chunk)
    except ArchiveRejected as rejection:
        return rejection
    return tuple(sorted(plan))


def _plan(infos: list[zipfile.ZipInfo], limits: ExtractionLimits) -> dict[str, zipfile.ZipInfo]:
    """Map each workspace-relative path to write onto its (last) zip entry."""
    plan: dict[str, zipfile.ZipInfo] = {}
    for info in infos:
        name = info.filename
        parts = _entry_parts(name)
        if name.startswith(("/", "\\")) or any(part == ".." for part in parts):
            raise ArchiveRejected(REASON_PATH_TRAVERSAL, f"entry {name!r} escapes the workspace")
        if not parts or info.is_dir():
            continue
        if len(parts) > limits.max_path_depth:
            raise ArchiveRejected(REASON_LIMIT_PATH_DEPTH, f"entry {name!r} is nested too deeply")
        if Path(parts[-1]).suffix.lower() not in limits.allowed_extensions:
            continue
        if any(len(os.fsencode(part)) > _NAME_MAX for part in parts):
            raise ArchiveRejected(REASON_NAME_TOO_LONG, f"entry {name!r} has a name over {_NAME_MAX} bytes")
        plan["/".join(parts)] = info
    for path in plan:
        parent = path.rpartition("/")[0]
        while parent:
            if parent in plan:
                raise ArchiveRejected(REASON_PATH_COLLISION, f"{parent!r} is both a file and a directory")
            parent = parent.rpartition("/")[0]
    return plan


def _open_zip(upload: BinaryIO) -> zipfile.ZipFile:
    """The zip in the open file ``upload``; one that cannot be read is rejected as corrupt."""
    try:
        return zipfile.ZipFile(upload)
    except ARCHIVE_READ_ERRORS as exc:
        raise ArchiveRejected(REASON_CORRUPT_ARCHIVE, str(exc)) from exc


def _inflate(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> Iterator[bytes]:
    """The entry's bytes in 64 KiB chunks, CRC-checked; an error reading them rejects the archive as corrupt.

    An error the caller raises between chunks, writing the workspace say, stays the caller's.
    """
    try:
        with archive.open(info) as source:
            while chunk := source.read(64 * 1024):
                yield chunk
    except ARCHIVE_READ_ERRORS as exc:
        raise ArchiveRejected(REASON_CORRUPT_ARCHIVE, str(exc)) from exc


_REASON_SUFFIX = ".reason.txt"


def quarantine_archive(archive_path: Path, reason: str, quarantine_dir: Path) -> Path:
    """Move an archive into quarantine and drop a one-line reason file.

    Returns the quarantined archive's new path. Repeated quarantines of the
    same filename get a numeric suffix instead of overwriting the evidence.
    A name too long to take both suffixes is cut to fit, so the reason file
    can always be written.
    """
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    for counter in itertools.count(1):
        suffix = f".{counter}" if counter > 1 else ""
        room = _NAME_MAX - len(suffix) - len(_REASON_SUFFIX)
        target = quarantine_dir / (os.fsdecode(os.fsencode(archive_path.name)[:room]) + suffix)
        if not os.path.lexists(target):
            break
    shutil.move(str(archive_path), str(target))
    target.with_name(target.name + _REASON_SUFFIX).write_text(reason + "\n", encoding="utf-8")
    return target


def archive_owner(path: Path) -> str | None:
    """Best-effort owner of the archive file itself, not of what a link names, for the audit trail."""
    try:
        return pwd.getpwuid(path.lstat().st_uid).pw_name
    except (KeyError, OSError):
        return None


def utc_now() -> datetime:
    """Receipt timestamps are UTC with second precision."""
    return datetime.now(timezone.utc).replace(microsecond=0)
