import io
import lzma
import os
import pwd
import random
import socket
import struct
import zipfile

import pytest

from gradepipe import ingest
from gradepipe.ingest import (
    ARCHIVE_SUFFIX,
    ArchiveRejected,
    ExtractionLimits,
    InboxScanner,
    InboxUnreadable,
    MalformedName,
    SubmissionIdentity,
    SubmissionRecord,
    archive_owner,
    extract_archive,
    parse_submission_filename,
    quarantine_archive,
)

from support import damaged_lzma_zip, make_zip


def extract(archive, workspace, limits=ExtractionLimits()):
    return extract_archive(SubmissionRecord(archive), limits, workspace)


def rejection(archive, workspace, limits=ExtractionLimits()):
    rejected = extract(archive, workspace, limits)
    assert isinstance(rejected, ArchiveRejected), f"expected a rejection, got {rejected!r}"
    return rejected.reason


# -- filename grammar ---------------------------------------------------------


def test_parse_basic():
    identity = parse_submission_filename("Ada_Lovelace_3.zip")
    assert identity == SubmissionIdentity("Ada", "Lovelace", 3)
    assert identity.stem() == "Ada_Lovelace_3"
    assert identity.display_name() == "Ada Lovelace"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("Jean-Luc_Picard_12.zip", SubmissionIdentity("Jean-Luc", "Picard", 12)),
        ("Miles_O'Brien_0.zip", SubmissionIdentity("Miles", "O'Brien", 0)),
        ("ADA_LOVELACE_3.ZIP", SubmissionIdentity("ADA", "LOVELACE", 3)),
        ("José_García_7.zip", SubmissionIdentity("José", "García", 7)),
    ],
)
def test_parse_accepts_reasonable_names(name, expected):
    assert parse_submission_filename(name) == expected


def test_parse_keeps_leading_zeros_out_of_identity():
    assert parse_submission_filename("Ada_Lovelace_007.zip").assignment_number == 7


@pytest.mark.parametrize(
    "name, reason",
    [
        ("Ada_Lovelace_3.tar", "missing-extension"),
        ("Ada_Lovelace_3", "missing-extension"),
        ("Ada_Lovelace_3.zip.bak", "missing-extension"),
        ("Mary_Ann_Smith_2.zip", "wrong-field-count"),
        ("Ada_3.zip", "wrong-field-count"),
        ("Ada.zip", "wrong-field-count"),
        ("_Lovelace_3.zip", "empty-field"),
        ("Ada__3.zip", "empty-field"),
        ("Ada_Lovelace_.zip", "empty-field"),
        ("Ada_Lovelace_three.zip", "non-numeric-assignment"),
        ("Ada_Lovelace_3a.zip", "non-numeric-assignment"),
        ("Ada_Lovelace_-3.zip", "non-numeric-assignment"),
        ("Ada_Lovelace_٣.zip", "non-numeric-assignment"),
        ("Ada2_Lovelace_3.zip", "invalid-character"),
        ("Ada_Love.lace_3.zip", "invalid-character"),
        ("Ada _Lovelace_3.zip", "invalid-character"),
    ],
)
def test_parse_rejections_carry_distinct_reasons(name, reason):
    with pytest.raises(MalformedName) as excinfo:
        parse_submission_filename(name)
    assert excinfo.value.reason == reason


def test_parse_rejects_a_stem_whose_derived_names_would_not_fit():
    # "<stem>.report.json" must fit in NAME_MAX, 255 bytes; "é" takes two of them.
    assert parse_submission_filename("A" * 232 + "_Lovelace_3.zip").stem() == "A" * 232 + "_Lovelace_3"
    for name in ("A" * 233 + "_Lovelace_3.zip", "é" * 117 + "_Lovelace_3.zip"):
        with pytest.raises(MalformedName) as excinfo:
            parse_submission_filename(name)
        assert excinfo.value.reason == "name-too-long"


def test_render_round_trip_small_sample():
    rng = random.Random(20260825)
    letters = "abcdefghijklmnopqrstuvwxyz"
    extras = "ABCDEFGHIJKLMNOPQRSTUVWXYZ-'éüñ"
    for _ in range(200):
        first = rng.choice(letters.upper()) + "".join(
            rng.choice(letters + extras) for _ in range(rng.randint(0, 10))
        )
        last = rng.choice(letters.upper()) + "".join(
            rng.choice(letters + extras) for _ in range(rng.randint(0, 10))
        )
        identity = SubmissionIdentity(first, last, rng.randint(0, 9999))
        assert parse_submission_filename(identity.stem() + ARCHIVE_SUFFIX) == identity


def test_identity_validates_fields():
    with pytest.raises(ValueError):
        SubmissionIdentity("Ada_Love", "Lace", 3)
    with pytest.raises(ValueError):
        SubmissionIdentity("", "Lovelace", 3)
    with pytest.raises(ValueError):
        SubmissionIdentity("Ada", "Lovelace", -1)


# -- stability scanning -------------------------------------------------------


def _stamp(path, mtime):
    os.utime(path, (mtime, mtime))


def test_scan_requires_two_stable_observations(tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    upload = inbox / "Ada_Lovelace_3.zip"
    upload.write_bytes(b"partial")
    _stamp(upload, 1000.0)

    scanner = InboxScanner(inbox, settle_secs=0)
    assert scanner.poll() == []  # first sighting is never ready

    # Upload still growing: stamp changed, so still not ready.
    upload.write_bytes(b"partial-but-longer")
    _stamp(upload, 1001.0)
    assert scanner.poll() == []

    # Two consecutive identical stamps: handed out exactly once.
    assert scanner.poll() == [upload]
    assert scanner.poll() == []


def test_scan_resubmission_gets_fresh_key(tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    upload = inbox / "Ada_Lovelace_3.zip"
    upload.write_bytes(b"v1")
    _stamp(upload, 1000.0)

    scanner = InboxScanner(inbox, settle_secs=0)
    assert scanner.poll() == []
    assert scanner.poll() == [upload]
    assert scanner.poll() == []

    upload.write_bytes(b"v2")
    _stamp(upload, 2000.0)
    assert scanner.poll() == []  # new stamp must stabilise again
    assert scanner.poll() == [upload]
    assert scanner.poll() == []


def test_scan_ignores_directories_and_orders_output(tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (inbox / "subdir").mkdir()
    b = inbox / "B_B_1.zip"
    a = inbox / "A_A_1.zip"
    for path in (b, a):
        path.write_bytes(b"x")
        _stamp(path, 1000.0)
    scanner = InboxScanner(inbox, settle_secs=0)
    scanner.poll()
    assert scanner.poll() == [a, b]


def test_list_inbox_takes_every_entry_that_is_not_itself_a_directory(tmp_path):
    inbox = tmp_path / "inbox"
    (inbox / "subdir").mkdir(parents=True)
    (inbox / "file.zip").write_bytes(b"x")
    (inbox / "dangling.zip").symlink_to(tmp_path / "gone.zip")
    (inbox / "to-dir.zip").symlink_to(inbox / "subdir")
    os.mkfifo(inbox / "fifo.zip")
    with socket.socket(socket.AF_UNIX) as listener:
        listener.bind(str(inbox / "socket.zip"))
    names = ["dangling.zip", "fifo.zip", "file.zip", "socket.zip", "to-dir.zip"]
    assert ingest.list_inbox(inbox) == [inbox / name for name in names]


def test_scan_unreadable_inbox_raises(tmp_path):
    with pytest.raises(InboxUnreadable):
        InboxScanner(tmp_path / "missing", settle_secs=0).poll()


def test_scan_forgets_a_removed_file(tmp_path):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    upload = inbox / "Ada_Lovelace_3.zip"
    upload.write_bytes(b"v1")
    _stamp(upload, 1000.0)
    scanner = InboxScanner(inbox, settle_secs=0)
    scanner.poll()
    assert scanner.poll() == [upload]

    upload.unlink()
    assert scanner.poll() == []
    assert vars(scanner) == vars(InboxScanner(inbox, settle_secs=0)), "a removed file must leave no state behind"

    # The same bytes uploaded again are a new arrival while they stay.
    upload.write_bytes(b"v1")
    _stamp(upload, 1000.0)
    assert scanner.poll() == []
    assert scanner.poll() == [upload]


class _Clock:
    """Stands in for the ``time`` module in ingest: a clock moved by hand."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(ingest, "time", fake)
    return fake


@pytest.fixture
def settling(tmp_path, clock):
    """An upload with a fixed stamp and a scanner with a one-second window."""
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    upload = inbox / "Ada_Lovelace_3.zip"
    upload.write_bytes(b"v1")
    _stamp(upload, 1000.0)
    return InboxScanner(inbox, settle_secs=1.0), upload


def _poll_at(scanner, clock, now):
    clock.now = now
    return scanner.poll()


@pytest.mark.parametrize("listings", [(0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.75, 1.25)])
def test_scan_hands_out_at_the_first_listing_past_the_window(settling, clock, listings):
    scanner, upload = settling
    *early, last = listings
    for now in early:
        assert _poll_at(scanner, clock, now) == [], f"handed out at {now} s, inside the window"
    assert _poll_at(scanner, clock, last) == [upload]


def test_scan_restarts_the_window_on_a_stamp_change(settling, clock):
    scanner, upload = settling
    assert _poll_at(scanner, clock, 0.0) == []
    assert _poll_at(scanner, clock, 0.25) == []
    upload.write_bytes(b"v1-and-more")
    _stamp(upload, 1001.0)
    for now in (0.5, 0.75, 1.0, 1.25):
        assert _poll_at(scanner, clock, now) == [], f"handed out at {now} s, inside the restarted window"
    assert _poll_at(scanner, clock, 1.5) == [upload]


def test_scan_hands_a_settled_file_out_once(settling, clock):
    scanner, upload = settling
    handed = [path for step in range(13) for path in _poll_at(scanner, clock, step * 0.25)]
    assert handed == [upload]


def test_scan_removed_file_leaves_no_state(settling, clock):
    scanner, upload = settling
    assert _poll_at(scanner, clock, 0.0) == []
    assert _poll_at(scanner, clock, 0.25) == []
    upload.unlink()
    assert _poll_at(scanner, clock, 0.5) == []
    assert vars(scanner) == vars(InboxScanner(scanner.inbox, settle_secs=1.0))

    # Back with the same stamp: a new arrival whose window starts now.
    upload.write_bytes(b"v1")
    _stamp(upload, 1000.0)
    for now in (0.75, 1.0, 1.25, 1.5):
        assert _poll_at(scanner, clock, now) == []
    assert _poll_at(scanner, clock, 1.75) == [upload]


class _Stream(io.RawIOBase):
    """A pipe-like sink: zipfile cannot seek back, so it writes a data descriptor after each entry."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.data += data
        return len(data)


def _zip_bytes(files, comment=b"", compression=zipfile.ZIP_DEFLATED, sink=io.BytesIO):
    buffer = sink()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        for name, content in files.items():
            archive.writestr(name, content)
        archive.comment = comment
    return bytes(buffer.data) if isinstance(buffer, _Stream) else buffer.getvalue()


SOURCES = {"main.cpp": "#include <iostream>\nint main() { std::cout << 1; }\n", "notes.txt": "v1\n"}
PLAIN = _zip_bytes(SOURCES)
INNER = _zip_bytes({"old.cpp": "int main() {}\n"})
# The last entry is itself a zip, stored, so its end record sits intact inside the outer file.
NESTED = _zip_bytes({**SOURCES, "old.zip": INNER}, compression=zipfile.ZIP_STORED)
STREAMED = _zip_bytes(SOURCES, sink=_Stream)
LZMA = _zip_bytes(SOURCES, compression=zipfile.ZIP_LZMA)
END = PLAIN.rindex(b"PK\x05\x06")


def _upload(settling, data, mtime=1000.0):
    scanner, upload = settling
    upload.write_bytes(data)
    _stamp(upload, mtime)
    return scanner, upload


def _handed_at(scanner, clock, listings):
    """The first listing time at which ``scanner`` hands anything out, or None."""
    return next((now for now in listings if _poll_at(scanner, clock, now)), None)


def test_scan_hands_a_whole_zip_out_at_the_first_listing(settling, clock):
    scanner, upload = _upload(settling, PLAIN)
    assert _poll_at(scanner, clock, 0.0) == [upload]
    assert all(_poll_at(scanner, clock, step * 0.25) == [] for step in range(1, 8))


@pytest.mark.parametrize(
    "archive",
    [PLAIN, _zip_bytes(SOURCES, comment=b"resubmitted after the deadline"), NESTED, STREAMED],
    ids=["plain", "comment", "stored-inner-zip", "data-descriptors"],
)
def test_scan_hands_no_proper_prefix_of_a_zip_out_before_the_window(tmp_path, clock, archive):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    upload = inbox / "Ada_Lovelace_3.zip"
    for cut in range(len(archive) + 1):
        upload.write_bytes(archive[:cut])
        _stamp(upload, 1000.0 + cut)
        scanner = InboxScanner(inbox, settle_secs=1.0)
        handed = _handed_at(scanner, clock, (0.0, 0.25, 0.5, 0.75, 1.0))
        expected = 0.0 if cut == len(archive) else 1.0
        assert handed == expected, f"cut at {cut} of {len(archive)} bytes handed out at {handed} s"


def test_streamed_archive_has_data_descriptors():
    assert STREAMED.count(b"PK\x07\x08") == len(SOURCES)


def test_nested_archive_has_a_proper_prefix_that_ends_with_an_end_record():
    # The cut the prefix test must survive: the stored inner archive's end record ends it.
    inner_end = NESTED.index(INNER) + len(INNER)
    assert inner_end < len(NESTED)
    assert NESTED.rfind(b"PK\x05\x06", 0, inner_end) == inner_end - 22


def _zip64():
    """A real archive with a Zip64 end record and locator, as a writer with more than 65,535 entries makes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", 0)
        data = _zip_bytes(SOURCES)
    assert b"PK\x06\x06" in data and b"PK\x06\x07" in data
    return data


def _with_end_field(data, offset, value):
    """``data`` with the 16-bit field at ``offset`` in its end record set to ``value``."""
    end = data.rindex(b"PK\x05\x06")
    return data[: end + offset] + struct.pack("<H", value) + data[end + offset + 2 :]


def _entry_crc_flipped(data):
    """``data`` with the CRC-32 in its first central directory record changed."""
    crc = data.index(b"PK\x01\x02") + 16
    return data[:crc] + bytes(b ^ 0xFF for b in data[crc : crc + 4]) + data[crc + 4 :]


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"#!/bin/sh\nexit 0\n" + PLAIN, id="self-extracting"),
        # Starts with a local header; only the directory offset gives it away.
        pytest.param(PLAIN[:30] + PLAIN, id="prepended-local-header"),
        pytest.param(b"\0" + PLAIN[1:], id="no-local-header"),
        pytest.param(PLAIN + b"\0" * 16, id="trailing-junk"),
        pytest.param(PLAIN + b"PK\x05\x06", id="trailing-signature"),
        # zipfile too reads the last signature, here the one in the comment.
        pytest.param(_zip_bytes(SOURCES, comment=b"PK\x05\x06" + bytes(18)), id="signature-in-comment"),
        pytest.param(_zip64(), id="zip64"),
        pytest.param(_with_end_field(_with_end_field(PLAIN, 8, 0xFFFF), 10, 0xFFFF), id="entry-count-sentinel"),
        pytest.param(_with_end_field(PLAIN, 4, 1), id="second-disk"),
        pytest.param(b"PK\x03\x04" + b"\0" * 200, id="header-only"),
        pytest.param(b"v1", id="not-a-zip"),
        pytest.param(b"", id="empty"),
        pytest.param(_entry_crc_flipped(PLAIN), id="crc-flipped"),
        pytest.param(_zip_bytes({**SOURCES, "big.txt": bytes(ingest.CRC_CHECK_BUDGET)}), id="over-budget"),
        # zipfile raises lzma.LZMAError for these, which is neither OSError nor BadZipFile.
        pytest.param(damaged_lzma_zip("main.cpp", SOURCES["main.cpp"], "properties"), id="lzma-bad-properties"),
        pytest.param(damaged_lzma_zip("main.cpp", SOURCES["main.cpp"], "data"), id="lzma-bad-data"),
    ],
)
def test_scan_waits_the_window_for_bytes_that_are_not_one_whole_zip(settling, clock, data):
    scanner, upload = _upload(settling, data)
    assert _handed_at(scanner, clock, (0.0, 0.25, 0.5, 0.75, 1.0)) == 1.0


@pytest.mark.parametrize("offset", range(22))
def test_scan_waits_the_window_for_any_byte_changed_in_the_end_record(settling, clock, offset):
    data = bytearray(PLAIN)
    data[END + offset] ^= 0xFF
    scanner, upload = _upload(settling, bytes(data))
    assert _handed_at(scanner, clock, (0.0, 0.25, 0.5, 0.75, 1.0)) == 1.0


@pytest.mark.parametrize("part", ["properties", "data"])
def test_damaged_lzma_archive_raises_lzma_error_in_zipfile(part):
    data = damaged_lzma_zip("main.cpp", SOURCES["main.cpp"], part)
    with zipfile.ZipFile(io.BytesIO(data)) as archive, pytest.raises(lzma.LZMAError):
        archive.read("main.cpp")


def test_scan_treats_any_error_in_the_entry_check_as_not_whole(settling, monkeypatch):
    def broken(upload, directory):
        raise ValueError("not an error zipfile is known to raise")

    monkeypatch.setattr(ingest, "_entries_fill", broken)
    scanner, upload = _upload(settling, PLAIN)
    stat = upload.stat()
    assert not ingest._is_whole_zip(upload, (stat.st_size, stat.st_mtime))


def test_scan_waits_the_window_for_a_link_to_a_whole_zip(settling, clock):
    scanner, upload = settling
    target = upload.parent.parent / "elsewhere.zip"
    target.write_bytes(PLAIN)
    _stamp(target, 1000.0)
    upload.unlink()
    upload.symlink_to(target)
    assert _poll_at(scanner, clock, 0.0) == [], "a link is never read as a whole zip"
    assert _handed_at(scanner, clock, (0.25, 0.5, 0.75, 1.0)) == 1.0


def _dangling_link(path):
    path.symlink_to(path.with_name("gone.zip"))


def _socket(path):
    with socket.socket(socket.AF_UNIX) as listener:
        listener.bind(str(path))  # the socket file outlives the socket


@pytest.mark.parametrize("make", [_dangling_link, os.mkfifo, _socket], ids=["dangling-link", "fifo", "socket"])
def test_scan_hands_an_upload_that_is_not_a_regular_file_out_after_the_window(settling, clock, make):
    scanner, upload = settling
    upload.unlink()
    make(upload)
    assert _poll_at(scanner, clock, 0.0) == []
    assert _handed_at(scanner, clock, (0.25, 0.5, 0.75, 1.0)) == 1.0
    assert _poll_at(scanner, clock, 1.25) == [], "handed out once"


def test_a_zip_that_changed_since_its_listing_is_not_whole(settling):
    scanner, upload = _upload(settling, PLAIN)
    stat = upload.stat()
    assert ingest._is_whole_zip(upload, (stat.st_size, stat.st_mtime))
    assert not ingest._is_whole_zip(upload, (stat.st_size, stat.st_mtime - 1))
    assert not ingest._is_whole_zip(upload, (stat.st_size - 1, stat.st_mtime))


def test_scan_restarts_the_window_when_a_whole_zip_changes(settling, clock):
    scanner, upload = _upload(settling, PLAIN)
    assert _poll_at(scanner, clock, 0.0) == [upload]
    _upload(settling, PLAIN[:-1], mtime=1001.0)
    assert _handed_at(scanner, clock, (0.25, 0.5, 0.75, 1.0)) is None
    _upload(settling, NESTED, mtime=1002.0)
    assert _poll_at(scanner, clock, 1.25) == [upload], "a whole zip is ready at the listing that sees its new stamp"


def _files_of(data, tmp_path, name):
    """What ``extract_archive`` writes for ``data``: {path: bytes}, or its rejection reason."""
    archive = tmp_path / f"{name}.zip"
    archive.write_bytes(data)
    workspace = tmp_path / name
    files = extract(archive, workspace)
    return files.reason if isinstance(files, ArchiveRejected) else {f: (workspace / f).read_bytes() for f in files}


@pytest.mark.parametrize("archive", [PLAIN, NESTED, STREAMED], ids=["plain", "stored-inner-zip", "data-descriptors"])
def test_scan_hands_out_a_zip_with_a_hole_only_if_it_extracts_as_the_whole(tmp_path, clock, archive):
    # A writer that fills a preallocated file out of order leaves zeroed runs behind
    # while its header and end record are already in place.
    finished = _files_of(archive, tmp_path, "finished")
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    upload = inbox / "Ada_Lovelace_3.zip"
    early = 0
    for hole in range(0, len(archive) - 15):
        data = archive[:hole] + bytes(16) + archive[hole + 16 :]
        upload.write_bytes(data)
        _stamp(upload, 1000.0 + hole)
        handed = _handed_at(InboxScanner(inbox, settle_secs=1.0), clock, (0.0, 0.25, 0.5, 0.75, 1.0))
        assert handed in (0.0, 1.0), f"hole at {hole} handed out at {handed} s"
        if handed == 0.0:
            early += 1
            assert _files_of(data, tmp_path, f"hole{hole}") == finished, f"hole at {hole} extracts differently"
    assert 0 < early < len(archive) // 2


def test_scan_checks_each_stamp_of_a_file_once(settling, clock, monkeypatch):
    checked = []

    def counting(path, stamp, check=ingest._is_whole_zip):
        checked.append(stamp)
        return check(path, stamp)

    monkeypatch.setattr(ingest, "_is_whole_zip", counting)
    scanner, upload = _upload(settling, b"v1")
    assert _handed_at(scanner, clock, [step * 0.25 for step in range(8)]) == 1.0
    _upload(settling, PLAIN, mtime=1001.0)
    assert _poll_at(scanner, clock, 2.0) == [upload]
    assert all(_poll_at(scanner, clock, 2.0 + step * 0.25) == [] for step in range(1, 8))
    assert checked == [(2, 1000.0), (len(PLAIN), 1001.0)]


# -- extraction ---------------------------------------------------------------


def test_extract_happy_path(tmp_path):
    archive = make_zip(
        tmp_path / "Ada_Lovelace_3.zip",
        {"main.cpp": "int main() {}\n", "util/helper.h": "#pragma once\n", "notes.txt": "hi\n"},
    )
    files = extract(archive, tmp_path / "ws")
    assert files == ("main.cpp", "notes.txt", "util/helper.h")
    assert (tmp_path / "ws" / "main.cpp").read_text() == "int main() {}\n"
    assert (tmp_path / "ws" / "util" / "helper.h").exists()
    assert (tmp_path / "ws" / "notes.txt").exists()


def test_extract_skips_disallowed_extensions_quietly(tmp_path):
    archive = make_zip(
        tmp_path / "Ada_Lovelace_3.zip",
        {"main.cpp": "int main() {}\n", "solution.exe": b"\x7fELF junk", "img.png": b"\x89PNG"},
    )
    assert extract(archive, tmp_path / "ws") == ("main.cpp",)
    assert sorted(p.name for p in (tmp_path / "ws").iterdir()) == ["main.cpp"]


def test_extract_refuses_a_workspace_that_exists_and_writes_nothing_into_it(tmp_path):
    # The caller names a fresh directory for each extraction; one that exists is another's, and is left as it is.
    workspace = tmp_path / "ws"
    workspace.mkdir()
    (workspace / "leftover.cpp").write_text("old\n")
    archive = make_zip(tmp_path / "Ada_Lovelace_3.zip", {"main.cpp": "new\n"})
    with pytest.raises(FileExistsError):
        extract(archive, workspace)
    assert sorted(path.name for path in workspace.iterdir()) == ["leftover.cpp"]
    assert (workspace / "leftover.cpp").read_text() == "old\n"


def test_extract_duplicate_entries_last_wins(tmp_path):
    archive = tmp_path / "Ada_Lovelace_3.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("main.cpp", "first\n")
        zf.writestr("./main.cpp", "second\n")
    assert extract(archive, tmp_path / "ws") == ("main.cpp",)
    assert (tmp_path / "ws" / "main.cpp").read_text() == "second\n"


@pytest.mark.parametrize("entries", [
    ["main.cpp", "main.cpp/x.cpp"],
    ["main.cpp/x.cpp", "main.cpp"],
    ["a/b.h", "a/b.h/c/d.cpp"],
])
def test_extract_path_collision(tmp_path, entries):
    archive = tmp_path / "Ada_Lovelace_3.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for name in entries:
            zf.writestr(name, "int x;\n")
    assert rejection(archive, tmp_path / "ws") == "path-collision"
    assert not (tmp_path / "ws").exists(), "a collision is caught before anything is written"


def test_extract_corrupt_archive(tmp_path):
    archive = tmp_path / "Ada_Lovelace_3.zip"
    archive.write_bytes(b"PK\x03\x04 this is not a zip at all")
    assert rejection(archive, tmp_path / "ws") == "corrupt-archive"
    assert not (tmp_path / "ws").exists()


def test_extract_truncated_archive_cleans_up(tmp_path):
    intact = make_zip(tmp_path / "full.zip", {"main.cpp": "x" * 50_000})
    data = intact.read_bytes()
    truncated = tmp_path / "Ada_Lovelace_3.zip"
    truncated.write_bytes(data[: len(data) // 2])
    assert rejection(truncated, tmp_path / "ws") == "corrupt-archive"
    assert not (tmp_path / "ws").exists()


def test_extract_returns_files_or_a_rejection_for_any_damaged_archive(tmp_path):
    # 1 to 4 random bytes of a real archive changed: bad deflate or LZMA data, negative
    # offsets, undecodable UTF-8 names and empty names must all be quarantined.
    rng = random.Random(10)
    archive = tmp_path / "Ada_Lovelace_3.zip"
    rejected = 0
    for trial in range(2000):
        data = bytearray(rng.choice((PLAIN, NESTED, LZMA)))
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        archive.write_bytes(data)
        stat = archive.stat()
        whole = ingest._is_whole_zip(archive, (stat.st_size, stat.st_mtime))
        result = extract(archive, tmp_path / f"ws{trial}")
        assert isinstance(result, (tuple, ArchiveRejected)), f"trial {trial}: {result!r}"
        if isinstance(result, ArchiveRejected):
            rejected += 1
            assert not (whole and result.reason == "corrupt-archive"), f"trial {trial} passed the scanner's CRC check"
    assert 0 < rejected < 2000


def test_extract_skips_an_entry_with_an_empty_name(tmp_path):
    archive = tmp_path / "Ada_Lovelace_3.zip"
    with zipfile.ZipFile(archive, "w") as writer:
        writer.writestr(zipfile.ZipInfo(""), b"nameless")
        writer.writestr("main.cpp", "int main() {}\n")
    assert extract(archive, tmp_path / "ws") == ("main.cpp",)


def test_extract_no_source_files(tmp_path):
    archive = make_zip(tmp_path / "Ada_Lovelace_3.zip", {"solution.exe": b"junk"})
    assert rejection(archive, tmp_path / "ws") == "no-source-files"
    empty = make_zip(tmp_path / "Bob_Byron_3.zip", {})
    assert rejection(empty, tmp_path / "ws2") == "no-source-files"


def test_extract_entry_count_limit(tmp_path):
    files = {f"f{i}.cpp": "int x;\n" for i in range(11)}
    archive = make_zip(tmp_path / "Ada_Lovelace_3.zip", files)
    limits = ExtractionLimits(max_entry_count=10)
    assert rejection(archive, tmp_path / "ws", limits) == "limit-exceeded:max-entry-count"


def test_extract_total_bytes_limit_stops_streaming(tmp_path):
    archive = make_zip(
        tmp_path / "Ada_Lovelace_3.zip",
        {"a.cpp": "x" * 4000, "b.cpp": "y" * 4000},
    )
    limits = ExtractionLimits(max_total_bytes=5000)
    assert rejection(archive, tmp_path / "ws", limits) == "limit-exceeded:max-total-bytes"
    assert sum(path.stat().st_size for path in (tmp_path / "ws").rglob("*.cpp")) <= 5000


def test_extract_path_depth_limit(tmp_path):
    archive = make_zip(tmp_path / "Ada_Lovelace_3.zip", {"a/b/c/d/e.cpp": "int x;\n"})
    limits = ExtractionLimits(max_path_depth=4)
    assert rejection(archive, tmp_path / "ws", limits) == "limit-exceeded:max-path-depth"
    shallow = make_zip(tmp_path / "Bob_Byron_3.zip", {"a/b/c/e.cpp": "int x;\n"})
    assert extract(shallow, tmp_path / "ws2", limits) == ("a/b/c/e.cpp",)


@pytest.mark.parametrize("evil", ["../escape.cpp", "safe/../../escape.cpp", "/etc/evil.cpp"])
def test_extract_path_traversal(tmp_path, evil):
    archive = tmp_path / "Ada_Lovelace_3.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("ok.cpp", "int x;\n")
        zf.writestr(evil, "gotcha\n")
    assert rejection(archive, tmp_path / "ws") == "path-traversal"
    assert not (tmp_path / "escape.cpp").exists()


def test_extraction_limits_validate():
    with pytest.raises(ValueError):
        ExtractionLimits(max_total_bytes=0)
    with pytest.raises(ValueError):
        ExtractionLimits(max_entry_count=-5)
    with pytest.raises(ValueError):
        ExtractionLimits(allowed_extensions=frozenset({"cpp"}))


# -- quarantine ---------------------------------------------------------------


def test_quarantine_moves_archive_and_writes_reason(tmp_path):
    archive = tmp_path / "inbox" / "Bad.zip"
    archive.parent.mkdir()
    archive.write_bytes(b"junk")
    moved = quarantine_archive(archive, "corrupt-archive", tmp_path / "quarantine")
    assert not archive.exists()
    assert moved == tmp_path / "quarantine" / "Bad.zip"
    reason = (tmp_path / "quarantine" / "Bad.zip.reason.txt").read_text()
    assert reason == "corrupt-archive\n"


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a link an owner other than itself")
def test_archive_owner_is_the_owner_of_a_link_not_of_its_target(tmp_path):
    target = tmp_path / "Ada_Lovelace_3.zip"
    target.write_bytes(b"junk")
    link = tmp_path / "Eve_Mallory_3.zip"
    link.symlink_to(target)
    nobody = pwd.getpwnam("nobody")
    os.lchown(link, nobody.pw_uid, -1)
    assert archive_owner(link) == "nobody"
    assert archive_owner(target) == pwd.getpwuid(os.geteuid()).pw_name


def test_quarantine_keeps_earlier_evidence(tmp_path):
    quarantine = tmp_path / "quarantine"
    for round_number in (1, 2):
        archive = tmp_path / "Bad.zip"
        archive.write_bytes(b"junk %d" % round_number)
        quarantine_archive(archive, "corrupt-archive", quarantine)
    names = sorted(p.name for p in quarantine.iterdir())
    assert "Bad.zip" in names
    assert "Bad.zip.2" in names


def test_quarantine_keeps_an_earlier_link_whose_target_is_gone(tmp_path):
    quarantine = tmp_path / "quarantine"
    link = tmp_path / "Eve_Mallory_3.zip"
    link.symlink_to(tmp_path / "gone.zip")
    quarantine_archive(link, "not-a-regular-file", quarantine)
    link.write_bytes(b"junk")
    quarantine_archive(link, "corrupt-archive", quarantine)
    assert (quarantine / "Eve_Mallory_3.zip").is_symlink()
    assert (quarantine / "Eve_Mallory_3.zip.2").read_bytes() == b"junk"


def test_extract_rejects_a_socket(tmp_path):
    with socket.socket(socket.AF_UNIX) as listener:
        listener.bind(str(tmp_path / "s.zip"))
        assert rejection(tmp_path / "s.zip", tmp_path / "ws") == "not-a-regular-file"
    assert not (tmp_path / "ws").exists()
