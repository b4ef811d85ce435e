import os
import random
import zipfile
from datetime import datetime, timezone

import pytest

from gradepipe import ingest
from gradepipe.ingest import (
    ArchiveRejected,
    ExtractionLimits,
    InboxScanner,
    InboxUnreadable,
    MalformedName,
    SubmissionIdentity,
    SubmissionRecord,
    extract_archive,
    parse_submission_filename,
    quarantine_archive,
    render_submission_filename,
)

from support import make_zip

RECEIVED = datetime(2026, 8, 25, 12, 0, 0, tzinfo=timezone.utc)


def extract(archive, workspace, limits=ExtractionLimits()):
    record = SubmissionRecord(SubmissionIdentity("Ada", "Lovelace", 3), archive, RECEIVED)
    return extract_archive(record, limits, workspace)


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
        assert parse_submission_filename(render_submission_filename(identity)) == identity


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


def test_extract_replaces_stale_workspace(tmp_path):
    workspace = tmp_path / "ws"
    workspace.mkdir()
    (workspace / "leftover.cpp").write_text("old\n")
    archive = make_zip(tmp_path / "Ada_Lovelace_3.zip", {"main.cpp": "new\n"})
    assert extract(archive, workspace) == ("main.cpp",)
    assert not (workspace / "leftover.cpp").exists()
    assert (workspace / "main.cpp").read_text() == "new\n"


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
    # Partial extraction must not leave a half-filled workspace behind.
    assert not (tmp_path / "ws").exists()


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


def test_quarantine_keeps_earlier_evidence(tmp_path):
    quarantine = tmp_path / "quarantine"
    for round_number in (1, 2):
        archive = tmp_path / "Bad.zip"
        archive.write_bytes(b"junk %d" % round_number)
        quarantine_archive(archive, "corrupt-archive", quarantine)
    names = sorted(p.name for p in quarantine.iterdir())
    assert "Bad.zip" in names
    assert "Bad.zip.2" in names
