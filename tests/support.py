"""Shared helpers for the test suite: fixture sources and archive building."""

from __future__ import annotations

import io
import json
import os
import time
import zipfile
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"
SPEC_PATH = DATA_DIR / "assignment3.yaml"


def source(name: str) -> str:
    return (DATA_DIR / name).read_text(encoding="utf-8")


def make_zip(path: Path, files: dict[str, str | bytes]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w") as archive:
        for name, content in files.items():
            archive.writestr(name, content)
    return path


def damaged_lzma_zip(name: str, content: str, part: str) -> bytes:
    """A one-entry ZIP_LZMA archive with its ``part``, "properties" or "data", overwritten with 0xFF bytes.

    zipfile's LZMA decompressor raises ``lzma.LZMAError`` reading either one.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_LZMA) as archive:
        archive.writestr(name, content)
    data = buffer.getvalue()
    # The entry's data opens with a 2-byte version and a 2-byte size, then 5 bytes of properties.
    start = 30 + len(name.encode()) + 4 + (5 if part == "data" else 0)
    length = {"properties": 5, "data": 8}[part]
    return data[:start] + b"\xff" * length + data[start + length :]


def make_program(directory: Path, body: str, name: str = "prog.sh") -> Path:
    """Write an executable shell script to stand in for a compiled binary."""
    path = directory / name
    path.write_text("#!/bin/sh\n" + body + "\n", encoding="utf-8")
    path.chmod(0o755)
    return path


def read_report(reports_dir: Path, stem: str) -> dict:
    return json.loads((reports_dir / f"{stem}.report.json").read_text(encoding="utf-8"))



def built_pch(pch, profile) -> Path:
    """Build the PCH as a compile that wants it would, and return its include directory."""
    include = pch.include_dir(profile)
    assert include is not None, "the precompiled header was not built"
    return include


def wait_until_dead(pid: int, within: float = 1.0) -> bool:
    """Whether ``pid`` is gone or a zombie within ``within`` seconds.

    A zombie counts as dead: nothing runs, and an orphan's zombie may never
    be reaped where PID 1 does not reap. A pid still running after the wait
    is killed, so a failed check leaves nothing behind.
    """
    deadline = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        if state == "Z":
            return True
        if time.monotonic() >= deadline:
            os.kill(pid, 9)
            return False
        time.sleep(0.01)
