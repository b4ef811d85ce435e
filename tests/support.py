"""Shared helpers for the test suite: fixture sources and archive building."""

from __future__ import annotations

import json
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
