"""Shared helpers for the test suite: fixture sources and archive building."""

from __future__ import annotations

import io
import json
import os
import subprocess
import time
import zipfile
from pathlib import Path

from gradepipe.build import CompilerProfile

DATA_DIR = Path(__file__).parent / "data"
SPEC_PATH = DATA_DIR / "assignment3.yaml"

# Where Debian binutils puts ld.gold as "ld", for GCC to find through COMPILER_PATH.
GOLD_DIR = "/usr/lib/gold-ld"
NO_GOLD = f"{GOLD_DIR}/ld is not GNU gold here, so warm compiles link with the default ld"


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


def is_terminal(event: dict) -> bool:
    """Whether a log event ends a receipt.

    A ``superseded`` event has two shapes: the end of an older receipt carries
    ``status`` and ``score``; the notice that a newer pair replaced an older
    one carries ``superseded_received_at`` and ends nothing.
    """
    return event["kind"] in ("graded", "quarantined", "errored") or "status" in event


def has_gold() -> bool:
    """Whether ``GOLD_DIR/ld --version`` opens with GNU gold's banner."""
    try:
        completed = subprocess.run([f"{GOLD_DIR}/ld", "--version"], capture_output=True, text=True, timeout=30)
    except OSError:
        return False
    return completed.returncode == 0 and completed.stdout.startswith("GNU gold")


GCC_BANNER = "g++ (Stub 12.2.0) 12.2.0\nCopyright (C) 2022 Free Software Foundation, Inc.\n"
IOSTREAM_MAIN = "#include <iostream>\nint main() {}\n"


def stub_compiler(directory: Path, banner: str = GCC_BANNER, compile_step: str = "", header_step: str = ":"):
    """A profile whose compiler is a shell script that logs every call.

    ``--version`` prints ``banner``; a ``-x c++-header`` build runs
    ``header_step`` and writes its output; a compile logs its
    ``CPLUS_INCLUDE_PATH`` and any ``COMPILER_PATH``, runs ``compile_step``,
    then writes ``program``. Returns the profile and the log's path.
    """
    log = directory / "calls.log"
    script = directory / "cc"
    script.write_text(
        "#!/bin/sh\n"
        'for out; do :; done\n'
        'case "$1" in\n'
        f"  --version) echo version >> '{log}'; printf '%s' '{banner}'; exit 0 ;;\n"
        f"  -x) echo \"build $3\" >> '{log}'; {header_step}; : > \"$out\"; exit 0 ;;\n"
        "esac\n"
        f"echo \"compile ${{CPLUS_INCLUDE_PATH-unset}}${{COMPILER_PATH+ linker $COMPILER_PATH}}\" >> '{log}'\n"
        f"{compile_step}\n"
        ': > "$out"\n',
        encoding="utf-8",
    )
    script.chmod(0o755)
    return CompilerProfile(command=(str(script), "{sources}", "-o", "{output}")), log


def header_build(root: Path, header: str = "iostream") -> str:
    """The stub's log line for the build of ``header``'s PCH in ``root``: it names the wrapper by its absolute path."""
    (pch_dir,) = root.glob(".pch-*")
    return f"build {pch_dir / header / 'wrap' / header}"


def pch_include(root: Path, header: str = "iostream") -> Path:
    """The include directory of ``header``'s PCH in ``root``."""
    (pch_dir,) = root.glob(".pch-*")
    return pch_dir / header / "include"


def calls(log: Path) -> list[str]:
    return log.read_text(encoding="utf-8").splitlines() if log.exists() else []


def built_pch(pch, profile, header: str = "iostream") -> Path:
    """Build ``header``'s PCH as a compile that wants it would in a watch, and return its include directory."""
    pch.expect(None)
    env = pch.environment(profile, {header})
    include = Path(env.get("CPLUS_INCLUDE_PATH", "").split(os.pathsep)[0])
    assert (include / f"{header}.gch").is_file(), "the precompiled header was not built"
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
