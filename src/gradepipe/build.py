"""Compilation of an extracted submission workspace.

The compiler is described by a command template rather than hard-coded, so a
course can swap g++ flags or an entirely different toolchain per assignment.
Compilation runs with the workspace as the working directory and sources
given as relative paths; diagnostics therefore never leak absolute paths and
identical submissions produce byte-identical diagnostics wherever they are
graded.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

# Extensions handed to the compiler as translation units. Headers are found
# by the compiler itself via include paths.
COMPILE_EXTENSIONS = frozenset({".cpp", ".cc", ".cxx", ".c"})

SOURCES_TOKEN = "{sources}"
OUTPUT_TOKEN = "{output}"

# The binary the compiler writes into the workspace.
OUTPUT_NAME = "program"

DEFAULT_COMPILE_TIMEOUT = 30.0


class CompilerNotFound(RuntimeError):
    """The configured compiler executable does not exist on this machine."""


class DiagnosticSeverity(Enum):
    ERROR = "Error"
    WARNING = "Warning"
    NOTE = "Note"


@dataclass(frozen=True)
class Diagnostic:
    severity: DiagnosticSeverity
    text: str


def classify_diagnostics(output: str) -> tuple[Diagnostic, ...]:
    """Split compiler output into per-line diagnostics.

    Classification is a case-insensitive substring check: a line mentioning
    "error" is an ERROR, otherwise one mentioning "warning" is a WARNING, and
    anything else (caret art, include traces) is a NOTE. Every non-blank line
    is kept, so the classified list reproduces the compiler's full message.
    """
    diagnostics: list[Diagnostic] = []
    for line in output.splitlines():
        if not line.strip():
            continue
        lowered = line.lower()
        if "error" in lowered:
            severity = DiagnosticSeverity.ERROR
        elif "warning" in lowered:
            severity = DiagnosticSeverity.WARNING
        else:
            severity = DiagnosticSeverity.NOTE
        diagnostics.append(Diagnostic(severity, line))
    return tuple(diagnostics)


@dataclass(frozen=True)
class CompilerProfile:
    """Command template plus limits for one assignment's toolchain.

    ``command`` must contain the standalone token ``{sources}`` (replaced by
    the sorted relative source paths) and the token ``{output}`` (replaced by
    the binary name, possibly embedded as in ``-o{output}``).
    """

    command: tuple[str, ...]
    timeout_secs: float = DEFAULT_COMPILE_TIMEOUT

    def __post_init__(self) -> None:
        if not self.command:
            raise ValueError("compiler command must be non-empty")
        if SOURCES_TOKEN not in self.command:
            raise ValueError(f"compiler command must contain a {SOURCES_TOKEN} token")
        if not any(OUTPUT_TOKEN in token for token in self.command):
            raise ValueError(f"compiler command must contain a {OUTPUT_TOKEN} token")
        if self.command[0] in (SOURCES_TOKEN, OUTPUT_TOKEN):
            raise ValueError("first command token must be the compiler executable")
        if not (isinstance(self.timeout_secs, (int, float)) and self.timeout_secs > 0):
            raise ValueError(f"timeout_secs must be positive, got {self.timeout_secs!r}")

    def expand(self, sources: list[str], output_name: str) -> tuple[str, ...]:
        expanded: list[str] = []
        for token in self.command:
            if token == SOURCES_TOKEN:
                expanded.extend(sources)
            else:
                expanded.append(token.replace(OUTPUT_TOKEN, output_name))
        return tuple(expanded)


@dataclass(frozen=True)
class CompileResult:
    succeeded: bool
    diagnostics: tuple[Diagnostic, ...]
    command: tuple[str, ...]
    output_path: Path | None = None
    raw_output: str = ""

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is DiagnosticSeverity.ERROR)


def compile_workspace(workspace: Path, profile: CompilerProfile, files: Sequence[str]) -> CompileResult:
    """Compile the translation units among ``files`` into one binary.

    ``files`` are workspace-relative paths in sorted order, as extraction
    returns them; only those with a :data:`COMPILE_EXTENSIONS` suffix are
    handed to the compiler. Returns a failed result (never raises) for
    ordinary build problems: student code that does not compile, a workspace
    with no sources, a build that exceeds the time limit, or a compiler that
    claims success without producing the binary. Only a missing compiler
    executable raises, as :class:`CompilerNotFound`, because that is an
    environment fault rather than a property of the submission.
    """
    sources = [name for name in files if Path(name).suffix.lower() in COMPILE_EXTENSIONS]
    if not sources:
        diagnostic = Diagnostic(DiagnosticSeverity.ERROR, "error: no source files found in submission")
        return CompileResult(False, (diagnostic,), (), raw_output=diagnostic.text)

    command = profile.expand(sources, OUTPUT_NAME)
    try:
        completed = subprocess.run(
            command,
            cwd=workspace,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=profile.timeout_secs,
            text=True,
            errors="replace",
        )
    except FileNotFoundError as exc:
        raise CompilerNotFound(f"compiler executable {command[0]!r} not found") from exc
    except subprocess.TimeoutExpired as exc:
        partial = exc.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode("utf-8", errors="replace")
        notice = f"error: compilation exceeded the {profile.timeout_secs:g} second limit"
        raw = partial + ("\n" if partial and not partial.endswith("\n") else "") + notice
        return CompileResult(False, classify_diagnostics(raw), command, raw_output=raw)

    raw = completed.stdout or ""
    output_path = workspace / OUTPUT_NAME
    if completed.returncode == 0 and not output_path.is_file():
        notice = "error: compiler reported success but produced no output file"
        raw = raw + ("\n" if raw and not raw.endswith("\n") else "") + notice
        return CompileResult(False, classify_diagnostics(raw), command, raw_output=raw)
    if completed.returncode != 0:
        return CompileResult(False, classify_diagnostics(raw), command, raw_output=raw)
    return CompileResult(True, classify_diagnostics(raw), command, output_path=output_path, raw_output=raw)
