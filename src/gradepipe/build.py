"""Compilation of an extracted submission workspace.

The compiler is described by a command template rather than hard-coded, so a
course can swap g++ flags or an entirely different toolchain per assignment.
Compilation runs with the workspace as the working directory and sources
given as relative paths; diagnostics therefore never leak absolute paths and
identical submissions produce byte-identical diagnostics wherever they are
graded.

Parsing ``<iostream>`` is most of the compile time of a small program, so a
session can precompile it once with the assignment's own command; see
:class:`PrecompiledHeaders`.
"""

from __future__ import annotations

import codecs
import io
import os
import re
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .child import argument_problem, run_child

# Extensions handed to the compiler as translation units. Headers are found
# by the compiler itself via include paths.
COMPILE_EXTENSIONS = frozenset({".cpp", ".cc", ".cxx", ".c"})

SOURCES_TOKEN = "{sources}"
OUTPUT_TOKEN = "{output}"

# The binary the compiler writes into the workspace.
OUTPUT_NAME = "program"

DEFAULT_COMPILER_COMMAND = ("g++", "-std=c++17", SOURCES_TOKEN, "-o", OUTPUT_TOKEN)
DEFAULT_COMPILE_TIMEOUT = 30.0

# Captured compiler output is cut after either limit, and the cut is noted.
MAX_OUTPUT_BYTES = 64 * 1024
MAX_OUTPUT_LINES = 500
# The line boundaries of str.splitlines once "\r" has become "\n".
_LINE_ENDS = "\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# A translation unit that includes <iostream> spends most of its compile time
# parsing it, so a session precompiles that header. <cstdio> is left out; its
# PCH saves 8 ms of an 88 ms compile.
PCH_HEADER = "iostream"
# Blanks only, never \s: a match must not run on across lines.
_PCH_INCLUDE = re.compile(rb"^[ \t]*#[ \t]*include[ \t]*<iostream>", re.M)
# Only a compile that prints nothing keeps its result under the PCH; any other
# runs again cold. The build costs about what three compiles save, so it waits
# for this many silent compiles that include the header, and the PCH is built
# and used only while the noisy ones are no more than the silent ones. (For a
# leap-year program, g++ 12 on 2 vCPUs, a silent compile saves about 0.37 s
# and a noisy one costs about 0.25 s more: past about 60% noisy it loses.)
PCH_BUILD_AFTER_SILENT = 2
# A batch bounds the compiles still to come (see expect()), and the build then
# also waits for at least this many, the one that builds included, to use it.
# (With --jobs 2 and all-<iostream> batches on the box above, 8 archives, so
# 6 left at the build, came out even with no PCH; 4 lost 0.7 s; 9 or more gain.)
PCH_BUILD_FOR_AT_LEAST = 7


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

    command: tuple[str, ...] = DEFAULT_COMPILER_COMMAND
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
        if problem := argument_problem(self.command):
            raise ValueError(f"compiler command tokens {problem}")
        if not (isinstance(self.timeout_secs, (int, float)) and not isinstance(self.timeout_secs, bool)
                and 0 < self.timeout_secs <= sys.float_info.max):
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
    output_path: Path | None = None
    raw_output: str = ""


class _CappedOutput:
    """Compiler output taken in as it is read, keeping only what the output limits allow.

    The first lines, up to ``MAX_OUTPUT_LINES`` lines and ``MAX_OUTPUT_BYTES``
    bytes (UTF-8), are kept, and one ``note: N lines omitted`` line says how
    many went; output within both limits is returned unchanged. Lines are
    those of ``str.splitlines`` on the whole output, decoded as UTF-8 with
    universal newlines. Text is held until a read takes it past either
    limit (a character is at least a byte); after that only line ends count.
    """

    def __init__(self) -> None:
        utf8 = codecs.getincrementaldecoder("utf-8")(errors="replace")
        self._decoder = io.IncrementalNewlineDecoder(utf8, translate=True)
        self._held = ""  # the output, until a read takes it past a limit
        self._ends = 0  # line ends in the whole output
        self._open = False  # whether the output so far ends inside a line

    def feed(self, data: bytes, final: bool = False) -> bool:
        text = self._decoder.decode(data, final)
        if len(self._held) <= MAX_OUTPUT_BYTES and self._ends <= MAX_OUTPUT_LINES:
            self._held += text
        self._ends += sum(map(text.count, _LINE_ENDS))
        if text:
            self._open = text[-1] not in _LINE_ENDS
        return True  # the output is cut, never the compiler

    def text(self) -> str:
        """The kept output and the omission note, once the output has ended."""
        self.feed(b"", final=True)
        kept, size = [], 0
        for line in self._held.splitlines(keepends=True)[:MAX_OUTPUT_LINES]:
            size += len(line.encode("utf-8"))
            if size > MAX_OUTPUT_BYTES:
                break
            kept.append(line)
        omitted = self._ends + self._open - len(kept)
        return "".join(kept) + (f"note: {omitted} lines omitted\n" if omitted else "")


def _names_gcc(executable: str, timeout: float) -> bool:
    """Whether ``executable --version`` reads like GCC's banner."""
    output = _CappedOutput()
    try:
        exit_code, _ = run_child([executable, "--version"], None, timeout, output.feed, merge_stderr=True)
    except OSError:
        return False
    # "g++ (Debian 12.2.0-14) 12.2.0" ... "Free Software Foundation"; clang
    # says "clang version", and a shell's banner has no "(...) N" shape.
    banner = output.text()
    return (
        exit_code == 0
        and re.match(r"\S+ \([^)\n]*\) \d", banner) is not None
        and "Free Software Foundation" in banner
    )


def _includes_iostream(workspace: Path, sources: Sequence[str]) -> bool:
    """Whether a translation unit among ``sources`` has a line ``#include <iostream>``."""
    return any(_PCH_INCLUDE.search((workspace / name).read_bytes()) for name in sources)


def _stamp(include: Path) -> tuple[int, ...] | None:
    """Identity and last change of ``include`` and its ``.gch``, or None if either is gone.

    A write, a new entry or a replaced file changes the ``st_ctime_ns`` of
    one of the two, and no process can set that back.
    """
    try:
        stats = (include.stat(), (include / f"{PCH_HEADER}.gch").stat())
    except OSError:
        return None
    return tuple(n for st in stats for n in (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns))


class PrecompiledHeaders:
    """The precompiled ``<iostream>`` of one session, built once it pays off.

    It counts the compiles whose sources include ``<iostream>`` as silent
    (succeeded and printed nothing) or noisy. Once ``PCH_BUILD_AFTER_SILENT``
    were silent and no more were noisy, :meth:`include_dir` builds
    ``iostream.gch`` once, with that compile's command and flags (other
    compiles run cold meanwhile), so GCC accepts it exactly where it would
    have parsed the header itself. GCC looks for ``iostream.gch`` in each
    include directory before ``iostream``, so a compile that names the
    returned directory first in ``CPLUS_INCLUDE_PATH`` loads it instead of
    parsing the header. There is no PCH unless ``<compiler> --version``
    names GCC (clang would need ``-include-pch``, which changes the command)
    and the build exits 0 without printing anything.

    A batch that knows its size bounds the compiles to come with
    :meth:`expect`, and the build is skipped when too few are left to pay it
    back. The PCH is not used while noisy compiles outnumber silent ones,
    and is dropped for the rest of the session if the directory or the
    ``.gch`` changes after the build (a student binary runs as the same
    user and could rewrite it).

    Nothing runs and nothing is created until the build. The files live in
    one ``.pch-*`` directory under ``root``, which :meth:`close` removes.
    """

    def __init__(self, root: Path):
        self.root = root
        self._lock = threading.Lock()
        self._silent = 0
        self._noisy = 0
        self._started = False
        self._ahead: int | None = None
        self._dir: Path | None = None
        self._stamp: tuple[int, ...] | None = None

    def include_dir(self, profile: CompilerProfile) -> Path | None:
        """The directory to search first for a compile that wants the PCH, or None to compile cold."""
        with self._lock:
            pays = self._silent >= PCH_BUILD_AFTER_SILENT and self._noisy <= self._silent
            enough = self._ahead is None or self._ahead >= PCH_BUILD_FOR_AT_LEAST
            build = pays and enough and not self._started
            self._started = self._started or build
            if self._ahead is not None:
                self._ahead -= 1
        if build:
            # Only one compile gets here; the others compile cold meanwhile.
            stamp = _stamp(self._dir / "include") if self._build(profile) else None
            with self._lock:
                self._stamp = stamp
        with self._lock:
            if not pays or self._stamp is None:
                return None
            if _stamp(self._dir / "include") != self._stamp:
                self._stamp = None
                return None
            return self._dir / "include"

    def expect(self, compiles: int | None) -> None:
        """Bound the compiles still to come that may want the PCH, or lift the bound with None.

        Each compile that wants it counts the bound down, and the build is
        skipped while fewer than ``PCH_BUILD_FOR_AT_LEAST`` are left. With
        no bound (watch mode, or outside a batch) the build waits only for
        the silent compiles.
        """
        with self._lock:
            self._ahead = compiles

    def record(self, silent: bool) -> None:
        """Count a finished compile that wanted the PCH."""
        with self._lock:
            if silent:
                self._silent += 1
            else:
                self._noisy += 1

    def _build(self, profile: CompilerProfile) -> bool:
        if not _names_gcc(profile.command[0], profile.timeout_secs):
            return False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._dir = Path(tempfile.mkdtemp(prefix=".pch-", dir=self.root))
        except OSError:
            return False
        # The wrapper lives outside the include directory: found there, it
        # would include itself.
        wrapper = Path("wrap", PCH_HEADER)
        target = self._dir / "include" / f"{PCH_HEADER}.gch"
        partial = target.with_name(target.name + ".tmp")
        try:
            (self._dir / wrapper).parent.mkdir()
            (self._dir / wrapper).write_text(f"#include <{PCH_HEADER}>\n", encoding="utf-8")
            target.parent.mkdir()
            # A build that prints anything is not used, so its first output ends it.
            exit_code, _ = run_child(
                profile.expand(["-x", "c++-header", str(wrapper)], str(partial.relative_to(self._dir))),
                self._dir,
                profile.timeout_secs,
                lambda chunk: False,
                merge_stderr=True,
            )
            if exit_code != 0 or not partial.is_file():
                return False
            os.replace(partial, target)
            return True
        except OSError:
            return False
        finally:
            partial.unlink(missing_ok=True)

    def close(self) -> None:
        """Remove the PCH directory, if one was made."""
        with self._lock:
            self._stamp = None
            if self._dir is not None:
                shutil.rmtree(self._dir, ignore_errors=True)
                self._dir = None


def compile_workspace(
    workspace: Path,
    profile: CompilerProfile,
    files: Sequence[str],
    pch: PrecompiledHeaders | None = None,
) -> CompileResult:
    """Compile the translation units among ``files`` into one binary.

    ``files`` are workspace-relative paths in sorted order, as extraction
    returns them; only those with a :data:`COMPILE_EXTENSIONS` suffix are
    handed to the compiler, and one that starts with ``-`` as ``./<path>``,
    so no file name becomes a compiler option. Returns a failed result
    (never raises) for ordinary build problems: student code that does not compile, a workspace
    with no sources, a build that exceeds the time limit, or a compiler that
    claims success without producing the binary. Only a missing compiler
    executable raises, as :class:`CompilerNotFound`, because that is an
    environment fault rather than a property of the submission.

    With ``pch``, a workspace that includes ``<iostream>`` may first be
    compiled with the PCH directory prepended to ``CPLUS_INCLUDE_PATH`` in
    the compiler's environment. That result is kept only if the compiler
    exited 0, printed nothing and wrote the binary, or if it printed nothing
    before it ran out of time: a cold compile that does that reports the
    same. Otherwise the binary is deleted and the cold compile runs, and its
    result is returned: under a PCH a note inside a library header names the
    wrapper header in its include chain, not the student's file. The command
    is the same either way.
    """
    # A path that starts with "-" would reach the compiler as an option.
    sources = [f"./{name}" if name.startswith("-") else name for name in files
               if Path(name).suffix.lower() in COMPILE_EXTENSIONS]
    if not sources:
        diagnostic = Diagnostic(DiagnosticSeverity.ERROR, "error: no source files found in submission")
        return CompileResult(False, (diagnostic,), raw_output=diagnostic.text)

    command = profile.expand(sources, OUTPUT_NAME)
    if pch is None or not _includes_iostream(workspace, sources):
        return _run_compiler(command, workspace, profile, None)
    include_dir = pch.include_dir(profile)
    if include_dir is not None:
        inherited = os.environ.get("CPLUS_INCLUDE_PATH")
        # An empty element would mean the working directory.
        search = os.pathsep.join([str(include_dir)] + ([inherited] if inherited else []))
        warm = _run_compiler(command, workspace, profile, {**os.environ, "CPLUS_INCLUDE_PATH": search})
        silent = warm.succeeded and not warm.raw_output
        if silent or warm.raw_output == _timeout_notice(profile):  # a timeout is not run twice
            pch.record(silent=silent)
            return warm
        (workspace / OUTPUT_NAME).unlink(missing_ok=True)
    cold = _run_compiler(command, workspace, profile, None)
    pch.record(silent=include_dir is None and cold.succeeded and not cold.raw_output)
    return cold


def _timeout_notice(profile: CompilerProfile) -> str:
    return f"error: compilation exceeded the {profile.timeout_secs:g} second limit"


def _run_compiler(
    command: tuple[str, ...], workspace: Path, profile: CompilerProfile, env: dict[str, str] | None
) -> CompileResult:
    output = _CappedOutput()
    try:
        exit_code, timed_out = run_child(
            command, workspace, profile.timeout_secs, output.feed, env=env, merge_stderr=True
        )
    except FileNotFoundError as exc:
        raise CompilerNotFound(f"compiler executable {command[0]!r} not found") from exc
    raw = output.text()
    output_path = workspace / OUTPUT_NAME
    if timed_out:
        notice = _timeout_notice(profile)
    elif exit_code == 0 and not output_path.is_file():
        notice = "error: compiler reported success but produced no output file"
    else:
        notice = ""
    if notice:
        raw = raw + ("\n" if raw and not raw.endswith("\n") else "") + notice
    succeeded = exit_code == 0 and not notice
    return CompileResult(succeeded, classify_diagnostics(raw), output_path if succeeded else None, raw)
