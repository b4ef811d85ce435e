"""Compilation of an extracted submission workspace.

The compiler is described by a command template rather than hard-coded, so a
course can swap g++ flags or an entirely different toolchain per assignment.
Compilation runs in the workspace with sources given as relative paths. Each
randomly named object file GCC makes in its temporary directory is named
``ccXXXXXX.o`` wherever the linker quotes it, and a source it quotes by its
absolute path (under ``-g``) by its relative one; diagnostics therefore never
leak absolute paths, and identical submissions get byte-identical diagnostics.

Parsing ``<iostream>`` and linking with ``ld.bfd`` are most of the compile
time of a small program, so a session can precompile ``<iostream>`` once with
the assignment's own command and link those compiles with ``ld.gold``; see
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
from typing import Mapping, Sequence

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
# A compile under the PCH keeps its result if it succeeded silently or failed
# in words a cold compile would print too (see compile_workspace); any other
# runs again cold. The first compile that includes the header builds it (other
# compiles run cold meanwhile), and the PCH is used only while the tries that
# ran again are no more than the ones kept. (For a leap-year program, g++ 12
# on 2 vCPUs, a kept try saves about 0.22 s and one that runs again costs
# about 0.09 s more: past about 70% run again it loses.) A batch bounds the
# compiles still to come (see expect()), the one that builds included, and
# builds only for this many. (With --jobs 2 and all-<iostream> batches on that
# box, 4 archives lost 0.15 s, 5 came out even, and 6 gained 0.13 s; 10
# gained 0.5 s.)
PCH_BUILD_FOR_AT_LEAST = 6
# g++ and gcc exit 1 for errors in the program, 4 for an internal compiler error.
_GCC_ERROR_EXIT = 1
# g++ and gcc print a line that starts "collect2:" for every failed link.
_LINK_FAILURE_MARK = "collect2"

# Debian binutils' root-owned directory whose one entry, "ld", is ld.gold.
# GCC's collect2 looks for "ld" in COMPILER_PATH before PATH, so naming it
# there links with gold without changing the command.
_GOLD_DIR = Path("/usr/lib/gold-ld")

# GCC names its temporary files "<temporary directory>/ccXXXXXX.<suffix>",
# with six random letters and digits: each translation unit's object file
# ("ccXXXXXX.o", or "ccXXXXXX.ltrans0.ltrans.o" under -flto) is one, and the
# linker quotes its name.
_TEMP_NAME = "ccXXXXXX"


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


# The note text() ends cut output with.
_OMITTED = re.compile(r"note: \d+ lines omitted\n\Z")


def _version_banner(executable: str, timeout: float) -> str:
    """What ``executable --version`` prints, or "" if it cannot run or exits non-zero."""
    output = _CappedOutput()
    try:
        exit_code, _ = run_child([executable, "--version"], None, timeout, output.feed, merge_stderr=True)
    except OSError:
        return ""
    return output.text() if exit_code == 0 else ""


def _names_gcc(executable: str, timeout: float) -> bool:
    """Whether ``executable --version`` reads like GCC's banner."""
    # "g++ (Debian 12.2.0-14) 12.2.0" ... "Free Software Foundation"; clang
    # says "clang version", and a shell's banner has no "(...) N" shape.
    banner = _version_banner(executable, timeout)
    return re.match(r"\S+ \([^)\n]*\) \d", banner) is not None and "Free Software Foundation" in banner


def _find_gold(timeout: float) -> Path | None:
    """``_GOLD_DIR`` if its ``ld`` is GNU gold, else None."""
    # "GNU gold (GNU Binutils for Debian 2.40) 1.16"; ld.bfd says "GNU ld".
    return _GOLD_DIR if _version_banner(str(_GOLD_DIR / "ld"), timeout).startswith("GNU gold") else None


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


def _put_first(directory: Path, variable: str) -> str:
    """The search path ``variable`` with ``directory`` first and its inherited value, if any, after it."""
    inherited = os.environ.get(variable)
    # An empty element would mean the working directory.
    return os.pathsep.join([str(directory)] + ([inherited] if inherited else []))


class PrecompiledHeaders:
    """The precompiled ``<iostream>`` of one session, built by the first compile that wants it, and its linker.

    The first compile whose sources include ``<iostream>`` has
    :meth:`environment` build ``iostream.gch`` once, with that compile's
    command and flags (other compiles run cold meanwhile), so GCC accepts it
    exactly where it would have parsed the header itself. GCC looks for
    ``iostream.gch`` in each include directory before ``iostream``, so a
    compile run in the returned environment, which names the PCH directory
    first in ``CPLUS_INCLUDE_PATH``, loads it instead of parsing the header.
    There is no PCH unless ``<compiler> --version`` names GCC (clang would
    need ``-include-pch``, which changes the command) and the build exits 0
    without printing anything.

    The same environment names ``/usr/lib/gold-ld`` first in
    ``COMPILER_PATH`` if, when the PCH is built, ``/usr/lib/gold-ld/ld
    --version`` says ``GNU gold``: GCC's ``collect2`` then links with gold,
    which takes about a third of the time of ``ld.bfd``. Gold words link
    errors differently, so a link error is reported from the cold rerun, in
    bfd's words (see :meth:`untouched`). Without gold the environment
    changes ``CPLUS_INCLUDE_PATH`` only. The directory is root-owned and
    outside ``root``, so no student binary can rewrite it.

    Nothing is built until :meth:`expect` says enough compiles are to come
    to pay the build back: a batch passes its size, a watch passes None, and
    a single grade builds nothing. The compiles that want the PCH count as
    paid (their warm result was kept) or lost, and the PCH is not used
    while the lost ones outnumber the paid ones. It is dropped for the
    rest of the session if the directory or the ``.gch`` changes after the
    build (a student binary runs as the same user and could rewrite it).

    Nothing runs and nothing is created until the build. The files live in
    one ``.pch-*`` directory under ``root``, which :meth:`close` removes.
    """

    def __init__(self, root: Path):
        self.root = root
        self._lock = threading.Lock()
        self._paid = 0
        self._lost = 0
        self._started = False
        self._ahead: int | None = 0
        self._dir: Path | None = None
        self._stamp: tuple[int, ...] | None = None
        self._linker: Path | None = None

    def environment(self, profile: CompilerProfile) -> dict[str, str] | None:
        """The compiler's environment for a compile that wants the PCH, or None to compile cold."""
        with self._lock:
            pays = self._lost <= self._paid
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
            include = self._dir / "include"
            if _stamp(include) != self._stamp:
                self._stamp = None
                return None
        env = {**os.environ, "CPLUS_INCLUDE_PATH": _put_first(include, "CPLUS_INCLUDE_PATH")}
        if self._linker is not None:
            env["COMPILER_PATH"] = _put_first(self._linker, "COMPILER_PATH")
        return env

    def expect(self, compiles: int | None) -> None:
        """Bound the compiles still to come that may want the PCH, or lift the bound with None.

        Each compile that wants it counts the bound down, and the build is
        skipped while fewer than ``PCH_BUILD_FOR_AT_LEAST`` are left. The
        bound starts at 0, so a session outside a batch or a watch builds
        nothing; with no bound (a watch) the first compile that wants the
        PCH builds it.
        """
        with self._lock:
            self._ahead = compiles

    def record(self, paid: bool) -> None:
        """Count a finished compile that wanted the PCH: paid if it ran once, warm, or would have."""
        with self._lock:
            if paid:
                self._paid += 1
            else:
                self._lost += 1

    def untouched(self, output: str) -> bool:
        """Whether the output of a warm compile that failed reads as the cold compile's would.

        Only two things make them differ. Under the PCH, an include chain
        into a library header ends at the wrapper header instead of the
        student's file; the build names the wrapper by its absolute path, so
        every such line names this session's ``.pch-*`` directory. And gold
        words a link error its own way, and g++ prints a ``collect2:``
        line for every failed link. Output that was cut may have
        lost either line, so it never counts.
        """
        with self._lock:
            directory = self._dir
        return (directory is not None and directory.name not in output and _LINK_FAILURE_MARK not in output
                and not _OMITTED.search(output))

    def _build(self, profile: CompilerProfile) -> bool:
        if not _names_gcc(profile.command[0], profile.timeout_secs):
            return False
        self._linker = _find_gold(profile.timeout_secs)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._dir = Path(tempfile.mkdtemp(prefix=".pch-", dir=self.root)).absolute()
        except OSError:
            return False
        # The wrapper lives outside the include directory: found there, it
        # would include itself. It is compiled by its absolute path, which an
        # include chain through it then names (see untouched()). The build
        # writes the .gch in place: environment() hands the directory out
        # only once the build succeeded, so what a failed or killed build
        # leaves is never read, and close() removes it.
        wrapper = self._dir / "wrap" / PCH_HEADER
        target = Path("include", f"{PCH_HEADER}.gch")
        try:
            wrapper.parent.mkdir()
            wrapper.write_text(f"#include <{PCH_HEADER}>\n", encoding="utf-8")
            (self._dir / target).parent.mkdir()
            # A build that prints anything is not used, so its first output ends it.
            exit_code, _ = run_child(
                profile.expand(["-x", "c++-header", str(wrapper)], str(target)),
                self._dir,
                profile.timeout_secs,
                lambda chunk: False,
                merge_stderr=True,
            )
        except OSError:
            return False
        return exit_code == 0 and (self._dir / target).is_file()

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
    compiled warm, in the environment :meth:`PrecompiledHeaders.environment`
    hands out: the PCH directory first in ``CPLUS_INCLUDE_PATH`` and, where
    gold is installed, gold's directory first in ``COMPILER_PATH``. That
    result is kept if the compiler exited 0, printed nothing and wrote the
    binary; if it printed nothing before it ran out of time; or if it exited
    1 and its output is :meth:`PrecompiledHeaders.untouched`: a cold compile
    reports the same in each case. Otherwise the binary is deleted and the
    cold compile runs, and its result is returned. A warm compile that
    succeeded but printed something runs again too, since gold's link
    warnings carry no mark. The command is the same either way.
    """
    # A path that starts with "-" would reach the compiler as an option.
    sources = [f"./{name}" if name.startswith("-") else name for name in files
               if Path(name).suffix.lower() in COMPILE_EXTENSIONS]
    if not sources:
        diagnostic = Diagnostic(DiagnosticSeverity.ERROR, "error: no source files found in submission")
        return CompileResult(False, (diagnostic,), raw_output=diagnostic.text)

    command = profile.expand(sources, OUTPUT_NAME)
    if pch is None or not _includes_iostream(workspace, sources):
        return _run_compiler(command, workspace, profile, None)[0]
    env = pch.environment(profile)
    if env is not None:
        warm, exit_code = _run_compiler(command, workspace, profile, env)
        paid = (warm.succeeded and not warm.raw_output
                or exit_code == _GCC_ERROR_EXIT and pch.untouched(warm.raw_output))
        if paid or warm.raw_output == _timeout_notice(profile):  # a timeout is not run twice
            pch.record(paid=paid)
            return warm
        (workspace / OUTPUT_NAME).unlink(missing_ok=True)
    cold = _run_compiler(command, workspace, profile, None)[0]
    pch.record(paid=env is None and cold.succeeded and not cold.raw_output)
    return cold


def _timeout_notice(profile: CompilerProfile) -> str:
    return f"error: compilation exceeded the {profile.timeout_secs:g} second limit"


def _run_compiler(
    command: tuple[str, ...], workspace: Path, profile: CompilerProfile, env: dict[str, str] | None
) -> tuple[CompileResult, int | None]:
    """The result of one compile, and the compiler's exit code (None if it ran out of time)."""
    output = _CappedOutput()
    try:
        exit_code, timed_out = run_child(
            command, workspace, profile.timeout_secs, output.feed, env=env, merge_stderr=True
        )
    except FileNotFoundError as exc:
        raise CompilerNotFound(f"compiler executable {command[0]!r} not found") from exc
    raw = output.text()
    if raw:
        temp_dir = _compiler_temp_dir(workspace, os.environ if env is None else env)
        raw = re.sub(re.escape(f"{temp_dir}/") + r"cc[0-9A-Za-z]{6}(?=\.)", _TEMP_NAME, raw)
        # Under -g the linker quotes a source by the compiler's working directory, as getcwd() names it.
        raw = raw.replace(f"{os.path.realpath(workspace)}/", "")
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
    return CompileResult(succeeded, classify_diagnostics(raw), output_path if succeeded else None, raw), exit_code


def _compiler_temp_dir(workspace: Path, env: Mapping[str, str]) -> str:
    """The directory GCC, run in ``workspace`` with ``env``, makes its temporary files in.

    The first of ``TMPDIR``, ``TMP``, ``TEMP``, ``/tmp``, ``/var/tmp`` and
    ``/usr/tmp`` that the compiler may read, write and search, as libiberty's
    ``choose_tmpdir`` picks it, or "." if none.
    """
    for directory in (env.get("TMPDIR"), env.get("TMP"), env.get("TEMP"), "/tmp", "/var/tmp", "/usr/tmp"):
        if directory and os.access(workspace / directory, os.R_OK | os.W_OK | os.X_OK):
            return directory
    return "."
