"""Compilation of an extracted submission workspace.

The compiler is described by a command template rather than hard-coded, so a
course can swap g++ flags or an entirely different toolchain per assignment.
Compilation runs in the workspace with sources given as relative paths, and
GCC makes its temporary files there too. Each randomly named object file is
named ``ccXXXXXX.o`` wherever the linker quotes it, and a source it quotes by
its absolute path (under ``-g``) by its relative one; diagnostics therefore
never leak absolute paths, and identical submissions get byte-identical
diagnostics.

Parsing the first system header and linking with ``ld.bfd`` are most of the
compile time of a small program, so a session links every GCC compile with
``ld.gold`` and can precompile ``<iostream>`` and ``<cstdio>`` once each, for
the translation units that include one of them first, with the assignment's
own command; see :class:`PrecompiledHeaders`. Every compiler child runs with
``_FIXED_ENVIRONMENT``, so neither its output nor where it leaves files
depends on when it ran or on the grader's locale and temporary directory.
"""

from __future__ import annotations

import codecs
import io
import os
import re
import struct
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Collection, Mapping, Sequence

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

# A translation unit spends much of its compile time parsing its first system
# header, and GCC can load a PCH only there, so a session precompiles these
# headers for the units that include one of them first. (g++ 12 on 2 vCPUs: a
# 3-unit <cstdio> program compiles in 107 ms with gold and 102 ms with a
# <cstdio> PCH, built in 49 ms and 2.4 MB; a leap-year <iostream> program in
# 293 ms cold and 76 ms warm, with a PCH built in 0.7 s and 23 MB.) Other
# headers are not: <string> and <cmath> gained nothing when tried, and
# <bits/stdc++.h> takes 4-5 s and 101 MB to build.
PCH_HEADERS = ("iostream", "cstdio")
# A batch builds only if it holds at least this many archives (see expect()).
# (With --jobs 2 and all-<iostream> batches on that box, 4 archives took
# 0.15 s longer, 5 came out even, and 6 gained 0.13 s; 10 gained 0.5 s.)
PCH_BUILD_FOR_AT_LEAST = 6
# The first "#include <h>" line of a unit. Blanks only, never \s: a match
# must not run on across lines. It may be a line GCC reads late or never (in
# a comment, under #if 0, after other code): then the PCH is not loaded, and
# the stand-in beside it (see _build) passes the include on to the header.
_LEADING_INCLUDE = re.compile(rb"^[ \t]*#[ \t]*include[ \t]*<([^>\n]*)>", re.M)
# Every compiler child (--version probe, header build, compile) runs with this
# set over the grader's environment. __DATE__ and __TIME__ read "Jan  1 1970"
# and "00:00:00"; messages are worded in the C locale (g++ quotes 'name' with
# straight quotes, not a UTF-8 locale's curly ones); and GCC, collect2 and
# lto-wrapper make their temporary files in the child's working directory,
# whose removal takes whatever a killed compile leaves. (libiberty reads TMP
# and TEMP only where TMPDIR is unusable.)
_FIXED_ENVIRONMENT = {"SOURCE_DATE_EPOCH": "0", "LC_ALL": "C", "TMPDIR": "."}
# g++ and gcc exit 1 for errors in the program, 4 for an internal compiler error.
_GCC_ERROR_EXIT = 1
# g++ and gcc print a line that starts "collect2:" for every failed link.
_LINK_FAILURE_MARK = "collect2"
# How the name of every header's build directory starts, and so a mark (see _keeps()).
_PCH_PREFIX = ".pch-"

# A command that holds a token starting with this splits preprocessing from
# compiling: its header build writes a PCH of the preprocessed header, without
# its macros (a warm unit that uses EOF then fails to compile), and its objects
# are named after the output, so gold's messages about them carry no mark.
_SAVE_TEMPS = "-save-temps"

# ELF program header types and flags, as <elf.h> names them.
_PT_LOAD, _PT_GNU_STACK, _PF_X, _PF_W = 1, 0x6474E551, 1, 2
# By ELF class (1: 32-bit, 2: 64-bit): where the header holds e_phoff and
# e_phentsize, a program header's size, and where it holds p_flags.
_ELF_LAYOUT = {1: (28, 42, 32, 24), 2: (32, 54, 56, 4)}

# Debian binutils' root-owned directory whose one entry, "ld", is ld.gold.
# GCC's collect2 looks for "ld" in COMPILER_PATH before PATH, so naming it
# there links with gold without changing the command. Gold names itself by
# this path in the messages that name no object ("<dir>/ld: warning: ...").
_GOLD_DIR = Path("/usr/lib/gold-ld")

# GCC names its temporary files "./ccXXXXXX.<suffix>" under TMPDIR=".", with
# six random letters and digits: each translation unit's object file
# ("ccXXXXXX.o", or "ccXXXXXX.ltrans0.ltrans.o" under -flto) is one, and the
# linker quotes its name, which the output rewrites to this. The compiler's
# own diagnostics never name it (the assembler names the source, not the .s).
_TEMP_NAME = "ccXXXXXX"
# Such a name where the linker quotes it: at a line's start or after a blank,
# and followed by an object suffix, so "../ccabcdef.h", "dir/./ccabcdef.h" or
# "./ccabcdef.h" in a student's text is left alone.
_TEMP_FILE = re.compile(r"(?<!\S)\./cc[0-9A-Za-z]{6}(?=\.(?:ltrans\d+\.ltrans\.)?o(?![\w.]))")


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


# A line of GCC's source excerpt: a quoted line ("    4 |     x = 1;"), its
# caret line ("      |   ^~") or a fix-it hint ("  +++ |+#include <vector>").
_EXCERPT = re.compile(r" *(?:\d+|\+\+\+)? \|")
# GCC's label of a diagnostic ("main.cpp:3:9: warning: ..."), at a line's start
# or after ": ", in any case; the first on a line counts.
_LABEL = re.compile(r"(?:^|: )(fatal error|error|warning|note):", re.I)


def classify_diagnostics(output: str) -> tuple[Diagnostic, ...]:
    """Split compiler output into per-line diagnostics.

    A line of GCC's source excerpt, which quotes the student's text, is a
    NOTE. Otherwise a line that carries GCC's label takes its severity
    (``error:`` and ``fatal error:`` an ERROR, ``warning:`` a WARNING,
    ``note:`` a NOTE). Any other line gets a case-insensitive substring
    check: one mentioning "error" is an ERROR (``cc1plus: all warnings
    being treated as errors``), otherwise one mentioning "warning" is a
    WARNING, and anything else (include traces, the linker's "in function")
    is a NOTE. Every non-blank line is kept, so the classified list
    reproduces the compiler's full message.
    """
    diagnostics: list[Diagnostic] = []
    for line in output.splitlines():
        if not line.strip():
            continue
        # The words the substring check reads: none, the label, or the whole line.
        if _EXCERPT.match(line):
            words = ""
        elif label := _LABEL.search(line):
            words = label[1].lower()
        else:
            words = line.lower()
        if "error" in words:
            severity = DiagnosticSeverity.ERROR
        elif "warning" in words:
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


# The note text() ends cut output with, which a notice may follow.
_OMITTED = re.compile(r"^note: \d+ lines omitted$", re.M)


def _version_banner(executable: str, timeout: float) -> str:
    """What ``executable --version`` prints, or "" if it cannot run or exits non-zero."""
    output = _CappedOutput()
    try:
        exit_code, _ = run_child([executable, "--version"], None, timeout, output.feed,
                                 env={**os.environ, **_FIXED_ENVIRONMENT}, merge_stderr=True)
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


def _leading_header(source: Path) -> str | None:
    """The header of the first ``#include <h>`` line of ``source``, if it is one of ``PCH_HEADERS``."""
    match = _LEADING_INCLUDE.search(source.read_bytes())
    header = match and match[1].decode("latin-1")
    return header if header in PCH_HEADERS else None


def _stamp(include: Path, header: str) -> tuple[int, ...] | None:
    """Identity and last change of ``header``'s ``.gch`` and stand-in in ``include``, and of ``include``.

    None if any is gone. A write, a new entry or a replaced file changes the
    ``st_ctime_ns`` of one of them, and no process can set that back.
    """
    try:
        stats = [path.stat() for path in (include / f"{header}.gch", include / header, include)]
    except OSError:
        return None
    return tuple(n for st in stats for n in (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns))


def _put_first(directories: Sequence[Path], variable: str) -> str:
    """The search path ``variable`` with ``directories`` first and its inherited value, if any, after them."""
    inherited = os.environ.get(variable)
    # An empty element would mean the working directory.
    return os.pathsep.join([*map(str, directories)] + ([inherited] if inherited else []))


class PrecompiledHeaders:
    """The warm toolchain of one session: ``ld.gold``, and a PCH of each leading header built by its first compile.

    At the session's first compile, :meth:`environment` asks
    ``<compiler> --version`` whether the compiler is GCC (clang would need
    ``-include-pch``, which changes the command) and, if it is,
    ``/usr/lib/gold-ld/ld --version`` whether that is GNU gold; every
    compile waits for the answers, which are asked once. If both say so,
    every compile (but one under ``-save-temps``) runs warm with
    ``/usr/lib/gold-ld`` first in ``COMPILER_PATH``: GCC's ``collect2``
    then links with gold, which takes about a third of the time of
    ``ld.bfd``. ``/usr/lib/gold-ld`` is root-owned and outside ``root``,
    so no student binary can rewrite it.

    A compile also wants the PCH of each translation unit's leading header,
    the one its first ``#include <h>`` names, where that is one of
    ``PCH_HEADERS`` (see :func:`_leading_header`). The first compile that
    wants a header builds ``<h>.gch`` once, with that compile's command and
    flags (other compiles go on without it meanwhile), so GCC accepts it
    exactly where it would have parsed the header itself. GCC looks for
    ``<h>.gch`` in each include directory before ``<h>``, so a compile run
    with the variables :meth:`environment` adds, which name the header's
    own include directory first in ``CPLUS_INCLUDE_PATH``, loads it instead
    of parsing the header. A PCH is used only if the build exited 0 without
    printing anything.

    Gold and the PCH word some output differently, and every such line
    carries a mark (see :func:`_keeps`).

    Nothing is built unless :meth:`expect` says the run holds enough
    compiles to pay the build back: a batch passes its size, a watch
    passes None, and a single grade builds nothing. A PCH is dropped for
    the rest of the session if its include directory or ``.gch`` changes
    after the build (a student binary runs as the same user and could
    rewrite it).

    Nothing is created until the first build. Each header builds in
    ``root/.pch-<h>`` (see ``_PCH_PREFIX``), with the wrapper header it
    compiles in ``wrap/`` and, in ``include/``, the ``.gch`` and a
    stand-in for the header that includes the header itself. Whoever
    owns ``root`` removes them: a session removes its whole directory
    when it closes.
    """

    def __init__(self, root: Path):
        self.root = root.absolute()  # the wrapper is compiled by its absolute path (see _build())
        self._lock = threading.Lock()
        self._gcc: bool | None = None  # None until the first compile asks
        self._linker: Path | None = None
        # A header's stamp (see _stamp()) while its PCH may be used; a key once its build has started.
        self._stamps: dict[str, tuple[int, ...] | None] = {}
        self._builds = False  # whether this run may build (see expect())

    def environment(self, profile: CompilerProfile, headers: Collection[str]) -> dict[str, str]:
        """The variables a warm try of a compile whose units lead with ``headers`` adds to its environment.

        ``{}`` means the compile runs cold. Each search path it sets names
        the session's directories first and the inherited value after them.
        A command with a ``-save-temps`` token always compiles cold (see ``_SAVE_TEMPS``).
        """
        if any(token.startswith(_SAVE_TEMPS) for token in profile.command):
            return {}
        with self._lock:
            if self._gcc is None:
                # Held while asking: every compile waits for the answers.
                self._gcc = _names_gcc(profile.command[0], profile.timeout_secs)
                self._linker = _find_gold(profile.timeout_secs) if self._gcc else None
            if not self._gcc:
                return {}
            builds = [name for name in headers if self._builds and name not in self._stamps]
            self._stamps.update(dict.fromkeys(builds))
        # Only one compile builds each header; the others go on without it meanwhile.
        for name in builds:
            include = self._build(profile, name)
            stamp = None if include is None else _stamp(include, name)
            with self._lock:
                self._stamps[name] = stamp
        with self._lock:
            includes = []
            for name in headers:
                if self._stamps.get(name) is None:
                    continue
                include = self.root / f"{_PCH_PREFIX}{name}" / "include"
                if _stamp(include, name) == self._stamps[name]:
                    includes.append(include)
                else:
                    self._stamps[name] = None
        added = {"CPLUS_INCLUDE_PATH": _put_first(includes, "CPLUS_INCLUDE_PATH")} if includes else {}
        if self._linker is not None:
            added["COMPILER_PATH"] = _put_first([self._linker], "COMPILER_PATH")
        return added

    def expect(self, compiles: int | None) -> None:
        """Say how many compiles the coming run holds, or None for no bound (a watch).

        The run may build only if that is at least ``PCH_BUILD_FOR_AT_LEAST``
        or unbounded: then the first compile that wants a header builds it,
        whenever it comes. A new session may not, so a single grade builds
        nothing.
        """
        self._builds = compiles is None or compiles >= PCH_BUILD_FOR_AT_LEAST

    def _build(self, profile: CompilerProfile, header: str) -> Path | None:
        """Build ``header``'s PCH and return its include directory, or None if that failed."""
        home = self.root / f"{_PCH_PREFIX}{header}"
        # The wrapper lives outside the include directory: found there, it
        # would include itself. It is compiled by its absolute path, which an
        # include chain through it then names (see _keeps()). The build
        # writes the .gch in place: environment() hands the directory out
        # only once the build succeeded, so what a failed or killed build
        # leaves is never read, and the owner of root removes it.
        wrapper = home / "wrap" / header
        target = Path("include", f"{header}.gch")
        # Once a unit has loaded a PCH, GCC reads a header found beside a .gch
        # from that directory (it fails if none is there): "#include <cstdio>"
        # then "#include <string>", which includes <cstdio> again, would. This
        # stand-in passes such an include on to the header itself.
        stand_in = home / "include" / header
        try:
            wrapper.parent.mkdir(parents=True)
            wrapper.write_text(f"#include <{header}>\n", encoding="utf-8")
            stand_in.parent.mkdir(parents=True)
            stand_in.write_text(f"#include_next <{header}>\n", encoding="utf-8")
            # A build that prints anything is not used, so its first output ends it.
            exit_code, _ = run_child(
                profile.expand(["-x", "c++-header", str(wrapper)], str(target)),
                home,
                profile.timeout_secs,
                lambda chunk: False,
                env={**os.environ, **_FIXED_ENVIRONMENT},
                merge_stderr=True,
            )
        except OSError:
            return None
        return home / "include" if exit_code == 0 and (home / target).is_file() else None


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

    With ``pch``, the workspace may first be compiled warm, with the
    variables :meth:`PrecompiledHeaders.environment` adds: gold's directory
    first in ``COMPILER_PATH`` where gold is installed, and the include
    directories of its units' leading headers' PCHs first in
    ``CPLUS_INCLUDE_PATH``. That result is kept if :func:`_keeps` says a
    cold compile would report the same and a binary gold linked does not
    run writable code (see :func:`_runs_writable_code`). Otherwise the
    binary is deleted and the cold compile runs, and its result is returned.
    The command is the same either way, and every compile runs with
    ``_FIXED_ENVIRONMENT``.
    """
    # A path that starts with "-" would reach the compiler as an option.
    sources = [f"./{name}" if name.startswith("-") else name for name in files
               if Path(name).suffix.lower() in COMPILE_EXTENSIONS]
    if not sources:
        diagnostic = Diagnostic(DiagnosticSeverity.ERROR, "error: no source files found in submission")
        return CompileResult(False, (diagnostic,), raw_output=diagnostic.text)

    command = profile.expand(sources, OUTPUT_NAME)
    added = {} if pch is None else pch.environment(
        profile, sorted({header for name in sources if (header := _leading_header(workspace / name)) is not None}))
    result, exit_code = _run_compiler(command, workspace, profile, added)
    if not added:
        return result
    kept = _keeps(result, exit_code)
    if kept and result.succeeded and "COMPILER_PATH" in added:
        kept = not _runs_writable_code(result.output_path)
    if not kept:
        (workspace / OUTPUT_NAME).unlink(missing_ok=True)
        result = _run_compiler(command, workspace, profile, {})[0]
    return result


def _keeps(result: CompileResult, exit_code: int | None) -> bool:
    """Whether a warm compile's result reads as the cold compile's would, given its exit code (None: timed out).

    It does if the compiler succeeded (exited 0 and wrote the binary),
    exited 1 or ran out of time, and its output carries no mark and was not
    cut; exit 0 without the binary, or another status (4 is an internal
    compiler error), never does. Only two things make the outputs differ.
    Under a PCH, an include chain into a library header ends at the wrapper
    header instead of the student's file; the build names the wrapper by
    its absolute path, so every such line names the header's ``.pch-<h>``
    build directory (``_PCH_PREFIX``). And gold words what the linker prints its own way: g++
    prints a ``collect2:`` line for every failed link, and each of gold's
    messages names either an object, GCC's temporary one for a student's
    unit (``ccXXXXXX.o``), or gold itself (``/usr/lib/gold-ld/ld:``).
    Output that was cut may be missing any such line, so it never counts.
    """
    output = result.raw_output
    marks = (_LINK_FAILURE_MARK, _TEMP_NAME, str(_GOLD_DIR), _PCH_PREFIX)
    return ((result.succeeded or exit_code in (_GCC_ERROR_EXIT, None))
            and not any(mark in output for mark in marks) and not _OMITTED.search(output))


def _run_compiler(
    command: tuple[str, ...], workspace: Path, profile: CompilerProfile, added: Mapping[str, str]
) -> tuple[CompileResult, int | None]:
    """The result of one compile, and its exit code: None if it ran out of time.

    It runs in the grader's environment with ``added`` (see
    :meth:`PrecompiledHeaders.environment`) over it and ``_FIXED_ENVIRONMENT``
    over both.
    """
    env = {**os.environ, **added, **_FIXED_ENVIRONMENT}
    output = _CappedOutput()
    try:
        exit_code, timed_out = run_child(
            command, workspace, profile.timeout_secs, output.feed, env=env, merge_stderr=True
        )
    except FileNotFoundError as exc:
        if exc.filename != command[0]:  # the workspace, which Popen names when it cannot enter it
            raise
        raise CompilerNotFound(f"compiler executable {command[0]!r} not found") from exc
    raw = _TEMP_FILE.sub(_TEMP_NAME, output.text())
    # Under -g the linker quotes a source by the compiler's working directory, as getcwd() names it.
    raw = raw.replace(f"{os.path.realpath(workspace)}/", "")
    output_path = workspace / OUTPUT_NAME
    if timed_out:
        notice = f"error: compilation exceeded the {profile.timeout_secs:g} second limit"
    elif exit_code == 0 and not output_path.is_file():
        notice = "error: compiler reported success but produced no output file"
    else:
        notice = ""
    if notice:
        raw = raw + ("\n" if raw and not raw.endswith("\n") else "") + notice
    succeeded = exit_code == 0 and not notice
    return CompileResult(succeeded, classify_diagnostics(raw), output_path if succeeded else None, raw), exit_code


def _runs_writable_code(binary: Path) -> bool:
    """Whether the ELF ``binary`` may run code from writable memory, or its program headers cannot be read.

    That is: a ``PT_GNU_STACK`` header with ``PF_X``, or none at all (an
    executable stack), or a ``PT_LOAD`` segment both writable and executable.
    ``ld.bfd`` warns about each where gold prints nothing.
    """
    try:
        with binary.open("rb") as file:
            head = file.read(64)
            phoff_at, phentsize_at, size, flags_at = _ELF_LAYOUT[head[4]]
            order = {1: "<", 2: ">"}[head[5]]
            (phoff,) = struct.unpack_from(order + ("Q" if size == 56 else "I"), head, phoff_at)
            phentsize, phnum = struct.unpack_from(order + "HH", head, phentsize_at)
            file.seek(phoff)
            table = file.read(size * phnum)
    except (OSError, ValueError, LookupError, struct.error):
        return True
    if head[:4] != b"\x7fELF" or phentsize != size or len(table) < size * phnum:
        return True
    headers = [(struct.unpack_from(order + "I", table, at)[0], struct.unpack_from(order + "I", table, at + flags_at)[0])
               for at in range(0, len(table), size)]
    stacks = [flags for kind, flags in headers if kind == _PT_GNU_STACK]
    return (not stacks or any(flags & _PF_X for flags in stacks)
            or any(kind == _PT_LOAD and flags & _PF_W and flags & _PF_X for kind, flags in headers))
