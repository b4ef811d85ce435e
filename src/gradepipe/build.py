"""Compilation of an extracted submission workspace.

The compiler is described by a command template rather than hard-coded, so a
course can swap g++ flags or an entirely different toolchain per assignment.
Compilation runs in the workspace with sources given as relative paths. Each
randomly named object file GCC makes in its temporary directory is named
``ccXXXXXX.o`` wherever the linker quotes it, and a source it quotes by its
absolute path (under ``-g``) by its relative one; diagnostics therefore never
leak absolute paths, and identical submissions get byte-identical diagnostics.

Parsing the first system header and linking with ``ld.bfd`` are most of the
compile time of a small program, so a session links every GCC compile with
``ld.gold`` and can precompile ``<iostream>`` and ``<cstdio>`` once each, for
the translation units that include one of them first, with the assignment's
own command; see :class:`PrecompiledHeaders`. Every compile runs with a fixed
``SOURCE_DATE_EPOCH``, so ``__DATE__`` and ``__TIME__`` do not depend on when
it ran.
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
# A batch bounds the compiles still to come (see expect()), the one that
# builds included, and builds only for this many. (With --jobs 2 and
# all-<iostream> batches on that box, 4 archives took 0.15 s longer, 5 came
# out even, and 6 gained 0.13 s; 10 gained 0.5 s.)
PCH_BUILD_FOR_AT_LEAST = 6
# The first "#include <h>" line of a unit. Blanks only, never \s: a match
# must not run on across lines. It may be a line GCC reads late or never (in
# a comment, under #if 0, after other code): then the PCH is not loaded, and
# the stand-in beside it (see _build) passes the include on to the header.
_LEADING_INCLUDE = re.compile(rb"^[ \t]*#[ \t]*include[ \t]*<([^>\n]*)>", re.M)
# Every compile and header build runs with this set, so __DATE__ and __TIME__
# read "Jan  1 1970" and "00:00:00" and a program that prints them grades the
# same in every session.
_FIXED_ENVIRONMENT = {"SOURCE_DATE_EPOCH": "0"}
# g++ and gcc exit 1 for errors in the program, 4 for an internal compiler error.
_GCC_ERROR_EXIT = 1
# g++ and gcc print a line that starts "collect2:" for every failed link.
_LINK_FAILURE_MARK = "collect2"

# Debian binutils' root-owned directory whose one entry, "ld", is ld.gold.
# GCC's collect2 looks for "ld" in COMPILER_PATH before PATH, so naming it
# there links with gold without changing the command. Gold names itself by
# this path in the messages that name no object ("<dir>/ld: warning: ...").
_GOLD_DIR = Path("/usr/lib/gold-ld")

# GCC names its temporary files "<temporary directory>/ccXXXXXX.<suffix>",
# with six random letters and digits: each translation unit's object file
# ("ccXXXXXX.o", or "ccXXXXXX.ltrans0.ltrans.o" under -flto) is one, and the
# linker quotes its name, which the output rewrites to this. The compiler's
# own diagnostics never name it.
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


# The note text() ends cut output with, which a notice may follow.
_OMITTED = re.compile(r"^note: \d+ lines omitted$", re.M)


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
    every compile runs warm with ``/usr/lib/gold-ld`` first in
    ``COMPILER_PATH``: GCC's ``collect2`` then links with gold, which takes
    about a third of the time of ``ld.bfd``. The directory is root-owned
    and outside ``root``, so no student binary can rewrite it.

    A compile also wants the PCH of each translation unit's leading header,
    the one its first ``#include <h>`` names, where that is one of
    ``PCH_HEADERS`` (see :func:`_leading_header`). The first compile that
    wants a header builds ``<h>.gch`` once, with that compile's command and
    flags (other compiles go on without it meanwhile), so GCC accepts it
    exactly where it would have parsed the header itself. GCC looks for ``<h>.gch`` in each include directory
    before ``<h>``, so a compile run in the returned environment, which
    names the header's own include directory first in
    ``CPLUS_INCLUDE_PATH``, loads it instead of parsing the header. A PCH is
    used only if the build exited 0 without printing anything.

    Gold and the PCH word some output differently, and :meth:`untouched`
    finds each such line by a mark (see :func:`compile_workspace`).

    Nothing is built until :meth:`expect` says enough compiles are to come
    to pay the build back: a batch passes its size, a watch passes None, and
    a single grade builds nothing. A PCH is dropped for the rest of the
    session if its include directory or ``.gch`` changes after the build (a
    student binary runs as the same user and could rewrite it).

    Nothing is created until the first build. The files live in one
    ``.pch-*`` directory under ``root``, which :meth:`close` removes: each
    header's build in a directory named after it, with the wrapper header
    it compiles in ``wrap/`` and, in ``include/``, the ``.gch`` and a
    stand-in for the header that includes the header itself.
    """

    def __init__(self, root: Path):
        self.root = root
        self._lock = threading.Lock()
        self._gcc: bool | None = None  # None until the first compile asks
        self._linker: Path | None = None
        # A header's stamp (see _stamp()) while its PCH may be used; a key once its build has started.
        self._stamps: dict[str, tuple[int, ...] | None] = {}
        self._ahead: int | None = 0
        self._dir: Path | None = None

    def environment(self, profile: CompilerProfile, headers: Collection[str]) -> dict[str, str] | None:
        """The compiler's environment for a warm try of a compile whose units lead with ``headers``, or None: cold."""
        with self._lock:
            if self._gcc is None:
                # Held while asking: every compile waits for the answers.
                self._gcc = _names_gcc(profile.command[0], profile.timeout_secs)
                self._linker = _find_gold(profile.timeout_secs) if self._gcc else None
            enough = self._ahead is None or self._ahead >= PCH_BUILD_FOR_AT_LEAST
            if self._ahead is not None:
                self._ahead -= 1
            if not self._gcc:
                return None
            builds = [name for name in headers if enough and name not in self._stamps]
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
                include = self._dir / name / "include"
                if _stamp(include, name) == self._stamps[name]:
                    includes.append(include)
                else:
                    self._stamps[name] = None
        if not includes and self._linker is None:
            return None
        env = dict(os.environ)
        if includes:
            env["CPLUS_INCLUDE_PATH"] = _put_first(includes, "CPLUS_INCLUDE_PATH")
        if self._linker is not None:
            env["COMPILER_PATH"] = _put_first([self._linker], "COMPILER_PATH")
        return env

    def expect(self, compiles: int | None) -> None:
        """Bound the compiles still to come, or lift the bound with None.

        Each compile counts the bound down, and no header is built while
        fewer than ``PCH_BUILD_FOR_AT_LEAST`` are left. The bound starts at
        0, so a session outside a batch or a watch builds nothing; with no
        bound (a watch) the first compile that wants a header builds it.
        """
        with self._lock:
            self._ahead = compiles

    def untouched(self, output: str) -> bool:
        """Whether the output of a warm compile reads as the cold compile's would: it carries no mark.

        Only two things make them differ. Under a PCH, an include chain
        into a library header ends at the wrapper header instead of the
        student's file; the build names the wrapper by its absolute path, so
        every such line names this session's ``.pch-*`` directory. And gold
        words what the linker prints its own way: g++ prints a ``collect2:``
        line for every failed link, and each of gold's messages names either
        an object, GCC's temporary one for a student's unit (``ccXXXXXX.``),
        or gold itself (``/usr/lib/gold-ld/ld:``). Output that was cut may
        be missing any such line, so it never counts.
        """
        with self._lock:
            directory = self._dir
        marks = [_LINK_FAILURE_MARK, _TEMP_NAME, str(_GOLD_DIR)] + ([directory.name] if directory else [])
        return not any(mark in output for mark in marks) and not _OMITTED.search(output)

    def _build(self, profile: CompilerProfile, header: str) -> Path | None:
        """Build ``header``'s PCH and return its include directory, or None if that failed."""
        with self._lock:
            try:
                if self._dir is None:
                    self.root.mkdir(parents=True, exist_ok=True)
                    self._dir = Path(tempfile.mkdtemp(prefix=".pch-", dir=self.root)).absolute()
            except OSError:
                return None
            home = self._dir / header
        # The wrapper lives outside the include directory: found there, it
        # would include itself. It is compiled by its absolute path, which an
        # include chain through it then names (see untouched()). The build
        # writes the .gch in place: environment() hands the directory out
        # only once the build succeeded, so what a failed or killed build
        # leaves is never read, and close() removes it.
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

    def close(self) -> None:
        """Remove the PCH directory, if one was made."""
        with self._lock:
            self._stamps = dict.fromkeys(self._stamps)
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

    With ``pch``, the workspace may first be compiled warm, in the
    environment :meth:`PrecompiledHeaders.environment` hands out: gold's
    directory first in ``COMPILER_PATH`` where gold is installed, and the
    include directories of its units' leading headers' PCHs first in
    ``CPLUS_INCLUDE_PATH``. That result is kept if the compiler succeeded
    (exited 0 and wrote the binary), exited 1 or ran out of time, and its
    output is :meth:`PrecompiledHeaders.untouched`: a cold compile then
    reports the same. Otherwise (a mark, cut output, exit 0 without the
    binary, or another status, such as 4 for an internal compiler error) the
    binary is deleted and the cold compile runs, and its result is returned.
    The command is the same either way, and every compile runs with
    ``SOURCE_DATE_EPOCH=0``.
    """
    # A path that starts with "-" would reach the compiler as an option.
    sources = [f"./{name}" if name.startswith("-") else name for name in files
               if Path(name).suffix.lower() in COMPILE_EXTENSIONS]
    if not sources:
        diagnostic = Diagnostic(DiagnosticSeverity.ERROR, "error: no source files found in submission")
        return CompileResult(False, (diagnostic,), raw_output=diagnostic.text)

    command = profile.expand(sources, OUTPUT_NAME)
    if pch is None:
        return _run_compiler(command, workspace, profile, None)[0]
    headers = sorted({header for name in sources if (header := _leading_header(workspace / name)) is not None})
    env = pch.environment(profile, headers)
    result, exit_code = _run_compiler(command, workspace, profile, env)
    # The exit code is None if the compile ran out of time.
    kept = (result.succeeded or exit_code in (_GCC_ERROR_EXIT, None)) and pch.untouched(result.raw_output)
    if env is not None and not kept:
        (workspace / OUTPUT_NAME).unlink(missing_ok=True)
        result = _run_compiler(command, workspace, profile, None)[0]
    return result


def _run_compiler(
    command: tuple[str, ...], workspace: Path, profile: CompilerProfile, env: dict[str, str] | None
) -> tuple[CompileResult, int | None]:
    """The result of one compile in ``env`` (None: the grader's) with ``_FIXED_ENVIRONMENT``, and its exit code.

    The exit code is None if the compile ran out of time.
    """
    env = {**(os.environ if env is None else env), **_FIXED_ENVIRONMENT}
    output = _CappedOutput()
    try:
        exit_code, timed_out = run_child(
            command, workspace, profile.timeout_secs, output.feed, env=env, merge_stderr=True
        )
    except FileNotFoundError as exc:
        raise CompilerNotFound(f"compiler executable {command[0]!r} not found") from exc
    raw = output.text()
    if raw:
        temp_dir = _compiler_temp_dir(workspace, env)
        raw = re.sub(re.escape(f"{temp_dir}/") + r"cc[0-9A-Za-z]{6}(?=\.)", _TEMP_NAME, raw)
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
