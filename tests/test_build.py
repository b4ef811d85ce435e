import gc
import io
import os
import random
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from gradepipe import build
from gradepipe.blackbox import TestOutcome, run_test_suite
from gradepipe.build import (
    MAX_OUTPUT_BYTES,
    MAX_OUTPUT_LINES,
    CompilerNotFound,
    CompilerProfile,
    Diagnostic,
    DiagnosticSeverity,
    PCH_BUILD_FOR_AT_LEAST,
    PrecompiledHeaders,
    classify_diagnostics,
    compile_workspace,
)

from support import (
    DATA_DIR, GOLD_DIR, IOSTREAM_MAIN, NO_GOLD, built_pch, calls, has_gold, header_build, pch_include, source,
    stub_compiler, wait_until_dead,
)

GXX = CompilerProfile(command=("g++", "-std=c++17", "-O0", "{sources}", "-o", "{output}"))


def error_count(result):
    return sum(d.severity is DiagnosticSeverity.ERROR for d in result.diagnostics)


# -- diagnostic classification --------------------------------------------------


def test_classification_by_keyword():
    output = (
        "main.cpp: In function 'int main()':\n"
        "main.cpp:5:5: error: expected ';' before 'cin'\n"
        "main.cpp:7:9: warning: unused variable 'x' [-Wunused-variable]\n"
        "    7 |     int x;\n"
        "      |         ^\n"
    )
    diagnostics = classify_diagnostics(output)
    severities = [d.severity for d in diagnostics]
    assert severities == [
        DiagnosticSeverity.NOTE,
        DiagnosticSeverity.ERROR,
        DiagnosticSeverity.WARNING,
        DiagnosticSeverity.NOTE,
        DiagnosticSeverity.NOTE,
    ]


def test_classification_is_case_insensitive():
    diagnostics = classify_diagnostics("FATAL ERROR: boom\nWarning: look out\n")
    assert [d.severity for d in diagnostics] == [DiagnosticSeverity.ERROR, DiagnosticSeverity.WARNING]


def test_error_outranks_warning_on_one_line():
    (diagnostic,) = classify_diagnostics("warning treated as error: -Werror\n")
    assert diagnostic.severity is DiagnosticSeverity.ERROR


def test_gccs_own_label_decides_and_a_quoted_source_line_is_a_note():
    output = (
        "main.cpp:3:9: warning: unused variable 'errorCount' [-Wunused-variable]\n"
        "    3 |     int errorCount;\n"
        "      |         ^~~~~~~~~~\n"
        '    4 |     cerr << "warning" << x;\n'
        "  +++ |+#include <cstring>\n"
        "main.cpp:1:2: warning: #warning error: not finished [-Wcpp]\n"
        "main.cpp:5:3: note: in expansion of macro 'ERROR'\n"
        "main.cpp:1:10: fatal error: warning.h: No such file or directory\n"
        "cc1plus: all warnings being treated as errors\n"
        "main.cpp:2: Error: no such instruction: `no_such_instruction'\n"
    )
    W, N, E = DiagnosticSeverity.WARNING, DiagnosticSeverity.NOTE, DiagnosticSeverity.ERROR
    assert [d.severity for d in classify_diagnostics(output)] == [W, N, N, N, N, W, N, E, E, E]


def test_classification_is_lossless_and_skips_blanks():
    output = "first\n\n   \nsecond error here\n"
    diagnostics = classify_diagnostics(output)
    assert [d.text for d in diagnostics] == ["first", "second error here"]


# -- profile validation ----------------------------------------------------------


def test_profile_requires_tokens():
    with pytest.raises(ValueError):
        CompilerProfile(command=("g++", "-o", "{output}"))
    with pytest.raises(ValueError):
        CompilerProfile(command=("g++", "{sources}"))
    with pytest.raises(ValueError):
        CompilerProfile(command=())
    with pytest.raises(ValueError, match="first command token must be the compiler executable"):
        CompilerProfile(command=("{sources}", "g++", "-o", "{output}"))
    with pytest.raises(ValueError):
        CompilerProfile(command=("g++", "{sources}", "-o", "{output}"), timeout_secs=0)


def test_profile_expands_embedded_output_token():
    profile = CompilerProfile(command=("cc", "{sources}", "-o{output}"))
    assert profile.expand(["a.c", "b.c"], "prog") == ("cc", "a.c", "b.c", "-oprog")


# -- real compilations ------------------------------------------------------------


def test_compile_success(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() { return 0; }\n")
    result = compile_workspace(tmp_path, GXX, ["main.cpp"])
    assert result.succeeded
    assert result.output_path == tmp_path / "program"
    assert result.output_path.is_file()
    assert result.diagnostics == ()
    assert subprocess.run([str(result.output_path)]).returncode == 0


def test_compile_multiple_units(tmp_path, monkeypatch):
    (tmp_path / "main.cpp").write_text("int helper();\nint main() { return helper(); }\n")
    (tmp_path / "helper.cpp").write_text("int helper() { return 0; }\n")
    commands = []
    run_child = build.run_child

    def recorded(command, *args, **kwargs):
        commands.append(tuple(command))
        return run_child(command, *args, **kwargs)

    monkeypatch.setattr(build, "run_child", recorded)
    result = compile_workspace(tmp_path, GXX, ["helper.cpp", "main.cpp"])
    assert result.succeeded
    assert [command[3:5] for command in commands] == [("helper.cpp", "main.cpp")]  # sorted, relative


def test_a_source_named_like_an_option_is_compiled_not_obeyed(tmp_path):
    workspace, outside = tmp_path / "workspace", tmp_path / "outside"
    outside.mkdir()
    workspace.mkdir()
    (workspace / "main.cpp").write_text("int main() { return 0; }\n")
    # Given as is, this path asks the linker to write a map file outside the workspace.
    option = f"-Wl,-Map={outside}/map.cpp"
    (workspace / option).parent.mkdir(parents=True)
    (workspace / option).write_text("int helper() { return 1; }\n")
    result = compile_workspace(workspace, GXX, sorted([option, "main.cpp"]))
    assert result.succeeded
    assert list(outside.iterdir()) == []


def test_compile_failure_reports_errors(tmp_path):
    (tmp_path / "main.cpp").write_text(source("leap_broken.cpp"))
    result = compile_workspace(tmp_path, GXX, ["main.cpp"])
    assert not result.succeeded
    assert result.output_path is None
    assert error_count(result) >= 1
    assert any("error" in d.text.lower() for d in result.diagnostics)


def test_compile_warnings_survive_success(tmp_path):
    profile = CompilerProfile(command=("g++", "-std=c++17", "-Wall", "{sources}", "-o", "{output}"))
    (tmp_path / "main.cpp").write_text("int main() { int unused; return 0; }\n")
    result = compile_workspace(tmp_path, profile, ["main.cpp"])
    assert result.succeeded
    assert any(d.severity is DiagnosticSeverity.WARNING for d in result.diagnostics)


def test_compile_diagnostics_use_relative_paths(tmp_path):
    # The same broken submission must produce identical diagnostics no
    # matter which workspace it lands in.
    outputs = []
    for name in ("ws1", "ws2"):
        workspace = tmp_path / name
        workspace.mkdir()
        (workspace / "main.cpp").write_text(source("leap_broken.cpp"))
        result = compile_workspace(workspace, GXX, ["main.cpp"])
        assert str(workspace) not in result.raw_output
        outputs.append([ (d.severity, d.text) for d in result.diagnostics ])
    assert outputs[0] == outputs[1]


LINK_ERROR = "#include <iostream>\nint f(); int main() { return f(); }\n"


@pytest.mark.parametrize(
    "tmpdir, flags",
    [(None, ()), ("{tmp}/scratch", ()), ("{tmp}/scratch/", ()), ("scratch", ()), (None, ("-flto",))],
    ids=["inherited", "absolute", "trailing-slash", "relative", "lto"],
)
def test_a_link_error_reports_the_same_bytes_and_no_temporary_path(tmp_path, monkeypatch, tmpdir, flags):
    # GCC links "<TMPDIR>/ccXXXXXX.o" with six random characters, and bfd quotes it.
    profile = CompilerProfile(command=GXX.command[:1] + flags + GXX.command[1:])
    if tmpdir is not None:
        monkeypatch.setenv("TMPDIR", tmpdir.format(tmp=tmp_path))
    (tmp_path / "scratch").mkdir()
    outputs = []
    for name in ("ws1", "ws2"):
        workspace = tmp_path / name
        (workspace / "scratch").mkdir(parents=True)  # a relative TMPDIR is the compiler's, in the workspace
        (workspace / "main.cpp").write_text(LINK_ERROR)
        result = compile_workspace(workspace, profile, ["main.cpp"])
        assert not result.succeeded
        outputs.append(result.raw_output)
    assert outputs[0] == outputs[1]
    assert ": ccXXXXXX." in outputs[0] and "undefined reference to" in outputs[0]
    assert re.search(r"cc[0-9A-Za-z]{6}\.", outputs[0].replace("ccXXXXXX.", "")) is None
    assert str(tmp_path) not in outputs[0] and "/tmp/" not in outputs[0]


@pytest.mark.parametrize("flags", [("-g",), ("-g", "-flto")], ids=["g", "g-lto"])
def test_a_debug_link_error_reports_the_same_bytes_under_any_workspace_root(tmp_path, flags):
    # Under -g the linker quotes the source by the compile's working directory, as getcwd() resolves it.
    profile = CompilerProfile(command=GXX.command[:1] + flags + GXX.command[1:])
    (tmp_path / "linked").symlink_to(tmp_path / "three", target_is_directory=True)
    outputs = []
    for root in ("one", "two", "linked"):
        workspace = tmp_path / root / "ws"
        (tmp_path / root).resolve().mkdir()
        workspace.mkdir()
        (workspace / "main.cpp").write_text(LINK_ERROR)
        result = compile_workspace(workspace, profile, ["main.cpp"])
        assert not result.succeeded
        outputs.append(result.raw_output)
    assert outputs[0] == outputs[1] == outputs[2]
    assert ":2: undefined reference to" in outputs[0]
    assert str(tmp_path) not in outputs[0]


def test_compile_empty_workspace(tmp_path):
    result = compile_workspace(tmp_path, GXX, [])
    assert not result.succeeded
    assert result.diagnostics[0].severity is DiagnosticSeverity.ERROR
    assert "no source files" in result.diagnostics[0].text


def test_compile_ignores_non_source_files(tmp_path):
    (tmp_path / "README.txt").write_text("not code\n")
    (tmp_path / "util.h").write_text("int f();\n")
    result = compile_workspace(tmp_path, GXX, ["README.txt", "util.h"])
    assert not result.succeeded
    assert "no source files" in result.diagnostics[0].text


def test_missing_compiler_raises(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    profile = CompilerProfile(command=("definitely-not-a-real-compiler", "{sources}", "-o", "{output}"))
    with pytest.raises(CompilerNotFound):
        compile_workspace(tmp_path, profile, ["main.cpp"])


def test_a_removed_workspace_is_not_a_missing_compiler(tmp_path):
    # Popen names the working directory it could not enter; the compiler is there.
    with pytest.raises(FileNotFoundError) as raised:
        compile_workspace(tmp_path / "removed", GXX, ["main.cpp"])
    assert raised.value.filename == tmp_path / "removed"


def test_compile_timeout_becomes_failed_result(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    profile = CompilerProfile(
        command=("/bin/sh", "-c", "sleep 10", "sh", "{sources}", "-o", "{output}"),
        timeout_secs=0.3,
    )
    result = compile_workspace(tmp_path, profile, ["main.cpp"])
    assert not result.succeeded
    assert any("exceeded" in d.text for d in result.diagnostics)
    assert error_count(result) >= 1


def test_a_timed_out_compile_leaves_no_process_behind(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    script = "sleep 30 & echo $! > bg.pid; wait"
    profile = CompilerProfile(
        command=("/bin/sh", "-c", script, "sh", "{sources}", "-o", "{output}"), timeout_secs=0.3
    )
    result = compile_workspace(tmp_path, profile, ["main.cpp"])
    assert any("exceeded" in d.text for d in result.diagnostics)
    assert wait_until_dead(int((tmp_path / "bg.pid").read_text()), within=0.5)


@pytest.mark.parametrize(
    "script, timeout",
    [(": > program", 30.0), ("sleep 10", 0.3)],
    ids=["succeeds", "times-out"],
)
def test_compile_closes_its_pipes(tmp_path, script, timeout):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    profile = CompilerProfile(
        command=("/bin/sh", "-c", script, "sh", "{sources}", "-o", "{output}"), timeout_secs=timeout
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = compile_workspace(tmp_path, profile, ["main.cpp"])
        gc.collect()
    assert result.succeeded is (timeout == 30.0)
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_success_without_binary_is_a_failure(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    profile = CompilerProfile(command=("/bin/sh", "-c", "exit 0", "sh", "{sources}", "-o", "{output}"))
    result = compile_workspace(tmp_path, profile, ["main.cpp"])
    assert not result.succeeded
    assert any("no output file" in d.text for d in result.diagnostics)


# -- captured output cap ----------------------------------------------------------


def test_thousands_of_error_lines_are_capped(tmp_path):
    (tmp_path / "main.cpp").write_text("".join(f"int f{i}() {{ return x{i}; }}\n" for i in range(1500)))
    result = compile_workspace(tmp_path, GXX, ["main.cpp"])
    assert not result.succeeded
    lines = result.raw_output.splitlines()
    assert len(lines) == MAX_OUTPUT_LINES + 1
    assert re.fullmatch(r"note: \d+ lines omitted", lines[-1])
    assert int(lines[-1].split()[1]) > 3000, "each undeclared name costs three lines"
    assert len(result.raw_output.encode()) <= MAX_OUTPUT_BYTES + len(lines[-1]) + 1
    assert result.diagnostics[-1] == Diagnostic(DiagnosticSeverity.NOTE, lines[-1])
    assert [d.text for d in result.diagnostics] == lines


@pytest.mark.parametrize(
    "line, kept",
    [
        ("error: short", MAX_OUTPUT_LINES),  # the line limit binds
        ("error: " + "x" * 993, 65),  # 1001-byte lines: the byte limit binds
    ],
)
def test_capped_output_counts_what_it_omits(tmp_path, line, kept):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    script = f"i=0; while [ $i -lt 1000 ]; do echo '{line}'; i=$((i+1)); done; exit 1"
    profile = CompilerProfile(command=("/bin/sh", "-c", script, "sh", "{sources}", "-o", "{output}"))
    result = compile_workspace(tmp_path, profile, ["main.cpp"])
    assert result.raw_output == f"{line}\n" * kept + f"note: {1000 - kept} lines omitted\n"
    assert error_count(result) == kept


# Pieces that straddle a read: each line end str.splitlines knows, "\r\n", multi-byte and invalid UTF-8.
OUTPUT_PIECES = [b"a", b"bc", b"\n", b"\r", b"\r\n", b"\v", b"\f", b"\x1c", "\x85".encode(), "\u2028".encode(),
                 "\u2029".encode(), "\u00e9".encode(), "\u20ac".encode(), b"\xe2\x82", b"\xff"]


def _capped_whole(data, max_bytes, max_lines):
    """What the cap makes of ``data`` read in one piece."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace", newline=None).read()
    lines = text.splitlines(keepends=True)
    kept, size = 0, 0
    while kept < min(len(lines), max_lines) and size + len(lines[kept].encode()) <= max_bytes:
        size += len(lines[kept].encode())
        kept += 1
    omitted = len(lines) - kept
    return "".join(lines[:kept]) + (f"note: {omitted} lines omitted\n" if omitted else "")


def test_capped_output_read_in_pieces_matches_the_whole_output_capped(monkeypatch):
    rng = random.Random(7)
    for _ in range(3000):
        max_bytes, max_lines = rng.randint(1, 40), rng.randint(1, 8)
        monkeypatch.setattr(build, "MAX_OUTPUT_BYTES", max_bytes)
        monkeypatch.setattr(build, "MAX_OUTPUT_LINES", max_lines)
        data = b"".join(rng.choices(OUTPUT_PIECES, k=rng.randrange(60)))
        cuts = sorted(rng.sample(range(len(data) + 1), min(len(data) + 1, rng.randrange(7))))
        output = build._CappedOutput()
        for start, end in zip([0, *cuts], [*cuts, len(data)]):
            output.feed(data[start:end])
        assert output.text() == _capped_whole(data, max_bytes, max_lines), (data, cuts, max_bytes, max_lines)


def test_an_output_storm_is_capped_while_it_is_read(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    script = "seq 200000 | sed 's/^/error: storm line /'; exit 1"
    profile = CompilerProfile(command=("/bin/sh", "-c", script, "sh", "{sources}", "-o", "{output}"))
    tracemalloc.start()
    try:
        result = compile_workspace(tmp_path, profile, ["main.cpp"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    head = "".join(f"error: storm line {n}\n" for n in range(1, MAX_OUTPUT_LINES + 1))
    assert result.raw_output == head + f"note: {200_000 - MAX_OUTPUT_LINES} lines omitted\n"
    # The whole output is about 4 MB.
    assert peak < 4 * MAX_OUTPUT_BYTES


# -- precompiled headers: diagnostics ----------------------------------------------

WALL = CompilerProfile(command=("g++", "-std=c++17", "-Wall", "{sources}", "-o", "{output}"))
WEXTRA = CompilerProfile(command=("g++", "-std=c++17", "-Wall", "-Wextra", "{sources}", "-o", "{output}"))
WERROR = CompilerProfile(command=("g++", "-std=c++17", "-Wall", "-Werror", "{sources}", "-o", "{output}"))
SAVE_TEMPS = CompilerProfile(command=("g++", "-std=c++17", "-save-temps", "{sources}", "-o", "{output}"))

LIBRARY_NOTE = "#include <iostream>\nstruct S {};\nint main() { std::cout << S{}; }\n"
WARNING_ONLY = "#include <iostream>\nint main() { int unused; std::cout << 1; }\n"
# tmpnam() links with a warning from the C library, which the linker words and
# which names the unit's object: gold's "ccXXXXXX.o:main.cpp:function main:".
TMPNAM = "int main() { char name[L_tmpnam]; return tmpnam(name) == nullptr; }\n"
WARNING_AND_ERROR = "#include <iostream>\nint main() { int unused; std::cout << missing; }\n"
STUDENT_CC_NAME = '#include "./ccabcdef.h"\nint main() {}\n'

# Programs that fail to compile under each profile below, each with whether
# GCC's output can differ under the <iostream> PCH: an include chain through
# <iostream> (as in most misuse of a library template) names the PCH's
# wrapper header, and a link error is worded by the linker.
ERRORS = {
    "syntax-error": ("#include <iostream>\nint main() { std::cout << 1 }\n", False),
    "undeclared-name": ("#include <iostream>\nint main() { std::cout << total; }\n", False),
    "static-assert": ('#include <iostream>\nstatic_assert(sizeof(int) == 3, "int is not 3 bytes");\nint main() {}\n',
                      False),
    "hash-error": ("#include <iostream>\n#error not finished\nint main() {}\n", False),
    "missing-header-hint": ("#include <iostream>\nint main() { std::vector<int> v; }\n", False),
    "sort-misuse": ("#include <iostream>\n#include <algorithm>\n#include <vector>\n"
                    "int main() { std::vector<int> v; std::sort(v.begin(), v.end(), 5); }\n", True),
    "assembler-error": ('#include <iostream>\nint main() { asm("no_such_instruction"); }\n', False),
    "code-before-include": ("int before;\n#include <iostream>\nint main() { missing(); }\n", False),
    "library-note": (LIBRARY_NOTE, True),
    "link-error": (LINK_ERROR, True),
    "missing-main": ("#include <iostream>\nint helper() { return 1; }\n", True),
}
# Of those, the ones whose output can differ under gold alone, or under a PCH of
# <cstdio>, through which none of their include chains runs.
LINK_ERRORS = {"link-error", "missing-main"}


def variants(name, text, differs):
    """Each variant of an ERRORS program: a suffix, its text, and whether its output can differ warm."""
    yield "", text, differs
    yield "-cstdio-first", "#include <cstdio>\n" + text, name in LINK_ERRORS
    include_free = "".join(line for line in text.splitlines(True) if not line.startswith("#include"))
    yield "-include-free", include_free, name in LINK_ERRORS


# Each case is a profile, a program, and how it compiles warm: "warm" once
# (its warm result is kept), "warm, cold" (the warm try runs again cold), or
# "cold" (a -save-temps command never runs warm).
# A program compiles warm under the PCH of its leading header, and with gold;
# an include-free one with gold alone. A success, a failure with status 1 and
# a timeout are kept unless their output names the PCH's directory, collect2,
# GCC's temporary object or gold's directory, or was cut; then they run again.
CASES = {
    **{path.name: (GXX, path.read_text(encoding="utf-8"), "warm") for path in sorted(DATA_DIR.glob("*.cpp"))},
    "wall-warning-only": (WALL, WARNING_ONLY, "warm"),
    "overflow-warning": (GXX, "#include <iostream>\nint x = 1e10;\nint main() { std::cout << x; }\n", "warm"),
    # The note that says where std::unary_function is declared runs through <iostream>, and so names its wrapper.
    "wall-deprecated-note": (WALL, "#include <iostream>\n#include <functional>\n"
                             "struct Negate : std::unary_function<int, int> {};\nint main() {}\n", "warm, cold"),
    "tmpnam-link-warning": (GXX, "#include <cstdio>\n" + TMPNAM, "warm, cold"),
    "tmpnam-link-warning-include-free": (GXX, 'extern "C" char *tmpnam(char *);\nenum { L_tmpnam = 20 };\n'
                                         + TMPNAM, "warm, cold"),
    # Its objects are "program-main.o", which gold's messages name with no mark, and its <cstdio> PCH
    # would be built from the preprocessed header, without the macro L_tmpnam.
    "tmpnam-link-warning-save-temps": (SAVE_TEMPS, "#include <cstdio>\n" + TMPNAM, "cold"),
    "wall-warning-and-error": (WALL, WARNING_AND_ERROR, "warm"),
    "werror-warning-only": (WERROR, WARNING_ONLY, "warm"),
    # A student's own "./ccXXXXXX" name is neither rewritten as GCC's temporary object nor taken for a mark.
    "student-cc-name": (GXX, STUDENT_CC_NAME, "warm"),
    # A header included again once its PCH is loaded is read through the stand-in beside the .gch.
    "iostream-twice": (GXX, "#include <iostream>\n#include <iostream>\nint main() { std::cout << 1; }\n", "warm"),
    "cstdio-then-string": (GXX, "#include <cstdio>\n#include <string>\nint main() { std::string s; }\n", "warm"),
    # The note that getchar() takes no argument runs through <cstdio>, and so names its wrapper.
    "cstdio-note": (GXX, "#include <cstdio>\nint main() { return getchar(1); }\n", "warm, cold"),
    **{f"{name}{variant}{suffix}": (profile, text, "warm, cold" if differs else "warm")
       for name, case in ERRORS.items()
       for variant, text, differs in variants(name, *case)
       for suffix, profile in (("", GXX), ("-wextra", WEXTRA), ("-werror", WERROR))},
}


@pytest.fixture(scope="module")
def warm_headers(tmp_path_factory):
    """One PrecompiledHeaders per profile, shared by the cases of this module."""
    helpers = {}

    def get(profile):
        if profile not in helpers:
            helpers[profile] = PrecompiledHeaders(tmp_path_factory.mktemp("pch"))
            if profile != SAVE_TEMPS:  # which builds nothing
                built_pch(helpers[profile], profile)
        return helpers[profile]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
def test_diagnostics_are_identical_with_and_without_the_pch(tmp_path, monkeypatch, warm_headers, case):
    profile, text, runs = CASES[case]
    envs, commands = [], {}
    run = build._run_compiler

    def recorded(command, workspace, profile, env):
        envs.append(env)
        commands.setdefault(workspace.name, set()).add(command)
        return run(command, workspace, profile, env)

    monkeypatch.setattr(build, "_run_compiler", recorded)
    results = {}
    for name, pch in (("cold", None), ("warm", warm_headers(profile))):
        workspace = tmp_path / name
        workspace.mkdir()
        (workspace / "main.cpp").write_text(text, encoding="utf-8")
        envs.clear()
        results[name] = compile_workspace(workspace, profile, ["main.cpp"], pch)
    cold, warm = results["cold"], results["warm"]
    assert warm.raw_output == cold.raw_output
    assert warm.diagnostics == cold.diagnostics
    assert commands["warm"] == commands["cold"]
    assert warm.succeeded is cold.succeeded
    header = build._leading_header(tmp_path / "warm" / "main.cpp")
    if header is None and not has_gold():
        runs = "cold"  # with neither a PCH nor gold, nothing runs warm
    assert ", ".join("warm" if env else "cold" for env in envs) == runs
    if not envs[0]:
        return  # nothing ran warm
    if header is not None:
        include_dir = envs[0]["CPLUS_INCLUDE_PATH"].split(os.pathsep)[0]
        assert os.path.isfile(os.path.join(include_dir, f"{header}.gch"))
    if not has_gold():
        pytest.skip(NO_GOLD)
    assert envs[0]["COMPILER_PATH"].split(os.pathsep)[0] == GOLD_DIR


def test_a_program_of_three_units_compiles_warm_once_and_passes_the_same_tests(tmp_path, monkeypatch, leap_spec):
    # The shape of the lexical-stress workload: main.cpp leads with <cstdio>, and two helpers include nothing.
    files = {
        "main.cpp": source("leap_fast.cpp"),
        "chain.cpp": "int classify(int v) {\n    int n = 0;\n    if (v == 101) { n++; }\n    return n;\n}\n",
        "messages.cpp": 'const char* const kMessages[] = {"if (a) { b(); }"};\n'
                        "const char* message(int i) { return kMessages[i % 1]; }\n",
    }
    envs = []
    run = build._run_compiler

    def recorded(command, workspace, profile, env):
        envs.append(env)
        return run(command, workspace, profile, env)

    monkeypatch.setattr(build, "_run_compiler", recorded)
    pch = PrecompiledHeaders(tmp_path / "root")
    pch.expect(None)
    results, verdicts = {}, {}
    for name, helper in (("cold", None), ("warm", pch)):
        workspace = tmp_path / name
        workspace.mkdir()
        for path, text in files.items():
            (workspace / path).write_text(text, encoding="utf-8")
        envs.clear()
        results[name] = compile_workspace(workspace, leap_spec.compiler, sorted(files), helper)
        assert results[name].succeeded
        verdicts[name] = [(r.test_id, r.outcome) for r in run_test_suite(results[name].output_path, leap_spec.tests)]
    assert len(envs) == 1 and envs[0], "compiled warm, once"
    assert os.path.isfile(os.path.join(envs[0]["CPLUS_INCLUDE_PATH"].split(os.pathsep)[0], "cstdio.gch"))
    assert results["warm"].diagnostics == results["cold"].diagnostics == ()
    assert verdicts["warm"] == verdicts["cold"]
    assert {outcome for _, outcome in verdicts["warm"]} == {TestOutcome.PASS}


def test_a_students_own_cc_name_is_reported_as_written(tmp_path):
    (tmp_path / "main.cpp").write_text(STUDENT_CC_NAME, encoding="utf-8")
    result = compile_workspace(tmp_path, GXX, ["main.cpp"])
    assert "main.cpp:1:10: fatal error: ./ccabcdef.h: No such file or directory" in result.raw_output
    assert "ccXXXXXX" not in result.raw_output


@pytest.mark.parametrize(
    "line, rewritten",
    [
        ("/usr/bin/ld: ./ccsjKxBH.o: in function `main':", "/usr/bin/ld: ccXXXXXX.o: in function `main':"),
        ("/usr/bin/ld: ./cc7JyfV8.ltrans0.ltrans.o: in function `main':",
         "/usr/bin/ld: ccXXXXXX.ltrans0.ltrans.o: in function `main':"),
        ("./ccAbc123.o:main.cpp:function main: error: undefined reference to 'f()'",
         "ccXXXXXX.o:main.cpp:function main: error: undefined reference to 'f()'"),
        ("main.cpp:1:10: fatal error: ./ccabcdef.h: No such file or directory", None),
        ("main.cpp:1:10: fatal error: ./ccabcdef.obj: No such file or directory", None),
        ("main.cpp:1:10: fatal error: ../ccabcdef.o: No such file or directory", None),
    ],
    ids=["bfd", "bfd-lto", "gold", "header", "other-suffix", "parent-directory"],
)
def test_only_the_linkers_object_names_are_rewritten(line, rewritten):
    assert build._TEMP_FILE.sub(build._TEMP_NAME, line) == (line if rewritten is None else rewritten)


# -- precompiled headers: the keep rule -----------------------------------------------

# Outputs of a warm compile: clean, each mark, and the note that ends cut output.
KEEP_OUTPUTS = {
    "clean": ("main.cpp:2:9: warning: unused variable 'x'\n", True),
    "collect2": ("collect2: error: ld returned 1 exit status\n", False),
    "temporary-object": ("ccXXXXXX.o:main.cpp:function main: warning: the use of 'tmpnam' is dangerous\n", False),
    "gold": ("<gold>/ld: warning: definition of common_var overriding common\n", False),
    "pch-directory": ("In file included from /srv/workspace/.session-0f1e2d3c4b5a6978/.pch-iostream/wrap/iostream:1:\n",
                      False),
    "cut": ("main.cpp:1:1: error: expected\nnote: 600 lines omitted\n", False),
}
# How a compile ended: whether it succeeded, and its exit code (None: it ran out of time).
KEEP_STATUSES = {"success": (True, 0), "exit-1": (False, 1), "timeout": (False, None), "exit-4": (False, 4),
                 "exit-0-without-binary": (False, 0)}


@pytest.mark.parametrize("status", sorted(KEEP_STATUSES))
@pytest.mark.parametrize("output", sorted(KEEP_OUTPUTS))
def test_a_warm_result_is_kept_for_its_status_and_output_alone(tmp_path, monkeypatch, output, status):
    monkeypatch.setattr(build, "_GOLD_DIR", tmp_path / "gold-ld")  # the mark is read when the rule runs
    text, clean = KEEP_OUTPUTS[output]
    text = text.replace("<gold>", str(build._GOLD_DIR))
    succeeded, exit_code = KEEP_STATUSES[status]
    if exit_code is None:
        text += "error: compilation exceeded the 30 second limit"
    result = build.CompileResult(succeeded, classify_diagnostics(text), tmp_path / "program" if succeeded else None, text)
    assert build._keeps(result, exit_code) is (clean and status in ("success", "exit-1", "timeout"))


# -- precompiled headers: lifecycle ------------------------------------------------

def workspace_with(root, name, text):
    workspace = root / name
    workspace.mkdir(parents=True)
    (workspace / "main.cpp").write_text(text, encoding="utf-8")
    return workspace


def stub_linker(directory, banner, exit_code=0):
    """A directory whose ``ld`` prints ``banner`` to ``--version`` and exits ``exit_code``."""
    linker = directory / "gold-ld"
    linker.mkdir()
    (linker / "ld").write_text(f"#!/bin/sh\nprintf '%s\\n' '{banner}'\nexit {exit_code}\n", encoding="utf-8")
    (linker / "ld").chmod(0o755)
    return linker


def watching(root):
    """The PrecompiledHeaders of a session that watches an inbox: no bound on the compiles to come."""
    pch = PrecompiledHeaders(root)
    pch.expect(None)
    return pch


NOISY_MAIN = "#include <iostream>\nint unused;\n"


def noisy_compiler(directory):
    """A stub compiler under which a program that declares `unused` warns, with no mark: a warm result is kept."""
    return stub_compiler(directory, compile_step='grep -q unused main.cpp && echo "warning: unused"')


@pytest.mark.usefixtures("plain_environment")
def test_pch_is_built_by_the_first_compile_that_includes_iostream(tmp_path):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = watching(root)
    assert compile_workspace(workspace_with(root, "cstdio", "#include <cstdio>\nint main() {}\n"), profile,
                             ["main.cpp"], pch).succeeded
    assert calls(log) == ["version", header_build(root, "cstdio"), f"compile {pch_include(root, 'cstdio')}"]

    for name in ("first", "second"):
        assert compile_workspace(workspace_with(root, name, IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    warm = f"compile {pch_include(root)}"
    assert calls(log)[3:] == [header_build(root), warm, warm]
    assert sorted(path.name for path in root.glob(".pch-*")) == [".pch-cstdio", ".pch-iostream"]


@pytest.mark.usefixtures("plain_environment")
def test_an_all_noisy_session_builds_once_and_compiles_each_program_once_warm(tmp_path):
    profile, log = noisy_compiler(tmp_path)
    root = tmp_path / "root"
    pch = watching(root)
    for i in range(4):
        result = compile_workspace(workspace_with(root, f"ws{i}", NOISY_MAIN), profile, ["main.cpp"], pch)
        assert (result.succeeded, result.raw_output) == (True, "warning: unused\n")
    assert calls(log) == ["version", header_build(root)] + [f"compile {pch_include(root)}"] * 4


@pytest.mark.usefixtures("plain_environment")
@pytest.mark.parametrize(
    "bounds, built",
    [([], False), ([PCH_BUILD_FOR_AT_LEAST - 1], False), ([PCH_BUILD_FOR_AT_LEAST], True), ([None], True),
     ([None, 0], False)],
    ids=["new", "too-few", "enough", "unbounded", "reset"],
)
def test_pch_is_built_only_for_enough_expected_compiles(tmp_path, bounds, built):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    for bound in bounds:
        pch.expect(bound)
    for i in range(2):
        compile_workspace(workspace_with(root, f"ws{i}", IOSTREAM_MAIN), profile, ["main.cpp"], pch)
    assert calls(log).count("version") == 1, "the first compile asks, built or not"
    assert any(line.startswith("build ") for line in calls(log)) is built
    assert len(list(root.glob(".pch-*"))) == built


@pytest.mark.usefixtures("plain_environment")
def test_an_include_free_workspace_builds_no_pch(tmp_path):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = watching(root)
    workspace = workspace_with(root, "ws", '#include "local.h"\nint main() {}\n')
    assert compile_workspace(workspace, profile, ["main.cpp"], pch).succeeded
    assert calls(log) == ["version", "compile unset"]
    assert list(root.glob(".pch-*")) == []


@pytest.mark.usefixtures("plain_environment")
def test_each_unit_gets_the_pch_of_its_own_leading_header(tmp_path):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = watching(root)
    workspace = workspace_with(root, "ws", "#include <cstdio>\n#include <iostream>\nint helper();\nint main() {}\n")
    (workspace / "helper.cpp").write_text("// helper\n#  include <iostream>\nint helper() { return 0; }\n")
    assert compile_workspace(workspace, profile, ["helper.cpp", "main.cpp"], pch).succeeded
    builds = [line for line in calls(log) if line.startswith("build ")]
    assert sorted(builds) == sorted(header_build(root, header) for header in ("cstdio", "iostream"))
    (compiled,) = [line for line in calls(log) if line.startswith("compile ")]
    assert sorted(compiled.removeprefix("compile ").split(os.pathsep)) == sorted(
        str(pch_include(root, header)) for header in ("cstdio", "iostream"))


@pytest.mark.usefixtures("plain_environment")
@pytest.mark.parametrize("header", ["/dev/zero", "../x", "vector"])
def test_a_leading_header_other_than_iostream_or_cstdio_starts_no_build(tmp_path, monkeypatch, header):
    gold = stub_linker(tmp_path, "GNU gold (Stub Binutils 2.40) 1.16")
    monkeypatch.setattr(build, "_GOLD_DIR", gold)
    # The stub reads no header: g++ reads </dev/zero> until it runs out of memory.
    profile, log = stub_compiler(tmp_path, compile_step='echo "main.cpp:1:10: fatal error: no such file"; exit 1')
    root = tmp_path / "root"
    text = f"#include <{header}>\nint main() {{}}\n"
    warm = compile_workspace(workspace_with(root, "warm", text), profile, ["main.cpp"], watching(root))
    cold = compile_workspace(workspace_with(root, "cold", text), profile, ["main.cpp"])
    assert calls(log) == ["version", f"compile unset linker {gold}", "compile unset"]
    assert list(root.glob(".pch-*")) == []
    assert (warm.succeeded, warm.raw_output, warm.diagnostics) == (cold.succeeded, cold.raw_output, cold.diagnostics)


@pytest.mark.usefixtures("plain_environment")
def test_other_leading_headers_first_leave_iostream_and_cstdio_their_builds(tmp_path):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = watching(root)
    for name in ("string", "cmath", "bits/stdc++.h", "vector", "iostream", "cstdio"):
        workspace = workspace_with(root, name.replace("/", "-"), f"#include <{name}>\nint main() {{}}\n")
        assert compile_workspace(workspace, profile, ["main.cpp"], pch).succeeded
    assert calls(log) == [
        "version",
        *["compile unset"] * 4,  # no build, and no gold here
        header_build(root, "iostream"), f"compile {pch_include(root, 'iostream')}",
        header_build(root, "cstdio"), f"compile {pch_include(root, 'cstdio')}",
    ]


@pytest.mark.usefixtures("plain_environment")
def test_concurrent_compiles_build_the_header_once(tmp_path):
    # More compiles than cores, with frequent thread switches. The build
    # finishes only once some other compile has run cold, without it.
    wait = f"i=0; until grep -q 'compile unset' '{tmp_path / 'calls.log'}' || [ $i -ge 200 ]; do sleep 0.05; i=$((i+1)); done"
    profile, log = stub_compiler(tmp_path, compile_step="echo ran >> runs", header_step=wait)
    root = tmp_path / "root"
    pch = watching(root)
    workspaces = [workspace_with(root, f"ws{i}", "  #  include <iostream>\nint main() {}\n") for i in range(8)]
    results = []
    threads = [
        threading.Thread(target=lambda w=w: results.append(compile_workspace(w, profile, ["main.cpp"], pch)))
        for w in workspaces
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    assert [r.succeeded for r in results] == [True] * len(workspaces)
    include = pch_include(root)
    log_lines = calls(log)
    assert (log_lines.count("version"), log_lines.count(header_build(root))) == (1, 1)
    warm = log_lines.count(f"compile {include}")
    assert warm >= 1 and log_lines.count("compile unset") >= 1
    assert warm + log_lines.count("compile unset") == len(workspaces)
    assert [(w / "runs").read_text() for w in workspaces] == ["ran\n"] * len(workspaces), "each compiled once"
    assert (include / "iostream.gch").is_file()
    assert (include.parent / "wrap" / "iostream").read_text() == "#include <iostream>\n"


@pytest.mark.usefixtures("plain_environment")
def test_clang_gets_no_pch(tmp_path):
    profile, log = stub_compiler(tmp_path, banner="clang version 15.0.0\nTarget: x86_64-pc-linux-gnu\n")
    root = tmp_path / "root"
    pch = watching(root)
    for name in ("a", "b"):
        assert compile_workspace(workspace_with(root, name, IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert calls(log) == ["version", "compile unset", "compile unset"]
    assert list(root.glob(".pch-*")) == []


@pytest.mark.usefixtures("plain_environment")
def test_a_cold_answer_adds_no_variable(tmp_path):
    gcc, log = stub_compiler(tmp_path)
    (tmp_path / "clang").mkdir()
    clang, _ = stub_compiler(tmp_path / "clang", banner="clang version 15.0.0\n")
    save_temps = CompilerProfile(command=(gcc.command[0], "-save-temps", *gcc.command[1:]))
    assert PrecompiledHeaders(tmp_path / "new").environment(gcc, ["iostream"]) == {}, "a new session may not build"
    for profile in (clang, save_temps):
        assert watching(tmp_path / "watch").environment(profile, ["iostream"]) == {}
    assert not any(line.startswith("build ") for line in calls(log))


def test_the_warm_environment_holds_only_the_variables_it_adds(tmp_path, monkeypatch):
    monkeypatch.setenv("CPLUS_INCLUDE_PATH", "/inherited/include")
    monkeypatch.setenv("COMPILER_PATH", "/inherited/bin")
    gold = stub_linker(tmp_path, "GNU gold (Stub Binutils 2.40) 1.16")
    monkeypatch.setattr(build, "_GOLD_DIR", gold)
    profile, _ = stub_compiler(tmp_path)
    pch = PrecompiledHeaders(tmp_path / "root")
    linker = {"COMPILER_PATH": f"{gold}{os.pathsep}/inherited/bin"}
    assert pch.environment(profile, ["iostream"]) == linker, "this run may not build"
    include = built_pch(pch, profile)
    assert pch.environment(profile, ["iostream"]) == {
        "CPLUS_INCLUDE_PATH": f"{include}{os.pathsep}/inherited/include", **linker}
    assert pch.environment(profile, []) == linker


@pytest.mark.parametrize("inherited", [None, "", "/usr/local/include", "/a:/b"])
def test_inherited_include_path_is_kept_and_no_empty_element_added(tmp_path, monkeypatch, inherited):
    # The same holds for COMPILER_PATH, which names gold first.
    for variable in ("CPLUS_INCLUDE_PATH", "COMPILER_PATH"):
        if inherited is None:
            monkeypatch.delenv(variable, raising=False)
        else:
            monkeypatch.setenv(variable, inherited)
    gold = stub_linker(tmp_path, "GNU gold (Stub Binutils 2.40) 1.16")
    monkeypatch.setattr(build, "_GOLD_DIR", gold)
    (tmp_path / "elf").write_bytes(elf((PT_GNU_STACK, PF_R | PF_W)))  # a binary gold linked is read
    profile, log = stub_compiler(tmp_path, compile_step=f'cp \'{tmp_path / "elf"}\' "$out"; exit 0')
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    workspace = workspace_with(root, "ws", IOSTREAM_MAIN)
    assert compile_workspace(workspace, profile, ["main.cpp"], pch).succeeded
    include_path, compiler_path = (os.pathsep.join([str(first)] + ([inherited] if inherited else []))
                                   for first in (include, gold))
    assert calls(log)[-1] == f"compile {include_path} linker {compiler_path}"


@pytest.mark.usefixtures("plain_environment")
@pytest.mark.parametrize(
    "banner, exit_code",
    [(None, 0), ("GNU ld (GNU Binutils for Debian) 2.40", 0), ("LLD 14.0.6", 0), ("GNU gold (Stub) 1.16", 1)],
    ids=["missing", "bfd", "lld", "failing"],
)
def test_without_gold_the_warm_environment_sets_only_the_include_path(tmp_path, monkeypatch, banner, exit_code):
    if banner is not None:
        monkeypatch.setattr(build, "_GOLD_DIR", stub_linker(tmp_path, banner, exit_code))
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    assert pch.environment(profile, {"iostream"}) == {"CPLUS_INCLUDE_PATH": str(include)}
    assert compile_workspace(workspace_with(root, "ws", IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert calls(log)[-1] == f"compile {include}"


@pytest.mark.usefixtures("plain_environment")
def test_a_marked_warning_under_the_pch_reruns_cold_without_the_pch_binary(tmp_path):
    # Under the PCH this compiler prints a link warning, which names the
    # unit's temporary object, and writes the binary; cold, it prints the
    # same and writes nothing, so a binary left over from the first run would pass.
    warning = "ccXXXXXX.o:main.cpp:function main: warning: the use of 'tmpnam' is dangerous"
    profile, log = stub_compiler(tmp_path, compile_step=f'echo "{warning}"; [ -n "$CPLUS_INCLUDE_PATH" ] || exit 0')
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    workspace = workspace_with(root, "ws", "#include <iostream>\nint main() { char name[20]; tmpnam(name); }\n")
    result = compile_workspace(workspace, profile, ["main.cpp"], pch)
    assert calls(log)[-2:] == [f"compile {include}", "compile unset"]
    assert not result.succeeded
    assert result.raw_output == f"{warning}\nerror: compiler reported success but produced no output file"
    assert not (workspace / "program").exists()


@pytest.mark.usefixtures("plain_environment")
@pytest.mark.parametrize(
    "step, kept",
    [
        ('echo "main.cpp:2:1: error: expected"; exit 1', True),
        ('echo "main.cpp:2:1: error: expected"; exit 4', False),  # GCC's status for an internal compiler error
        ('echo "main.cpp:2:1: error: expected"; exit 0', False),  # but no binary
        ('echo "collect2: error: ld returned 1 exit status"; exit 1', False),
        ('echo "In file included from ${CPLUS_INCLUDE_PATH%/include}/wrap/iostream:1:"; exit 1', False),
        (f'for i in $(seq {MAX_OUTPUT_LINES + 1}); do echo "main.cpp:$i:1: error: expected"; done; exit 1', False),
        ('echo "main.cpp:2:5: warning: unused"', True),
        ('echo "ccXXXXXX.o:main.cpp:function main: warning: the use of tmpnam is dangerous"', False),
        ('echo "<gold>/ld: warning: definition of common_var overriding common"', False),
    ],
    ids=["error", "internal-error", "success-without-binary", "link-error", "include-chain", "cut", "noisy-success",
         "temporary-object", "gold"],
)
def test_a_warm_compile_is_kept_only_where_a_cold_one_prints_the_same(tmp_path, step, kept):
    step = step.replace("<gold>", str(build._GOLD_DIR))  # where gold would be: /usr/lib/gold-ld
    profile, log = stub_compiler(tmp_path, compile_step=f'[ -z "$CPLUS_INCLUDE_PATH" ] || {{ {step}; }}')
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    result = compile_workspace(workspace_with(root, "ws", IOSTREAM_MAIN), profile, ["main.cpp"], pch)
    # Cold, this compiler succeeds silently, so a result that ran again reads as a silent success.
    assert (result.succeeded and result.raw_output == "") is not kept
    assert calls(log)[2:] == [f"compile {include}"] + ([] if kept else ["compile unset"])


@pytest.mark.usefixtures("plain_environment")
@pytest.mark.parametrize(
    "printed, runs",
    [("", ["warm"]), ('echo "main.cpp:1:1: note: slow"; ', ["warm"]),
     ('echo "collect2: note: slow"; ', ["warm", "cold"])],
    ids=["silent", "noisy", "marked"],
)
def test_a_warm_compile_that_times_out_runs_again_cold_only_for_a_mark(tmp_path, printed, runs):
    stub, log = stub_compiler(tmp_path, compile_step=printed + "sleep 30")
    profile = CompilerProfile(command=stub.command, timeout_secs=0.5)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    start = time.monotonic()
    warm = compile_workspace(workspace_with(root, "warm", IOSTREAM_MAIN), profile, ["main.cpp"], pch)
    elapsed = time.monotonic() - start
    names = {f"compile {include}": "warm", "compile unset": "cold"}
    assert [names[line] for line in calls(log) if line.startswith("compile")] == runs
    assert len(runs) * profile.timeout_secs <= elapsed < (len(runs) + 0.8) * profile.timeout_secs
    cold = compile_workspace(workspace_with(root, "cold", IOSTREAM_MAIN), profile, ["main.cpp"])
    assert (warm.succeeded, warm.output_path) == (False, None)
    assert (warm.raw_output, warm.diagnostics) == (cold.raw_output, cold.diagnostics)
    assert warm.raw_output.endswith("error: compilation exceeded the 0.5 second limit")


@pytest.mark.usefixtures("plain_environment")
def test_a_timed_out_header_build_leaves_no_process_behind(tmp_path):
    pid_file = tmp_path / "bg.pid"
    profile, log = stub_compiler(tmp_path, header_step=f"sleep 30 & echo $! > '{pid_file}'; wait")
    profile = CompilerProfile(command=profile.command, timeout_secs=0.3)
    root = tmp_path / "root"
    pch = watching(root)
    start = time.monotonic()
    assert compile_workspace(workspace_with(root, "ws", IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert time.monotonic() - start < 5.0, "the build is killed at its deadline"
    assert calls(log) == ["version", header_build(root), "compile unset"]
    assert wait_until_dead(int(pid_file.read_text()), within=0.5)


@pytest.mark.usefixtures("plain_environment")
def test_a_header_build_killed_by_its_first_output_leaves_no_pch_in_use(tmp_path):
    # The build writes its .gch in place, here before it prints: the file stays, unused.
    profile, log = stub_compiler(tmp_path, header_step=': > "$out"; echo "warning: noisy"; sleep 30')
    root = tmp_path / "root"
    pch = watching(root)
    start = time.monotonic()
    for name in ("a", "b"):
        assert compile_workspace(workspace_with(root, name, IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert time.monotonic() - start < 5.0, "the build is killed at its first output"
    assert calls(log) == ["version", header_build(root), "compile unset", "compile unset"]
    assert (pch_include(root) / "iostream.gch").is_file()
    assert pch.environment(profile, {"iostream"}) == {}


def _rewrite_in_place(include):
    # Same inode, size and mtime: only the ctime tells.
    gch = include / "iostream.gch"
    before = gch.stat()
    gch.write_bytes(b"\0" * before.st_size)
    os.utime(gch, ns=(before.st_atime_ns, before.st_mtime_ns))


def _add_a_header(include):
    (include / "vector").write_text("#error planted\n")


def _rewrite_the_stand_in(include):
    (include / "iostream").write_text("#error planted\n")


def _replace_the_directory(include):
    include.rename(include.with_name("old"))
    include.mkdir()
    (include / "iostream.gch").write_bytes(b"")


@pytest.mark.usefixtures("plain_environment")
@pytest.mark.parametrize("tamper", [_rewrite_in_place, _add_a_header, _rewrite_the_stand_in, _replace_the_directory])
def test_pch_changed_after_its_build_is_not_used(tmp_path, tamper):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    assert compile_workspace(workspace_with(root, "a", IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert calls(log)[-1] == f"compile {include}"
    tamper(include)
    for name in ("b", "c"):
        assert compile_workspace(workspace_with(root, name, IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert calls(log)[-2:] == ["compile unset"] * 2


# -- the fixed environment of every compiler child --------------------------------

# What every child of the build layer gets over the grader's environment.
OVERLAY = {"SOURCE_DATE_EPOCH": "0", "LC_ALL": "C", "TMPDIR": "."}


@pytest.mark.usefixtures("plain_environment")
def test_every_compiler_child_runs_with_the_fixed_environment(tmp_path, monkeypatch):
    for variable, value in (("SOURCE_DATE_EPOCH", "1"), ("LC_ALL", "C.UTF-8"), ("TMPDIR", str(tmp_path))):
        monkeypatch.setenv(variable, value)
    monkeypatch.setattr(build, "_GOLD_DIR", stub_linker(tmp_path, "GNU gold (Stub Binutils 2.40) 1.16"))
    children = []
    run_child = build.run_child

    def recorded(argv, *args, **kwargs):
        children.append((argv, kwargs.get("env")))
        return run_child(argv, *args, **kwargs)

    monkeypatch.setattr(build, "run_child", recorded)
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = watching(root)
    for name, helper in (("warm", pch), ("cold", None)):
        workspace = workspace_with(root, name, IOSTREAM_MAIN)
        (workspace / "other.cpp").write_text("#include <cstdio>\n", encoding="utf-8")
        assert compile_workspace(workspace, profile, ["main.cpp", "other.cpp"], helper).succeeded

    def kind(argv, env):
        if argv[-1] == "--version":
            return "probe"
        if "c++-header" in argv:
            return "build"
        return "warm" if "COMPILER_PATH" in env else "cold"

    for argv, env in children:
        assert env is not None and {variable: env.get(variable) for variable in OVERLAY} == OVERLAY, argv
    # The stub's empty binary is no ELF file, so its warm success under gold runs again cold.
    assert sorted(kind(*child) for child in children) == ["build", "build", "cold", "cold", "probe", "probe", "warm"]


def test_no_compile_leaves_a_file_in_the_inherited_temporary_directory(tmp_path, monkeypatch):
    inherited = tmp_path / "tmp"
    inherited.mkdir()
    for variable in ("TMPDIR", "TMP", "TEMP"):
        monkeypatch.setenv(variable, str(inherited))
    root = tmp_path / "root"
    pch = watching(root)
    warm = compile_workspace(workspace_with(root, "warm", "#include <cstdio>\nint main() {}\n"), GXX, ["main.cpp"], pch)
    assert warm.succeeded
    for flags in ((), ("-flto",)):
        profile = CompilerProfile(command=GXX.command[:1] + flags + GXX.command[1:])
        workspace = workspace_with(root, f"link-error{''.join(flags)}", LINK_ERROR)
        assert "undefined reference" in compile_workspace(workspace, profile, ["main.cpp"]).raw_output
    # A compiler killed at its time limit cannot remove what it wrote.
    stub = tmp_path / "cc"
    stub.write_text('#!/bin/sh\n: > "$TMPDIR/ccAbc123.s"\nexec sleep 30\n', encoding="utf-8")
    stub.chmod(0o755)
    killed = workspace_with(root, "killed", "int main() {}\n")
    profile = CompilerProfile(command=(str(stub), "{sources}", "-o", "{output}"), timeout_secs=0.2)
    assert "exceeded the 0.2 second limit" in compile_workspace(killed, profile, ["main.cpp"]).raw_output
    assert list(inherited.iterdir()) == []
    assert (killed / "ccAbc123.s").is_file(), "it is left in the workspace, which grading removes"


# -- binaries gold links that run writable code -------------------------------------

PT_LOAD, PT_GNU_STACK, PF_X, PF_W, PF_R = 1, 0x6474E551, 1, 2, 4


def elf(*segments, wide=True, order="<"):
    """An ELF executable's header and one program header per (type, flags) pair, and nothing else."""
    ident = b"\x7fELF" + bytes([2 if wide else 1, 1 if order == "<" else 2, 1]) + bytes(9)
    if wide:
        header = struct.pack(order + "HHIQQQIHHHHHH", 2, 62, 1, 0, 64, 0, 0, 64, 56, len(segments), 0, 0, 0)
        table = [struct.pack(order + "II6Q", kind, flags, 0, 0, 0, 0, 0, 0) for kind, flags in segments]
    else:
        header = struct.pack(order + "HHIIIIIHHHHHH", 2, 3, 1, 0, 52, 0, 0, 52, 32, len(segments), 0, 0, 0)
        table = [struct.pack(order + "6III", kind, 0, 0, 0, 0, 0, flags, 0) for kind, flags in segments]
    return ident + header + b"".join(table)


CODE, DATA, STACK = (PT_LOAD, PF_R | PF_X), (PT_LOAD, PF_R | PF_W), (PT_GNU_STACK, PF_R | PF_W)


@pytest.mark.parametrize(
    "data, writable_code",
    [
        (elf(CODE, DATA, STACK), False),
        (elf(CODE, DATA, STACK, wide=False, order=">"), False),
        (elf(CODE, DATA), True),  # no PT_GNU_STACK: the stack is executable
        (elf(CODE, DATA, (PT_GNU_STACK, PF_R | PF_W | PF_X)), True),
        (elf(CODE, DATA, (PT_GNU_STACK, PF_R | PF_W | PF_X), wide=False), True),
        (elf(CODE, (PT_LOAD, PF_R | PF_W | PF_X), STACK), True),
        (elf(CODE, DATA, STACK)[:-1], True),
        (b"", True),
        (b"#!/bin/sh\n", True),
    ],
    ids=["plain", "32-bit-big-endian", "no-stack-header", "executable-stack", "32-bit-executable-stack",
         "rwx-segment", "cut-short", "empty", "script"],
)
def test_writable_code_is_found_in_the_program_headers(tmp_path, data, writable_code):
    (tmp_path / "program").write_bytes(data)
    assert build._runs_writable_code(tmp_path / "program") is writable_code


# A GCC nested function passed as a pointer runs from a trampoline on the stack.
NESTED_FUNCTION = """#include <stdio.h>

static void apply(void (*f)(void)) { f(); }

int main(void) {
    int n = 0;
    void bump(void) { n++; }
    apply(bump);
    printf("%d\\n", n);
    return 0;
}
"""


def test_an_executable_stack_links_warm_then_reports_bfds_warning_cold(tmp_path, monkeypatch):
    if not has_gold():
        pytest.skip(NO_GOLD)
    profile = CompilerProfile(command=("gcc", "{sources}", "-o", "{output}"))
    envs = []
    run = build._run_compiler

    def recorded(command, workspace, profile, env):
        envs.append(env)
        return run(command, workspace, profile, env)

    monkeypatch.setattr(build, "_run_compiler", recorded)
    pch = watching(tmp_path / "root")
    results = {}
    for name, helper in (("cold", None), ("warm", pch)):
        workspace = tmp_path / name
        workspace.mkdir()
        (workspace / "main.c").write_text(NESTED_FUNCTION, encoding="utf-8")
        results[name] = compile_workspace(workspace, profile, ["main.c"], helper)
    cold, warm = results["cold"], results["warm"]
    assert (warm.succeeded, warm.raw_output, warm.diagnostics) == (cold.succeeded, cold.raw_output, cold.diagnostics)
    assert cold.succeeded and "ccXXXXXX.o: requires executable stack" in cold.raw_output
    assert ["warm" if env else "cold" for env in envs] == ["cold", "warm", "cold"]


def test_import_leaves_hashlib_out():
    # A content-keyed PCH directory would need hashlib, whose import alone
    # costs more peak memory than the benchmark's 10% bound allows.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, gradepipe; print('hashlib' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.stdout.strip() == "False", completed.stderr


def test_include_scan_stays_linear_on_blank_heavy_lines(tmp_path):
    text = ("\t " * 200 + "#" + " \t" * 200 + "includ\n") * 2000 + "int main() {}\n"
    workspace = workspace_with(tmp_path, "ws", text)
    start = time.perf_counter()
    assert build._leading_header(workspace / "main.cpp") is None
    assert time.perf_counter() - start < 1.0
