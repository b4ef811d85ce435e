import gc
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from gradepipe import build
from gradepipe.build import (
    MAX_OUTPUT_BYTES,
    MAX_OUTPUT_LINES,
    CompilerNotFound,
    CompilerProfile,
    Diagnostic,
    DiagnosticSeverity,
    PrecompiledHeaders,
    classify_diagnostics,
    compile_workspace,
)

from support import DATA_DIR, source, built_pch, wait_until_dead

GXX = CompilerProfile(command=("g++", "-std=c++17", "-O0", "{sources}", "-o", "{output}"))


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


def test_compile_multiple_units(tmp_path):
    (tmp_path / "main.cpp").write_text("int helper();\nint main() { return helper(); }\n")
    (tmp_path / "helper.cpp").write_text("int helper() { return 0; }\n")
    result = compile_workspace(tmp_path, GXX, ["helper.cpp", "main.cpp"])
    assert result.succeeded
    assert result.command[3:5] == ("helper.cpp", "main.cpp")  # sorted, relative


def test_compile_failure_reports_errors(tmp_path):
    (tmp_path / "main.cpp").write_text(source("leap_broken.cpp"))
    result = compile_workspace(tmp_path, GXX, ["main.cpp"])
    assert not result.succeeded
    assert result.output_path is None
    assert result.error_count >= 1
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


def test_compile_timeout_becomes_failed_result(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    profile = CompilerProfile(
        command=("/bin/sh", "-c", "sleep 10", "sh", "{sources}", "-o", "{output}"),
        timeout_secs=0.3,
    )
    result = compile_workspace(tmp_path, profile, ["main.cpp"])
    assert not result.succeeded
    assert any("exceeded" in d.text for d in result.diagnostics)
    assert result.error_count >= 1


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
    assert result.error_count == kept


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

LIBRARY_NOTE = "#include <iostream>\nstruct S {};\nint main() { std::cout << S{}; }\n"
WARNING_ONLY = "#include <iostream>\nint main() { int unused; std::cout << 1; }\n"
WARNING_AND_ERROR = "#include <iostream>\nint main() { int unused; std::cout << missing; }\n"

CASES = {
    **{path.name: (GXX, path.read_text(encoding="utf-8")) for path in sorted(DATA_DIR.glob("*.cpp"))},
    "library-note": (GXX, LIBRARY_NOTE),
    "wall-warning-only": (WALL, WARNING_ONLY),
    "wall-warning-and-error": (WALL, WARNING_AND_ERROR),
}


@pytest.fixture
def build_on_first_use(monkeypatch):
    """Build the PCH on the first compile that wants it, without waiting for two silent ones."""
    monkeypatch.setattr(build, "PCH_BUILD_AFTER_SILENT", 0)


@pytest.fixture(scope="module")
def warm_headers(tmp_path_factory):
    """One PrecompiledHeaders per profile, shared by the cases of this module."""
    helpers = {}

    def get(profile):
        if profile not in helpers:
            helpers[profile] = PrecompiledHeaders(tmp_path_factory.mktemp("pch"))
            built_pch(helpers[profile], profile)
        return helpers[profile]

    yield get
    for helper in helpers.values():
        helper.close()


@pytest.mark.usefixtures("build_on_first_use")
@pytest.mark.parametrize("case", sorted(CASES))
def test_diagnostics_are_identical_with_and_without_the_pch(tmp_path, monkeypatch, warm_headers, case):
    profile, text = CASES[case]
    # Noisy cases are not counted, so every case tries the PCH.
    monkeypatch.setattr(PrecompiledHeaders, "record", lambda self, silent: None)
    envs = []
    run = build._run_compiler
    monkeypatch.setattr(build, "_run_compiler", lambda *args: envs.append(args[3]) or run(*args))
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
    assert warm.command == cold.command
    assert warm.succeeded is cold.succeeded
    if "#include <iostream>" not in text:
        assert envs == [None]
        return
    include_dir = envs[0]["CPLUS_INCLUDE_PATH"].split(os.pathsep)[0]
    assert os.path.isfile(os.path.join(include_dir, "iostream.gch"))
    # Only a silent success is kept; anything printed is reported from a cold rerun.
    assert envs[1:] == ([] if cold.succeeded and not cold.raw_output else [None])


# -- precompiled headers: lifecycle ------------------------------------------------

GCC_BANNER = "g++ (Stub 12.2.0) 12.2.0\nCopyright (C) 2022 Free Software Foundation, Inc.\n"
IOSTREAM_MAIN = "#include <iostream>\nint main() {}\n"


def stub_compiler(directory, banner=GCC_BANNER, compile_step="", header_step=":"):
    """A profile whose compiler is a shell script that logs every call.

    ``--version`` prints ``banner``; a ``-x c++-header`` build runs
    ``header_step`` and writes its output; a compile runs ``compile_step``,
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
        f"echo \"compile ${{CPLUS_INCLUDE_PATH-unset}}\" >> '{log}'\n"
        f"{compile_step}\n"
        ': > "$out"\n',
        encoding="utf-8",
    )
    script.chmod(0o755)
    return CompilerProfile(command=(str(script), "{sources}", "-o", "{output}")), log


def calls(log):
    return log.read_text(encoding="utf-8").splitlines() if log.exists() else []


def workspace_with(root, name, text):
    workspace = root / name
    workspace.mkdir(parents=True)
    (workspace / "main.cpp").write_text(text, encoding="utf-8")
    return workspace


@pytest.fixture
def no_inherited_include_path(monkeypatch):
    monkeypatch.delenv("CPLUS_INCLUDE_PATH", raising=False)


@pytest.mark.usefixtures("no_inherited_include_path")
def test_pch_is_built_after_two_silent_compiles_that_include_iostream(tmp_path):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    texts = [IOSTREAM_MAIN, "#include <cstdio>\nint main() {}\n", IOSTREAM_MAIN]
    for i, text in enumerate(texts):
        assert compile_workspace(workspace_with(root, f"cold{i}", text), profile, ["main.cpp"], pch).succeeded
    assert calls(log) == ["compile unset"] * 3
    assert list(root.glob(".pch-*")) == []

    assert compile_workspace(workspace_with(root, "warm", IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    (pch_dir,) = root.glob(".pch-*")
    assert calls(log)[3:] == ["version", "build wrap/iostream", f"compile {pch_dir / 'include'}"]
    pch.close()


@pytest.mark.usefixtures("no_inherited_include_path")
def test_pch_is_built_and_used_only_while_noisy_compiles_are_no_more_than_silent(tmp_path):
    # A program that declares `unused` warns, so under the PCH it reruns cold.
    profile, log = stub_compiler(tmp_path, compile_step='grep -q unused main.cpp && echo "warning: unused"')
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    noisy = "#include <iostream>\nint unused;\n"
    texts = [noisy, noisy, IOSTREAM_MAIN, IOSTREAM_MAIN, IOSTREAM_MAIN, noisy, noisy, noisy, IOSTREAM_MAIN]
    for i, text in enumerate(texts):
        compile_workspace(workspace_with(root, f"ws{i}", text), profile, ["main.cpp"], pch)
    (pch_dir,) = root.glob(".pch-*")
    warm, cold = f"compile {pch_dir / 'include'}", "compile unset"
    assert [line for line in calls(log) if line.startswith("compile")] == [
        cold, cold, cold, cold,  # no PCH until 2 compiles were silent
        warm,  # 2 silent, 2 noisy so far: built, and kept
        warm, cold,  # 3 silent, 2 noisy: tried, but it warns
        warm, cold,  # 3 silent, 3 noisy: tried, but it warns
        cold,  # 3 silent, 4 noisy: not tried
        cold,  # 3 silent, 5 noisy: not tried
    ]
    pch.close()


@pytest.mark.usefixtures("no_inherited_include_path", "build_on_first_use")
def test_cstdio_workspace_builds_no_pch_and_asks_no_version(tmp_path):
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    workspace = workspace_with(root, "ws", "#include <cstdio>\nint main() {}\n")
    assert compile_workspace(workspace, profile, ["main.cpp"], pch).succeeded
    assert calls(log) == ["compile unset"]
    assert list(root.glob(".pch-*")) == []


@pytest.mark.usefixtures("no_inherited_include_path", "build_on_first_use")
def test_concurrent_compiles_build_the_header_once_and_close_removes_it(tmp_path):
    # More compiles than cores, with frequent thread switches. The build
    # finishes only once some other compile has run cold, without it.
    wait = f"i=0; until grep -q 'compile unset' '{tmp_path / 'calls.log'}' || [ $i -ge 200 ]; do sleep 0.05; i=$((i+1)); done"
    profile, log = stub_compiler(tmp_path, header_step=wait)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
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
    (pch_dir,) = root.glob(".pch-*")
    log_lines = calls(log)
    assert (log_lines.count("version"), log_lines.count("build wrap/iostream")) == (1, 1)
    warm = log_lines.count(f"compile {pch_dir / 'include'}")
    assert warm >= 1 and log_lines.count("compile unset") >= 1
    assert warm + log_lines.count("compile unset") == len(workspaces)
    assert pch._silent == len(workspaces), "no count was lost"
    assert (pch_dir / "include" / "iostream.gch").is_file()
    assert (pch_dir / "wrap" / "iostream").read_text() == "#include <iostream>\n"
    pch.close()
    assert list(root.glob(".pch-*")) == []


@pytest.mark.usefixtures("no_inherited_include_path", "build_on_first_use")
def test_clang_gets_no_pch(tmp_path):
    profile, log = stub_compiler(tmp_path, banner="clang version 15.0.0\nTarget: x86_64-pc-linux-gnu\n")
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    for name in ("a", "b"):
        assert compile_workspace(workspace_with(root, name, IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert calls(log) == ["version", "compile unset", "compile unset"]
    assert list(root.glob(".pch-*")) == []


@pytest.mark.usefixtures("build_on_first_use")
@pytest.mark.parametrize("inherited", [None, "", "/usr/local/include", "/a:/b"])
def test_inherited_include_path_is_kept_and_no_empty_element_added(tmp_path, monkeypatch, inherited):
    if inherited is None:
        monkeypatch.delenv("CPLUS_INCLUDE_PATH", raising=False)
    else:
        monkeypatch.setenv("CPLUS_INCLUDE_PATH", inherited)
    profile, log = stub_compiler(tmp_path)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    workspace = workspace_with(root, "ws", IOSTREAM_MAIN)
    assert compile_workspace(workspace, profile, ["main.cpp"], pch).succeeded
    expected = os.pathsep.join([str(include)] + ([inherited] if inherited else []))
    assert calls(log)[-1] == f"compile {expected}"
    pch.close()


@pytest.mark.usefixtures("no_inherited_include_path", "build_on_first_use")
def test_warning_under_the_pch_reruns_cold_without_the_pch_binary(tmp_path):
    # Under the PCH this compiler warns and writes the binary; cold, it warns
    # and writes nothing, so a binary left over from the first run would pass.
    profile, log = stub_compiler(
        tmp_path, compile_step='echo "main.cpp:2:5: warning: unused"; [ -n "$CPLUS_INCLUDE_PATH" ] || exit 0'
    )
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    include = built_pch(pch, profile)
    workspace = workspace_with(root, "ws", "#include <iostream>\nint main() { int unused; }\n")
    result = compile_workspace(workspace, profile, ["main.cpp"], pch)
    assert calls(log)[-2:] == [f"compile {include}", "compile unset"]
    assert not result.succeeded
    assert result.raw_output == (
        "main.cpp:2:5: warning: unused\nerror: compiler reported success but produced no output file"
    )
    assert not (workspace / "program").exists()
    pch.close()


@pytest.mark.usefixtures("no_inherited_include_path", "build_on_first_use")
def test_a_timed_out_header_build_leaves_no_process_behind(tmp_path):
    pid_file = tmp_path / "bg.pid"
    profile, log = stub_compiler(tmp_path, header_step=f"sleep 30 & echo $! > '{pid_file}'; wait")
    profile = CompilerProfile(command=profile.command, timeout_secs=0.3)
    root = tmp_path / "root"
    pch = PrecompiledHeaders(root)
    start = time.monotonic()
    assert compile_workspace(workspace_with(root, "ws", IOSTREAM_MAIN), profile, ["main.cpp"], pch).succeeded
    assert time.monotonic() - start < 5.0, "the build is killed at its deadline"
    assert calls(log) == ["version", "build wrap/iostream", "compile unset"]
    assert wait_until_dead(int(pid_file.read_text()), within=0.5)
    pch.close()


def _rewrite_in_place(include):
    # Same inode, size and mtime: only the ctime tells.
    gch = include / "iostream.gch"
    before = gch.stat()
    gch.write_bytes(b"\0" * before.st_size)
    os.utime(gch, ns=(before.st_atime_ns, before.st_mtime_ns))


def _add_a_header(include):
    (include / "vector").write_text("#error planted\n")


def _replace_the_directory(include):
    include.rename(include.with_name("old"))
    include.mkdir()
    (include / "iostream.gch").write_bytes(b"")


@pytest.mark.usefixtures("no_inherited_include_path", "build_on_first_use")
@pytest.mark.parametrize("tamper", [_rewrite_in_place, _add_a_header, _replace_the_directory])
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
    pch.close()
    assert list(root.glob(".pch-*")) == []


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
    assert not build._includes_iostream(workspace, ["main.cpp"])
    assert time.perf_counter() - start < 1.0
