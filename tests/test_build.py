import subprocess

import pytest

from gradepipe.build import (
    CompilerNotFound,
    CompilerProfile,
    DiagnosticSeverity,
    classify_diagnostics,
    compile_workspace,
)

from support import source

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


def test_success_without_binary_is_a_failure(tmp_path):
    (tmp_path / "main.cpp").write_text("int main() {}\n")
    profile = CompilerProfile(command=("/bin/sh", "-c", "exit 0", "sh", "{sources}", "-o", "{output}"))
    result = compile_workspace(tmp_path, profile, ["main.cpp"])
    assert not result.succeeded
    assert any("no output file" in d.text for d in result.diagnostics)
