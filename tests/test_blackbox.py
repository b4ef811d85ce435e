import gc
import random
import time
import warnings
from itertools import product
from pathlib import Path

import pytest

from gradepipe.blackbox import (
    NormalizationPolicy,
    SpawnFailure,
    TestCase,
    TestOutcome,
    normalize_output,
    run_test,
    run_test_suite,
)
from gradepipe.child import run_child

from support import make_program, wait_until_dead


# -- normalization -------------------------------------------------------------


def test_normalize_defaults():
    messy = "Leap year \r\nsecond line\t\r\n\r\n\r\n"
    assert normalize_output(messy) == "Leap year\nsecond line"


def test_normalize_lone_carriage_returns():
    assert normalize_output("a\rb\rc") == "a\nb\nc"


def test_normalize_case_folding_is_optional():
    relaxed = NormalizationPolicy(case_sensitive=False)
    assert normalize_output("HELLO World", relaxed) == "hello world"
    assert normalize_output("HELLO World") == "HELLO World"


def test_normalize_blank_input():
    assert normalize_output("") == ""
    assert normalize_output("\n\n  \n") == ""


def test_normalize_interior_blank_lines_survive():
    assert normalize_output("a\n\nb\n") == "a\n\nb"


def test_normalize_idempotent_random_strings():
    alphabet = "ab \t\r\nSsß"
    rng = random.Random(77)
    policies = [
        NormalizationPolicy(*flags)
        for flags in product((True, False), repeat=4)
    ]
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        for policy in policies:
            once = normalize_output(text, policy)
            assert normalize_output(once, policy) == once


# -- test case validation ---------------------------------------------------------


def test_case_validation():
    with pytest.raises(ValueError):
        TestCase("", expected_stdout="x")
    with pytest.raises(ValueError):
        TestCase("t", expected_stdout="x", timeout_secs=0)
    with pytest.raises(ValueError):
        TestCase("t", expected_stdout="x", weight=-1)


# -- running programs --------------------------------------------------------------


def test_pass_and_fail(tmp_path):
    program = make_program(tmp_path, 'printf "Leap year\\n"')
    passed = run_test(program, TestCase("ok", expected_stdout="Leap year\n"))
    assert passed.outcome is TestOutcome.PASS
    assert passed.exit_code == 0
    failed = run_test(program, TestCase("no", expected_stdout="Common year\n"))
    assert failed.outcome is TestOutcome.FAIL
    assert failed.actual == "Leap year"
    assert failed.expected == "Common year"
    assert failed.detail == "output mismatch"


def test_stdin_reaches_program(tmp_path):
    program = make_program(tmp_path, "cat")
    result = run_test(program, TestCase("echo", expected_stdout="2000\n", stdin_text="2000\n"))
    assert result.outcome is TestOutcome.PASS


def test_args_reach_program(tmp_path):
    program = make_program(tmp_path, 'echo "$@"')
    result = run_test(
        program, TestCase("argv", expected_stdout="alpha beta\n", args=("alpha", "beta"))
    )
    assert result.outcome is TestOutcome.PASS


def test_a_program_sees_none_of_the_graders_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GRADEPIPE_TEST_MARKER", "secret-token-123")
    program = make_program(tmp_path, 'printf "%s" "$GRADEPIPE_TEST_MARKER"')
    result = run_test(program, TestCase("marker", expected_stdout=""))
    assert (result.outcome, result.actual) == (TestOutcome.PASS, "")


def test_a_program_gets_a_fixed_path_and_the_c_locale(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", f"{tmp_path}:/usr/bin:/bin")
    monkeypatch.setenv("LC_ALL", "en_US.UTF-8")
    program = make_program(tmp_path, 'printf "%s %s %s" "$PATH" "$LC_ALL" "${HOME-unset}"')
    result = run_test(program, TestCase("env", expected_stdout="/usr/bin:/bin C unset"))
    assert result.outcome is TestOutcome.PASS, result.actual


def test_nonzero_exit_with_matching_output_passes(tmp_path):
    program = make_program(tmp_path, 'printf "done\\n"; exit 3')
    result = run_test(program, TestCase("exit3", expected_stdout="done\n"))
    assert result.outcome is TestOutcome.PASS
    assert result.exit_code == 3


def test_normalization_forgives_cosmetics(tmp_path):
    program = make_program(tmp_path, 'printf "Leap year   \\r\\n\\n\\n"')
    result = run_test(program, TestCase("cosmetic", expected_stdout="Leap year\n"))
    assert result.outcome is TestOutcome.PASS


def test_crash_is_a_runtime_error(tmp_path):
    program = make_program(tmp_path, 'kill -SEGV $$')
    result = run_test(program, TestCase("crash", expected_stdout=""))
    assert result.outcome is TestOutcome.RUNTIME_ERROR
    assert "SIGSEGV" in result.detail


def test_timeout_kills_and_reports(tmp_path):
    program = make_program(tmp_path, "sleep 10")
    start = time.monotonic()
    result = run_test(program, TestCase("hang", expected_stdout="", timeout_secs=0.5))
    elapsed = time.monotonic() - start
    assert result.outcome is TestOutcome.TIMEOUT
    assert result.exit_code is None
    assert "0.5" in result.detail
    assert elapsed < 3.0


def test_output_flood_is_cut_off(tmp_path):
    program = make_program(tmp_path, 'while :; do printf "spamspamspamspam"; done')
    start = time.monotonic()
    result = run_test(
        program,
        TestCase("flood", expected_stdout="", timeout_secs=10.0),
        output_cap=4096,
    )
    elapsed = time.monotonic() - start
    assert result.outcome is TestOutcome.OUTPUT_OVERFLOW
    assert "4096" in result.detail
    assert len(result.actual.encode()) <= 4096
    assert elapsed < 5.0  # killed by the cap, not the timeout


def test_quiet_hang_vs_noisy_hang_distinguished(tmp_path):
    # Timeout and overflow are different failure stories and must not blur.
    quiet = make_program(tmp_path, "sleep 10", name="quiet.sh")
    noisy = make_program(tmp_path, 'while :; do printf x; done', name="noisy.sh")
    assert (
        run_test(quiet, TestCase("q", expected_stdout="", timeout_secs=0.4)).outcome
        is TestOutcome.TIMEOUT
    )
    assert (
        run_test(noisy, TestCase("n", expected_stdout="", timeout_secs=5.0), output_cap=2048).outcome
        is TestOutcome.OUTPUT_OVERFLOW
    )


def test_missing_program_raises_spawn_failure(tmp_path):
    with pytest.raises(SpawnFailure):
        run_test(tmp_path / "not-built", TestCase("t", expected_stdout=""))


def test_program_may_ignore_stdin(tmp_path):
    program = make_program(tmp_path, 'printf "fixed\\n"')
    result = run_test(
        program, TestCase("ignored-stdin", expected_stdout="fixed\n", stdin_text="x" * 200_000)
    )
    assert result.outcome is TestOutcome.PASS


def test_a_program_cannot_write_to_its_stdin(tmp_path):
    program = make_program(tmp_path, "cat; echo x >&0 2>/dev/null || echo ro")
    result = run_test(program, TestCase("stdin-is-input", expected_stdout="2000\nro\n", stdin_text="2000\n"))
    assert result.outcome is TestOutcome.PASS, result.actual


# -- suites --------------------------------------------------------------------


@pytest.mark.parametrize(
    "body, stdin_text",
    [
        ("cat", "2000\n"),
        ("exit 0", "y" * 1_000_000),
        ("echo 2000; sleep 30 &", ""),
        ("echo 2000", "z" * (4 << 20)),
    ],
    ids=["reads-stdin", "ignores-large-stdin", "background-holds-stdout", "never-reads-4mib-stdin"],
)
def test_run_test_closes_its_pipes(tmp_path, body, stdin_text):
    program = make_program(tmp_path, body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run_test(program, TestCase("t", "2000\n", stdin_text=stdin_text))
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_background_child_holding_stdout_is_killed_after_a_grace(tmp_path):
    program = make_program(tmp_path, "echo 2000; sleep 30 & echo $! > bg.pid")
    start = time.monotonic()
    result = run_test(program, TestCase("t", "2000\n", timeout_secs=10))
    elapsed = time.monotonic() - start
    assert result.outcome is TestOutcome.PASS
    assert (result.actual, result.exit_code) == ("2000", 0)
    assert 0.9 < elapsed < 3.0, "the exit starts a 1 s grace, not the 10 s timeout"
    assert wait_until_dead(int((tmp_path / "bg.pid").read_text()))


def test_run_child_takes_a_timeout_longer_than_one_epoll_wait():
    # epoll refuses a single wait of 2**31 ms (about 24.8 days); validation accepts any finite timeout.
    assert run_child(["true"], None, 1e9, lambda chunk: True) == (0, False)


def test_suite_runs_in_order_and_counts(tmp_path):
    program = make_program(tmp_path, "cat")
    cases = [
        TestCase("first", expected_stdout="1\n", stdin_text="1\n"),
        TestCase("second", expected_stdout="2\n", stdin_text="WRONG\n"),
        TestCase("third", expected_stdout="3\n", stdin_text="3\n"),
    ]
    suite = run_test_suite(program, cases)
    assert [r.test_id for r in suite] == ["first", "second", "third"]
    assert [r.outcome for r in suite] == [
        TestOutcome.PASS,
        TestOutcome.FAIL,
        TestOutcome.PASS,
    ]
