"""Tests of the benchmark itself: generators, verifier, tracing and output names.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import generate  # noqa: E402
from verify import read_events, verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
needs_compiler = pytest.mark.skipif(shutil.which("g++") is None, reason="needs g++")


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_same_bytes_and_expectations(workload):
    assert generate.build_inputs(workload, 7, 24) == generate.build_inputs(workload, 7, 24)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_different_seed_gives_different_bytes(workload):
    first = {archive.data for archive in generate.build_inputs(workload, 7, 24).archives}
    second = {archive.data for archive in generate.build_inputs(workload, 8, 24).archives}
    assert len(first) == 24
    assert not first & second


def test_semester_mix_pins_the_hang_and_holds_every_quarantine():
    archives = generate.build_inputs("semester", 3, 40).archives
    names = sorted(archive.name for archive in archives)
    kinds = {archive.name: archive.kind for archive in archives}
    assert list(kinds.values()).count("hang") == 1
    assert names.index(next(n for n, k in kinds.items() if k == "hang")) in range(8, 13)
    assert {archive.expected.reason for archive in archives if archive.expected.state == "Quarantined"} >= {
        "wrong-assignment", "corrupt-archive", "path-traversal",
    }


def test_tail_is_the_highest_sample_with_ten_beyond_it():
    assert bench.tail_rank(40) == (29, 75.0)
    assert bench.tail_rank(11) == (0, 100.0 / 11)
    with pytest.raises(ValueError):
        bench.tail_rank(10)


def test_quantile_is_smooth_where_the_median_jumps():
    assert bench.quantile(range(71), 0.5) == pytest.approx(35.0)
    assert bench.quantile(range(70), 60 / 70) == pytest.approx(59.5)
    # Two modes: moving one sample across the gap moves the order-statistic
    # median the whole gap, and this estimate only part of it.
    low = [1.0] * 36 + [2.0] * 35
    high = [1.0] * 35 + [2.0] * 36
    assert bench.statistics.median(high) - bench.statistics.median(low) == 1.0
    assert 0.0 < bench.quantile(high, 0.5) - bench.quantile(low, 0.5) < 0.2


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("seconds", [1, 30, 60])
def test_every_run_grades_enough_archives_for_a_tail(workload, seconds):
    count = bench.archive_count(workload, seconds)
    assert bench.tail_rank(count)[0] >= count // 2


@pytest.fixture(scope="module")
def graded(tmp_path_factory):
    """A small inbox graded once with tracing on, as the traced run does."""
    archives = generate.semester_archives("semester", 5, 12, hang=False)
    inputs = generate.Inputs("semester", 5, archives, {"grade": generate.FIXTURE_SPEC.read_text(encoding="utf-8")})
    dirs = bench.Dirs(tmp_path_factory.mktemp("graded"))
    result, tracer = bench.run_batch_pass(inputs, dirs, bench.install_tracer)
    return inputs, dirs, result, tracer


def _outcomes(result):
    return {name: record.outcome for name, record in result.records.items()}


@needs_compiler
def test_untampered_run_verifies(graded):
    inputs, dirs, result, _ = graded
    assert result.failures == {}
    assert len(result.records) == len(inputs.archives)


@needs_compiler
def test_verifier_rejects_a_tampered_score(graded):
    inputs, dirs, result, _ = graded
    events = read_events(dirs.log)
    target = next(a for a in inputs.archives if a.expected.state == "Graded")
    tampered = tuple(
        replace(a, expected=replace(a.expected, score=a.expected.score - 1)) if a is target else a
        for a in inputs.archives
    )
    assert list(verify(tampered, _outcomes(result), dirs.reports, events)) == [target.name]

    report = dirs.reports / f"{target.expected.stem}.report.json"
    original = report.read_text(encoding="utf-8")
    payload = json.loads(original)
    payload["score"] -= 1
    report.write_text(json.dumps(payload), encoding="utf-8")
    try:
        failures = verify(inputs.archives, _outcomes(result), dirs.reports, events)
    finally:
        report.write_text(original, encoding="utf-8")
    assert any("report json score" in problem for problem in failures[target.name])


@needs_compiler
def test_verifier_rejects_a_missing_report_and_a_missing_outcome(graded):
    inputs, dirs, result, _ = graded
    events = read_events(dirs.log)
    target = next(a for a in inputs.archives if a.expected.state == "Graded")
    report = dirs.reports / f"{target.expected.stem}.report.txt"
    original = report.read_bytes()
    report.unlink()
    try:
        failures = verify(inputs.archives, _outcomes(result), dirs.reports, events)
    finally:
        report.write_bytes(original)
    assert failures == {target.name: ["report pair missing"]}

    outcomes = _outcomes(result)
    del outcomes[target.name]
    assert "never reached a terminal state" in verify(inputs.archives, outcomes, dirs.reports, events)[target.name]


@needs_compiler
def test_verifier_rejects_a_duplicate_terminal_event(graded):
    inputs, dirs, result, _ = graded
    events = read_events(dirs.log)
    graded_event = next(e for e in events if e["kind"] == "graded")
    failures = verify(inputs.archives, _outcomes(result), dirs.reports, events + [graded_event])
    assert list(failures.values()) == [["2 terminal events"]]


@needs_compiler
def test_metric_names_are_well_formed_and_match_benchmark_json(graded):
    _, _, result, tracer = graded
    end_to_end = {"setup_s": (0.0, "s"), **bench.end_to_end(result)}
    per_layer = bench.per_layer(tracer, result)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in [*end_to_end, *per_layer, *(w["name"] for w in declared["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in declared["workloads"]} == set(bench.WORKLOADS)
    for section, measured in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        for entry in declared[section]:
            assert measured[entry["name"]][1] == entry["unit"], entry["name"]
    assert {e["name"] for e in declared["end_to_end"]} == set(end_to_end)


@needs_compiler
def test_self_times_add_up_to_grade_busy_time(graded):
    _, _, result, tracer = graded
    claims = bench.layer_claims("semester", tracer, bench.per_layer(tracer, result))
    assert claims[0] == ("grade child spans + pipeline.grade.self_s == pipeline.grade.busy_s", True)
    traces = {span.trace_id for span in tracer.spans if span.name == "build.compile"}
    assert len(traces) == sum(1 for span in tracer.spans if span.name == "build.compile")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "semester", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
