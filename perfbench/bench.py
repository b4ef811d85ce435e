"""Runs one workload through the public ``GradingSession`` API and measures it.

A run generates its inbox from the seed, grades it once with tracing off
for the end-to-end metrics and, when asked, once more with tracing on for
the per-layer metrics. Every outcome is checked against the generator's
expectation; see ``README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gradepipe
import yaml
from gradepipe import GradingSession, blackbox, lexcheck, pipeline, specfile
from gradepipe.assess import GradingLog
from gradepipe.ingest import InboxScanner

import generate
from tracing import Span, Tracer
from verify import read_events, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

JOBS = 2
WATCH_RATE = 1.5  # archives per second, about half of semester throughput
WATCH_POLL = 1.0
WATCH_LEAD = 0.25  # first arrival, seconds after the watcher starts
# Cold set-ups timed before grading, and as many again after it. The host
# runs a fresh interpreter at one of two speeds, about 1.7x apart, for a
# second or so at a time. A median of single set-ups would flip between
# the two with the mix, so setup_s is the median of the means of groups
# of SETUP_GROUP consecutive set-ups, taken from two windows half a
# minute apart.
SETUP_REPS = 8
SETUP_GROUP = 4
# Archives graded per second of --seconds. On the 2-core box the benchmark
# was tuned on, each workload's timed phase then lasts about --seconds.
ARCHIVES_PER_SECOND = {"semester": 3.6, "lexical-stress": 1.1, "watch-stream": WATCH_RATE}
# The grade tail is the highest sample with ten beyond it; below 21 samples
# it would fall under the median.
MIN_ARCHIVES = 24
WORKLOADS = tuple(ARCHIVES_PER_SECOND)


def archive_count(workload: str, seconds: float) -> int:
    return max(MIN_ARCHIVES, round(ARCHIVES_PER_SECOND[workload] * seconds))


@dataclass(frozen=True)
class Record:
    start: float
    end: float
    outcome: tuple[str, float | None, str]  # status, score, detail


class TimedSession(GradingSession):
    """A session that notes when each ``grade_archive`` call starts and ends."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records: dict[str, Record] = {}
        self.changed = threading.Condition()

    def grade_archive(self, archive_path, received_at=None):
        start = time.perf_counter()
        report = super().grade_archive(archive_path, received_at)
        end = time.perf_counter()
        with self.changed:
            self.records[Path(archive_path).name] = Record(
                start, end, (report.status.value, report.score, report.detail)
            )
            self.changed.notify_all()
        return report


@dataclass
class PassResult:
    """One timed grading pass over an inbox."""

    records: dict[str, Record]
    due: dict[str, float]  # when each archive was due in the inbox
    wall_start: float
    wall_end: float
    cpu_s: float
    failures: dict[str, list[str]]
    log_bytes: int
    arrivals: dict[str, float] = field(default_factory=dict)  # watch-stream only


def _steal_seconds() -> float | None:
    """CPU time the host withheld from this machine so far, if it says."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Dirs:
    def __init__(self, root: Path):
        self.root = root
        self.inbox = root / "inbox"
        self.staging = root / "staging"
        self.reports = root / "reports"
        self.log = root / "grading.log"
        for path in (self.inbox, self.staging):
            path.mkdir(parents=True, exist_ok=True)

    def session(self, spec) -> TimedSession:
        return TimedSession(
            spec,
            workspace_root=self.root / "workspace",
            reports_dir=self.reports,
            quarantine_dir=self.root / "quarantine",
            log_path=self.log,
            jobs=JOBS,
        )

    def spec_file(self, role: str, text: str) -> Path:
        path = self.root / f"{role}.yaml"
        path.write_text(text, encoding="utf-8")
        return path

    def fill_inbox(self, archives) -> None:
        for archive in archives:
            (self.inbox / archive.name).write_bytes(archive.data)


def _log_size(path: Path) -> tuple[int, int]:
    """Lines and bytes in the audit log so far."""
    if not path.exists():
        return 0, 0
    return len(path.read_text(encoding="utf-8").splitlines()), path.stat().st_size


def _check(inputs, dirs: Dirs, session: TimedSession, log_lines: int) -> dict[str, list[str]]:
    outcomes = {name: record.outcome for name, record in session.records.items()}
    return verify(inputs.archives, outcomes, dirs.reports, read_events(dirs.log, log_lines))


def run_batch_pass(inputs, dirs: Dirs, tracer_factory) -> tuple[PassResult, Tracer | None]:
    """Grade a closed inbox."""
    dirs.fill_inbox(inputs.archives)
    log_lines, log_bytes = _log_size(dirs.log)
    tracer = tracer_factory()
    try:
        spec = specfile.load_spec(dirs.spec_file("grade", inputs.specs["grade"]))
        with dirs.session(spec) as session:
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            session.run_batch(dirs.inbox)
            end = time.perf_counter()
            cpu_s = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.close()
    result = PassResult(
        records=dict(session.records),
        due={archive.name: start for archive in inputs.archives},
        wall_start=start,
        wall_end=end,
        cpu_s=cpu_s,
        failures=_check(inputs, dirs, session, log_lines),
        log_bytes=dirs.log.stat().st_size - log_bytes,
    )
    return result, tracer


def run_watch_pass(inputs, dirs: Dirs, tracer_factory) -> tuple[PassResult, Tracer | None]:
    """Open loop: archives land at a fixed rate while the watcher polls."""
    tracer = tracer_factory()
    errors: list[BaseException] = []
    arrivals: dict[str, float] = {}
    try:
        spec = specfile.load_spec(dirs.spec_file("grade", inputs.specs["grade"]))
        with dirs.session(spec) as session:
            stop = threading.Event()

            def watch() -> None:
                try:
                    session.watch_inbox(dirs.inbox, WATCH_POLL, stop)
                except BaseException as exc:  # re-raised on the main thread
                    errors.append(exc)
                    stop.set()

            def deliver() -> None:
                for archive in inputs.archives:
                    delay = due[archive.name] - time.perf_counter()
                    if delay > 0 and stop.wait(delay):
                        return
                    # Written aside and renamed in, so each archive lands whole.
                    staged = dirs.staging / archive.name
                    staged.write_bytes(archive.data)
                    os.replace(staged, dirs.inbox / archive.name)
                    arrivals[archive.name] = time.perf_counter()

            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            due = {a.name: start + WATCH_LEAD + i / WATCH_RATE for i, a in enumerate(inputs.archives)}
            threads = [threading.Thread(target=watch), threading.Thread(target=deliver)]
            for thread in threads:
                thread.start()
            deadline = max(due.values()) + 60.0
            with session.changed:
                session.changed.wait_for(
                    lambda: len(session.records) == len(inputs.archives) or stop.is_set(),
                    timeout=max(0.0, deadline - time.perf_counter()),
                )
            stop.set()
            for thread in threads:
                thread.join()
            cpu_s = _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.close()
    if errors:
        raise errors[0]
    result = PassResult(
        records=dict(session.records),
        due=due,
        wall_start=min(due.values()),
        wall_end=max((r.end for r in session.records.values()), default=time.perf_counter()),
        cpu_s=cpu_s,
        failures=_check(inputs, dirs, session, 0),
        log_bytes=dirs.log.stat().st_size,
        arrivals=arrivals,
    )
    return result, tracer


# -- metrics --------------------------------------------------------------------

def tail_rank(count: int) -> tuple[int, float]:
    """Index and percentile of the highest sample with ten samples beyond it."""
    index = count - 11
    if index < 0:
        raise ValueError(f"a tail needs at least 11 samples, got {count}")
    return index, 100.0 * (index + 1) / count


def quantile(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    It weights every order statistic by a beta density centred on ``p``
    instead of picking one. Grade times are bimodal (a compile alone or
    beside another one, and the host's own fast and slow spells), and a
    single order statistic jumps between the modes as their mix shifts by
    a sample or two; this estimate moves smoothly with the mix.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = []
    for i in range(n):  # Simpson's rule over [i/n, (i+1)/n]
        lo, h = i / n, 1.0 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _tail(values) -> float:
    return quantile(values, tail_rank(len(values))[1] / 100.0)


def end_to_end(result: PassResult) -> dict[str, tuple[float, str]]:
    records = result.records
    grade = [r.end - r.start for r in records.values()]
    feedback = [r.end - result.due[name] for name, r in records.items()]
    done = len(records)
    return {
        "throughput_sps": (done / (result.wall_end - result.wall_start), "1/s"),
        "grade_p50_s": (quantile(grade, 0.5), "s"),
        "grade_tail_s": (_tail(grade), "s"),
        "feedback_p50_s": (quantile(feedback, 0.5), "s"),
        "feedback_tail_s": (_tail(feedback), "s"),
        "cpu_s_per_sub": (result.cpu_s / done, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def setup_times(spec_path: Path, workdir: Path, tag: str) -> list[float]:
    """Seconds of ``SETUP_REPS`` cold set-ups, each in a fresh interpreter."""
    times = []
    for rep in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec_path), str(workdir / f"{tag}-{rep}"), str(JOBS)],
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout
        times.append(float(out.strip().splitlines()[-1]))
    return times


def install_tracer() -> Tracer:
    """Wrap the public call into each layer."""
    tracer = Tracer()

    def archive_bytes(span: Span, args, kwargs, result) -> None:
        span.attrs["bytes"] = Path(args[0].archive_path).stat().st_size

    def compile_failed(span: Span, args, kwargs, result) -> None:
        span.attrs["failed"] = not result.succeeded

    def source_bytes(span: Span, args, kwargs, result) -> None:
        span.attrs["bytes"] = sum(len(text.encode("utf-8")) for _, text in result)

    def preprocess_key(span: Span, args, kwargs, result) -> None:
        flags = tuple(args[1:3]) + tuple(sorted(kwargs.items()))
        span.attrs["key"] = hash((args[0], flags))

    def test_outcome(span: Span, args, kwargs, result) -> None:
        span.attrs["outcome"] = result.outcome.value

    def grade_archive(span: Span, args, kwargs, result) -> None:
        span.attrs["archive"] = Path(args[1]).name

    def scan(span: Span, args, kwargs, result) -> None:
        span.attrs["handed"] = [path.name for path in result]

    tracer.patch(specfile, "load_spec", "specfile.load")
    tracer.patch(GradingSession, "grade_archive", "pipeline.grade", grade_archive, new_trace=True)
    tracer.patch(InboxScanner, "poll", "ingest.scan", scan)
    tracer.patch(pipeline, "extract_archive", "ingest.extract", archive_bytes)
    tracer.patch(pipeline, "quarantine_archive", "ingest.quarantine")
    tracer.patch(pipeline, "compile_workspace", "build.compile", compile_failed)
    tracer.patch(pipeline, "collect_sources", "lexcheck.collect", source_bytes)
    tracer.patch(lexcheck, "evaluate_rule", "lexcheck.rules")
    tracer.patch(lexcheck, "preprocess_source", "lexcheck.preprocess", preprocess_key)
    tracer.patch(pipeline, "run_test_suite", "blackbox.suite")
    tracer.patch(blackbox, "run_test", "blackbox.test", test_outcome)
    tracer.patch(pipeline, "render_report_text", "assess.report")
    tracer.patch(pipeline, "render_report_json", "assess.report")
    tracer.patch(GradingLog, "append", "assess.log")
    return tracer


def per_layer(tracer: Tracer, result: PassResult) -> dict[str, tuple[float, str]]:
    tracer.compute_self_times()
    spans = tracer.by_name
    handed = {name: span.end for span in spans("ingest.scan") for name in span.attrs["handed"]}

    def busy(name: str) -> float:
        return sum(span.duration for span in spans(name))

    def p50_ms(name: str) -> float:
        durations = [span.duration for span in spans(name)]
        return 1000.0 * statistics.median(durations) if durations else 0.0

    grades = spans("pipeline.grade")
    tests = spans("blackbox.test")
    timeouts = [span for span in tests if span.attrs["outcome"] == "Timeout"]
    preprocess = spans("lexcheck.preprocess")
    enqueued = {name: handed.get(name, result.wall_start) for name in result.due}
    queue_waits = [span.start - enqueued[span.attrs["archive"]] for span in grades]
    settle = [handed[name] - result.arrivals[name] for name in result.arrivals if name in handed]
    wall = result.wall_end - result.wall_start
    rules = spans("lexcheck.rules")
    return {
        "ingest.extract.calls": (len(spans("ingest.extract")), "count"),
        "ingest.extract.busy_s": (busy("ingest.extract"), "s"),
        "ingest.extract.bytes": (sum(s.attrs["bytes"] for s in spans("ingest.extract")), "bytes"),
        "ingest.quarantine.calls": (len(spans("ingest.quarantine")), "count"),
        "ingest.scan.calls": (len(spans("ingest.scan")), "count"),
        "ingest.scan.busy_s": (busy("ingest.scan"), "s"),
        "ingest.scan.settle_wait_s": (statistics.median(settle) if settle else 0.0, "s"),
        "build.compile.calls": (len(spans("build.compile")), "count"),
        "build.compile.busy_s": (busy("build.compile"), "s"),
        "build.compile.p50_ms": (p50_ms("build.compile"), "ms"),
        "build.compile.failed": (sum(s.attrs["failed"] for s in spans("build.compile")), "count"),
        "lexcheck.collect.calls": (len(spans("lexcheck.collect")), "count"),
        "lexcheck.collect.busy_s": (busy("lexcheck.collect"), "s"),
        "lexcheck.collect.bytes": (sum(s.attrs["bytes"] for s in spans("lexcheck.collect")), "bytes"),
        "lexcheck.rules.calls": (len(rules), "count"),
        "lexcheck.rules.busy_s": (busy("lexcheck.rules"), "s"),
        "lexcheck.rules.max_ms": (1000.0 * max((s.duration for s in rules), default=0.0), "ms"),
        "lexcheck.preprocess.calls": (len(preprocess), "count"),
        "lexcheck.preprocess.busy_s": (busy("lexcheck.preprocess"), "s"),
        "lexcheck.preprocess.useful_ratio": (
            len({(s.trace_id, s.attrs["key"]) for s in preprocess}) / len(preprocess) if preprocess else 1.0,
            "ratio",
        ),
        "blackbox.suite.calls": (len(spans("blackbox.suite")), "count"),
        "blackbox.suite.busy_s": (busy("blackbox.suite"), "s"),
        "blackbox.test.calls": (len(tests), "count"),
        "blackbox.test.p50_ms": (p50_ms("blackbox.test"), "ms"),
        "blackbox.test.pass_ratio": (
            sum(s.attrs["outcome"] == "Pass" for s in tests) / len(tests) if tests else 1.0, "ratio"
        ),
        "blackbox.test.timeouts": (len(timeouts), "count"),
        "blackbox.test.timeout_wait_s": (sum(s.duration for s in timeouts), "s"),
        "assess.report.calls": (len(spans("assess.report")), "count"),
        "assess.report.busy_s": (busy("assess.report"), "s"),
        "assess.log.appends": (len(spans("assess.log")), "count"),
        "assess.log.busy_s": (busy("assess.log"), "s"),
        "assess.log.bytes": (result.log_bytes, "bytes"),
        "pipeline.grade.calls": (len(grades), "count"),
        "pipeline.grade.busy_s": (busy("pipeline.grade"), "s"),
        "pipeline.grade.self_s": (sum(span.self_s for span in grades), "s"),
        "pipeline.queue_wait_p50_s": (statistics.median(queue_waits), "s"),
        "pipeline.worker_util": (busy("pipeline.grade") / (JOBS * wall), "ratio"),
        "specfile.load.busy_s": (busy("specfile.load"), "s"),
    }


def layer_claims(workload: str, tracer: Tracer, metrics: dict[str, tuple[float, str]]) -> list[tuple[str, bool]]:
    """The reasons each workload was chosen, checked against the trace."""
    value = {name: v for name, (v, _) in metrics.items()}
    grade_ids = {span.span_id for span in tracer.by_name("pipeline.grade")}
    children = sum(span.duration for span in tracer.spans if span.parent_id in grade_ids)
    busy = value["pipeline.grade.busy_s"]
    claims = [(
        "grade child spans + pipeline.grade.self_s == pipeline.grade.busy_s",
        abs(children + value["pipeline.grade.self_s"] - busy) <= 1e-6 * max(busy, 1.0),
    )]
    layers = {
        "ingest": value["ingest.extract.busy_s"],
        "build": value["build.compile.busy_s"],
        "lexcheck.collect": value["lexcheck.collect.busy_s"],
        "lexcheck.rules": value["lexcheck.rules.busy_s"],
        "blackbox": value["blackbox.suite.busy_s"],
        "assess": value["assess.report.busy_s"] + value["assess.log.busy_s"],
        "pipeline.self": value["pipeline.grade.self_s"],
    }
    largest = max(layers, key=layers.get)
    if workload == "semester":
        claims.append(("build.compile.busy_s is the largest layer", largest == "build"))
    elif workload == "lexical-stress":
        claims.append(("lexcheck.rules.busy_s is the largest layer", largest == "lexcheck.rules"))
    elif workload == "watch-stream":
        settle = value["ingest.scan.settle_wait_s"]
        claims.append((
            "ingest.scan.settle_wait_s is the largest part of feedback_p50_s",
            settle > value["pipeline.queue_wait_p50_s"] and settle > busy / max(value["pipeline.grade.calls"], 1),
        ))
    return claims


# -- one run ---------------------------------------------------------------------

@dataclass
class RunResult:
    workload: str
    attempted: int
    failures: dict[str, list[str]]
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, object]
    tracer: Tracer | None = None


def _grade_pass(workload: str, inputs, root: Path, traced: bool) -> tuple[PassResult, Tracer | None]:
    factory = install_tracer if traced else (lambda: None)
    grade = run_watch_pass if workload == "watch-stream" else run_batch_pass
    return grade(inputs, Dirs(root), factory)


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    count = archive_count(workload, seconds)
    inputs = generate.build_inputs(workload, seed, count)
    run_dir = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        metrics: dict[str, tuple[float, str]] = {}
        notes: dict[str, object] = {}
        setup_dir = run_dir / "setup"
        spec_path = Dirs(setup_dir).spec_file("grade", inputs.specs["grade"])
        setups = [] if trace else setup_times(spec_path, setup_dir, "before")
        steal = _steal_seconds()
        plain, _ = _grade_pass(workload, inputs, run_dir / "plain", traced=False)
        if steal is not None:
            # Time stolen by other guests stretches every wall-clock metric.
            notes["host_steal_s"] = _steal_seconds() - steal
        if not trace:
            setups += setup_times(spec_path, setup_dir, "after")
            groups = [setups[i : i + SETUP_GROUP] for i in range(0, len(setups), SETUP_GROUP)]
            metrics["setup_s"] = (statistics.median(statistics.fmean(group) for group in groups), "s")
        metrics.update(end_to_end(plain))
        failures = dict(plain.failures)
        notes["archives"] = count
        notes["grade_tail_percentile"] = round(tail_rank(len(plain.records))[1], 2)
        if plain.arrivals:
            lateness = [plain.arrivals[name] - plain.due[name] for name in plain.arrivals]
            notes["generator_late_p50_s"] = statistics.median(lateness)
            notes["generator_late_max_s"] = max(lateness)
        tracer = None
        if trace:
            traced, tracer = _grade_pass(workload, inputs, run_dir / "traced", traced=True)
            for name, problems in traced.failures.items():
                failures.setdefault(name, []).extend(f"traced pass: {problem}" for problem in problems)
            untraced_sps = metrics["throughput_sps"][0]
            metrics = per_layer(tracer, traced)
            notes["tracing_overhead_sps"] = end_to_end(traced)["throughput_sps"][0] - untraced_sps
            notes["claims"] = layer_claims(workload, tracer, metrics)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return RunResult(workload, len(inputs.archives), failures, metrics, notes, tracer)


def environment(seed: int) -> dict[str, object]:
    def first_line(command: list[str]) -> str | None:
        try:
            out = subprocess.run(command, capture_output=True, text=True, timeout=30, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": JOBS,
        "python": sys.version.split()[0],
        "pyyaml": yaml.__version__,
        "gradepipe": gradepipe.__version__,
        "gxx": first_line(["g++", "--version"]),
        "seed": seed,
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
    }
