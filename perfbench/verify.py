"""Checks every graded archive against the outcome its generator expected.

An archive fails its check when any of these holds:

- it never reached a terminal state, or reached a different one;
- its score or quarantine reason differs from the expectation;
- the audit log does not hold exactly one ``received`` event and exactly
  one terminal event for it;
- its name parses but its report pair is missing, does not parse, or
  disagrees with the outcome;
- a report file carries a timing field.

Errored always fails, because no workload expects it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterable

from generate import Archive

SCORE_TOLERANCE = 1e-6
TERMINAL_EVENTS = ("graded", "quarantined", "errored")
_TIMING_KEY = re.compile(r"duration|elapsed|latency|_secs$|_ms$|_s$", re.IGNORECASE)
_TIMING_TEXT = re.compile(r"\b(duration|elapsed|took)\b", re.IGNORECASE)


def read_events(log_path: Path, skip_lines: int = 0) -> list[dict[str, Any]]:
    """Parse the audit log, ignoring the first ``skip_lines`` lines."""
    lines = log_path.read_text(encoding="utf-8").splitlines()[skip_lines:]
    return [json.loads(line) for line in lines if line.strip()]


def _timing_keys(value: Any) -> list[str]:
    if isinstance(value, dict):
        found = [key for key in value if _TIMING_KEY.search(key)]
        for item in value.values():
            found += _timing_keys(item)
        return found
    if isinstance(value, list):
        return [key for item in value for key in _timing_keys(item)]
    return []


def _check_reports(archive: Archive, outcome: tuple[str, float | None, str], reports_dir: Path) -> list[str]:
    stem = archive.expected.stem
    if stem is None:
        return []
    text_path = reports_dir / f"{stem}.report.txt"
    json_path = reports_dir / f"{stem}.report.json"
    if not text_path.is_file() or not json_path.is_file():
        return ["report pair missing"]
    try:
        payload = json.loads(json_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"report json does not parse: {exc}"]
    text = text_path.read_text(encoding="utf-8")
    problems = []
    if not text.startswith(f"Submission: {stem}\n"):
        problems.append("report text does not name the submission")
    state, score, reason = outcome
    if payload.get("status") != state:
        problems.append(f"report json status {payload.get('status')!r}, outcome {state!r}")
    if (payload.get("score") is None) != (score is None) or (
        score is not None and abs(payload["score"] - score) > SCORE_TOLERANCE
    ):
        problems.append(f"report json score {payload.get('score')!r}, outcome {score!r}")
    if payload.get("detail", "") != reason:
        problems.append(f"report json detail {payload.get('detail')!r}, outcome {reason!r}")
    timing = _timing_keys(payload)
    if timing or _TIMING_TEXT.search(text):
        problems.append(f"report carries timing fields {timing or 'in text'}")
    return problems


def _log_counts(events: Iterable[dict[str, Any]]) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Received events by archive, and terminal events by archive and by stem."""
    received: dict[str, int] = {}
    by_archive: dict[str, int] = {}
    by_stem: dict[str, int] = {}
    for event in events:
        kind = event.get("kind")
        if kind == "received":
            received[event["archive"]] = received.get(event["archive"], 0) + 1
        elif kind in TERMINAL_EVENTS:
            # A graded event names only the submission stem; the others
            # name the archive.
            if "archive" in event:
                by_archive[event["archive"]] = by_archive.get(event["archive"], 0) + 1
            else:
                by_stem[event["submission"]] = by_stem.get(event["submission"], 0) + 1
    return received, by_archive, by_stem


def verify(
    archives: Iterable[Archive],
    outcomes: dict[str, tuple[str, float | None, str]],
    reports_dir: Path,
    events: list[dict[str, Any]],
) -> dict[str, list[str]]:
    """Return the problems found for each failing archive, keyed by name.

    ``outcomes`` maps an archive name to the (status, score, detail) of the
    report ``grade_archive`` returned for it; a missing name never reached
    a terminal state.
    """
    received, by_archive, by_stem = _log_counts(events)
    failures: dict[str, list[str]] = {}
    for archive in archives:
        expected = archive.expected
        problems = []
        outcome = outcomes.get(archive.name)
        if outcome is None:
            problems.append("never reached a terminal state")
        else:
            state, score, reason = outcome
            if state != expected.state:
                problems.append(f"state {state!r}, expected {expected.state!r}")
            if (score is None) != (expected.score is None) or (
                score is not None and abs(score - expected.score) > SCORE_TOLERANCE
            ):
                problems.append(f"score {score!r}, expected {expected.score!r}")
            if reason != expected.reason:
                problems.append(f"reason {reason!r}, expected {expected.reason!r}")
            problems += _check_reports(archive, outcome, reports_dir)
        if received.get(archive.name, 0) != 1:
            problems.append(f"{received.get(archive.name, 0)} received events")
        terminal = by_archive.get(archive.name, 0) + by_stem.get(expected.stem or "", 0)
        if terminal != 1:
            problems.append(f"{terminal} terminal events")
        if problems:
            failures[archive.name] = problems
    return failures
