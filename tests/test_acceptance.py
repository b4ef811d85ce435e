"""End-to-end acceptance checks for the grading pipeline.

Each test covers one shipped guarantee and prints a single PASS/FAIL line so
the suite doubles as a release checklist. Expected values come from
independent oracles computed inside the test (the Gregorian calendar rule,
a hand-rolled regex engine, generated round-trip inputs), never from the
implementation under test.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import gradepipe
import refmatch
from gradepipe.assess import read_log_events
from gradepipe.blackbox import NormalizationPolicy, TestOutcome, normalize_output
from gradepipe.ingest import (
    ARCHIVE_SUFFIX,
    MalformedName,
    SubmissionIdentity,
    parse_submission_filename,
)
from gradepipe.lexcheck import LexicalRule, RulePolarity, evaluate_rule, preprocess_source
from support import SPEC_PATH, make_zip, read_report, source

SEED = 20260825


def conclude(capsys, number: int, label: str, problems: list[str]) -> None:
    verdict = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number}] {label}: {verdict}", flush=True)
    assert not problems, f"criterion {number} ({label}):\n" + "\n".join(f"  - {p}" for p in problems)


def gregorian_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


# -- criterion 1: hybrid grading separates look-alike solutions -------------------


def test_criterion_1_hybrid_leap_year_scenario(leap_spec, session_factory, tmp_path, capsys):
    problems: list[str] = []

    for case in leap_spec.tests:
        year = int(case.stdin_text.strip())
        expected = "Leap year" if gregorian_leap(year) else "Common year"
        if case.expected_stdout.strip() != expected:
            problems.append(f"spec expectation for {year} disagrees with the calendar rule")

    session = session_factory(leap_spec)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    fixtures = {
        "Nested_Nora_3": "leap_nested.cpp",
        "Flat_Fiona_3": "leap_flat.cpp",
        "Broken_Bob_3": "leap_broken.cpp",
        "Hang_Harry_3": "leap_hang.cpp",
    }
    started = time.monotonic()
    reports = {}
    for stem, filename in fixtures.items():
        archive = make_zip(inbox / f"{stem}.zip", {"main.cpp": source(filename)})
        reports[stem] = session.grade_archive(archive)
    elapsed = time.monotonic() - started

    nested = reports["Nested_Nora_3"]
    if nested.score != 100.0:
        problems.append(f"nested-branch solution scored {nested.score}, expected 100.0")

    flat = reports["Flat_Fiona_3"]
    if flat.blackbox is None or [t.outcome for t in flat.blackbox] != [TestOutcome.PASS] * 4:
        problems.append("flat solution should pass all four behaviour tests")
    if flat.lexical is None or any(r.satisfied for r in flat.lexical):
        problems.append("flat solution should leave the nested-branch rule unsatisfied")
    if flat.score is None or abs(flat.score - 70.0) > 0.01:
        problems.append(f"flat solution scored {flat.score}, expected 70.0 +/- 0.01")

    broken = reports["Broken_Bob_3"]
    if broken.score != 0.0:
        problems.append(f"non-compiling solution scored {broken.score}, expected 0.0")
    logged = read_log_events(session.log.path)
    compile_events = [e for e in logged if e["kind"] == "compile_error"]
    if not any(e.get("diagnostics") for e in compile_events):
        problems.append("compiler diagnostics never reached the grading log")

    hang = reports["Hang_Harry_3"]
    if hang.blackbox is None:
        problems.append("looping solution never reached the behaviour tests")
    else:
        for result, case in zip(hang.blackbox, leap_spec.tests):
            if result.outcome is not TestOutcome.TIMEOUT:
                problems.append(f"{result.test_id} ended {result.outcome.value}, expected Timeout")
            elif result.duration_secs > case.timeout_secs + 1.0:
                problems.append(
                    f"{result.test_id} took {result.duration_secs:.2f} s, "
                    f"over the {case.timeout_secs:g}+1 s kill budget"
                )

    if elapsed >= 60.0:
        problems.append(f"corpus took {elapsed:.1f} s, expected under 60 s")

    conclude(capsys, 1, "hybrid leap-year scenario", problems)


# -- criterion 2: the nested-branch pattern agrees with an independent engine ----

NESTED_SNIPPETS = (
    'if (year % 4 == 0) {\n    if (year % 100 != 0) {\n        cout << "Leap year";\n'
    '    } else {\n        cout << "Common year";\n    }\n} else {\n    cout << "Common year";\n}\n',
    "if(x){if(y){a();}else{b();}}else{c();}",
    "if (a)\n  {\n\n    if (b)\n  {\n      x();\n  }\n    else\n  {\n      y();\n  }\n\n  }\nelse\n  {\n    z();\n  }\n",
    "while (running) { if (a) { if (b) { x(); } else { y(); } } else { z(); } }",
    "if (a) { if (b) { { t(); } } else { u(); } } else { v(); }",
    "if (a) { setup(); if (b) { y(); } else { z(); } } else { v(); }",
    "if (a) { if (b) { x(); } else { if (c) { y(); } } } else { z(); }",
    "if ((y % 4 == 0) && (y % 100 != 0)) { if ((y % 400) == 0) { a(); } else { b(); } } else { c(); }",
    "if (a)\n{\n    if (b)\n    {\n        x();\n    }\n    else\n    {\n        y();\n    }\n}\nelse\n{\n    z();\n}\n",
    "if (a)\n{\n\tif (b)\n\t{\n\t\tx();\n\t}\n\telse\n\t{\n\t\ty();\n\t}\n}\nelse\n{\n\tz();\n}\n",
)

FLAT_SNIPPETS = (
    'bool leap = (year % 4 == 0 && year % 100 != 0) || (year % 400 == 0);\n'
    'if (leap) {\n    cout << "Leap year";\n} else {\n    cout << "Common year";\n}\n',
    "if (a) { x(); } else { y(); }",
    "if (a) { if (b) { x(); } } else { y(); }",
    "if (a) { x(); } else { if (b) { y(); } else { z(); } }",
    "if (a) { x(); } else { y(); }\nif (c) { p(); } else { q(); }",
    "if (a) { x(); } else if (b) { y(); } else { z(); }",
    "if (a) { if (b) { x(); } }",
    "if (a)\n    if (b) x();\n    else y();\nelse z();\n",
    "switch (k) { case 0: if (a) { x(); } else { y(); } break; }",
    "if (a) { if (b) { x(); } else { y(); } }\nif (c) { p(); } else { q(); }",
)


def test_criterion_2_pattern_matches_independent_engine(leap_spec, capsys):
    problems: list[str] = []
    pattern = leap_spec.rules[0].pattern
    corpus = [(snippet, True) for snippet in NESTED_SNIPPETS]
    corpus += [(snippet, False) for snippet in FLAT_SNIPPETS]
    if len(corpus) != 20:
        problems.append(f"corpus has {len(corpus)} snippets, expected 20")
    for index, (snippet, expected) in enumerate(corpus):
        shipped = re.search(pattern, snippet) is not None
        independent = refmatch.search(pattern, snippet)
        if shipped != independent:
            problems.append(f"snippet {index}: stdlib says {shipped}, independent engine says {independent}")
        if shipped != expected:
            problems.append(f"snippet {index}: verdict {shipped}, design expected {expected}")
        production = evaluate_rule(leap_spec.rules[0], [("main.cpp", snippet)]).matched
        if production != expected:
            problems.append(f"snippet {index}: grader verdict {production}, design expected {expected}")
    conclude(capsys, 2, "nested-branch pattern oracle equivalence", problems)


# -- criterion 3: filename grammar properties ------------------------------------

NAME_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" + "àéîõüÅøČžβГё"


def random_name(rng: random.Random) -> str:
    length = rng.randint(1, 12)
    chars = [rng.choice(NAME_LETTERS)]
    while len(chars) < length:
        ch = rng.choice(NAME_LETTERS + "-'")
        if ch in "-'" and (chars[-1] in "-'" or len(chars) + 1 == length):
            continue
        chars.append(ch)
    return "".join(chars)


def random_identity(rng: random.Random) -> SubmissionIdentity:
    return SubmissionIdentity(random_name(rng), random_name(rng), rng.randint(0, 9999))


def test_criterion_3_filename_grammar_properties(capsys):
    problems: list[str] = []
    rng = random.Random(SEED)

    for _ in range(1000):
        identity = random_identity(rng)
        rendered = identity.stem() + ARCHIVE_SUFFIX
        try:
            parsed = parse_submission_filename(rendered)
        except MalformedName as exc:
            problems.append(f"valid name {rendered!r} rejected: {exc.reason}")
            continue
        if parsed != identity:
            problems.append(f"{rendered!r} round-tripped to {parsed}")

    def stem(rng: random.Random) -> tuple[str, str, int]:
        identity = random_identity(rng)
        return identity.first_name, identity.last_name, identity.assignment_number

    def expect(filename: str, reason: str) -> None:
        try:
            parse_submission_filename(filename)
            problems.append(f"{filename!r} was accepted, expected {reason}")
        except MalformedName as exc:
            if exc.reason != reason:
                problems.append(f"{filename!r} classified {exc.reason}, expected {reason}")

    for _ in range(100):
        first, last, number = stem(rng)
        suffix = rng.choice([".rar", ".tar.gz", ".cpp", "", ".zi", ".zipx"])
        expect(f"{first}_{last}_{number}{suffix}", "missing-extension")

    for _ in range(100):
        count = rng.choice([1, 2, 4, 5])
        fields = [random_name(rng) for _ in range(count - 1)] + [str(rng.randint(0, 99))]
        expect("_".join(fields) + ".zip", "wrong-field-count")

    for _ in range(100):
        first, last, number = stem(rng)
        fields = [first, last, str(number)]
        fields[rng.randrange(3)] = ""
        expect("_".join(fields) + ".zip", "empty-field")

    for _ in range(100):
        first, last, _ = stem(rng)
        bad_number = rng.choice(["x9", "3a", "III", "٣", "-2", "2.5", "１２", "nine"])
        expect(f"{first}_{last}_{bad_number}.zip", "non-numeric-assignment")

    conclude(capsys, 3, "filename grammar property suite", problems)


# -- criterion 4: rule verdicts ignore comments -----------------------------------

MATCHING_BODIES = (
    '    if (year % 4 == 0) {\n        if (year % 100 != 0) {\n            cout << "Leap year";\n'
    '        } else {\n            cout << "Common year";\n        }\n    } else {\n'
    '        cout << "Common year";\n    }\n',
    "    while (year > 0) {\n        if (a) {\n            if (b) {\n                x();\n"
    "            } else {\n                y();\n            }\n        } else {\n            z();\n        }\n"
    "        year = year - 1;\n    }\n",
)

NON_MATCHING_BODIES = (
    "    bool leap = (year % 4 == 0 && year % 100 != 0) || (year % 400 == 0);\n"
    '    if (leap) {\n        cout << "Leap year";\n    } else {\n        cout << "Common year";\n    }\n',
    '    if (year % 4 == 0) {\n        cout << "Maybe";\n    } else {\n        cout << "No";\n    }\n',
    "    if (a) { x(); } else { y(); }\n    if (b) { p(); } else { q(); }\n",
    "    if (year < 0) goto done;\n    cout << year;\ndone:\n    ;\n",
)


def generate_program(rng: random.Random) -> str:
    body = rng.choice(MATCHING_BODIES + NON_MATCHING_BODIES)
    return (
        "#include <iostream>\n"
        "using namespace std;\n\n"
        "int main() {\n"
        "    int year;\n"
        "    cin >> year;\n"
        "    bool a = year > 10, b = year > 100;\n"
        f"{body}"
        "    return 0;\n"
        "}\n"
    )


def insert_comments(text: str, rng: random.Random) -> str:
    def words() -> str:
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))

    slots = [i for i, ch in enumerate(text) if ch in " \n"]
    for position in sorted(rng.sample(slots, k=min(len(slots), rng.randint(1, 8))), reverse=True):
        if text[position] == "\n":
            inserted = rng.choice([f"/* {words()} */", f" // {words()}"])
        else:
            inserted = f"/* {words()} */"
        text = text[:position] + inserted + text[position:]
    return text


def test_criterion_4_comments_never_change_rule_verdicts(leap_spec, capsys):
    problems: list[str] = []
    rng = random.Random(SEED)
    rules = [
        leap_spec.rules[0],
        LexicalRule(
            rule_id="no-goto",
            description="does not fall back on goto",
            pattern=r"\bgoto\b",
            polarity=RulePolarity.MUST_NOT_MATCH,
        ),
        LexicalRule(
            rule_id="has-main",
            description="defines the usual entry point",
            pattern=r"int\s+main\s*\(",
            polarity=RulePolarity.MUST_MATCH,
        ),
    ]

    fixtures = [source(name) for name in ("leap_nested.cpp", "leap_flat.cpp", "leap_hang.cpp", "leap_fast.cpp")]
    for index in range(100):
        base = generate_program(rng)
        commented = insert_comments(base, rng)
        for rule in rules:
            before = evaluate_rule(rule, [("main.cpp", base)]).satisfied
            after = evaluate_rule(rule, [("main.cpp", commented)]).satisfied
            if before != after:
                problems.append(f"pair {index}: rule {rule.rule_id} flipped {before} -> {after}")
        fixtures.extend((base, commented))

    for index, text in enumerate(fixtures):
        once = preprocess_source(text, True, True).text
        if preprocess_source(once, True, True).text != once:
            problems.append(f"preprocessing is not idempotent on fixture {index}")

    conclude(capsys, 4, "comment insertion never changes verdicts", problems)


# -- criterion 5: output normalization properties ---------------------------------


def test_criterion_5_normalization_properties(capsys):
    problems: list[str] = []
    rng = random.Random(SEED)
    policy = NormalizationPolicy()
    alphabet = "aZ9 \t\r\n.,!éβ"

    for index in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
        once = normalize_output(text, policy)
        if normalize_output(once, policy) != once:
            problems.append(f"normalization not idempotent on sample {index}")

    for index in range(200):
        lines = [
            "".join(rng.choice("abc XYZ\t") for _ in range(rng.randint(0, 30)))
            for _ in range(rng.randint(0, 8))
        ]
        tail_lf = "\n" if rng.random() < 0.5 else ""
        tail_crlf = "\r\n" if rng.random() < 0.5 else ""
        unix = "\n".join(lines) + tail_lf
        windows = "\r\n".join(lines) + tail_crlf
        if normalize_output(unix, policy) != normalize_output(windows, policy):
            problems.append(f"CRLF and LF forms of sample {index} compare unequal")

    conclude(capsys, 5, "output normalization properties", problems)


# -- criterion 6: garbage uploads cannot take the pipeline down -------------------


def letters(value: int) -> str:
    encoded = ""
    value += 1
    while value:
        value, digit = divmod(value - 1, 26)
        encoded = chr(ord("a") + digit) + encoded
    return encoded


def test_criterion_6_fuzzed_archives_always_terminate(leap_spec, session_factory, tmp_path, capsys):
    problems: list[str] = []
    rng = random.Random(SEED)
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    for index in range(500):
        blob = rng.randbytes(rng.randint(0, 4096))
        roll = rng.random()
        if roll < 0.10:
            blob = b"PK\x03\x04" + blob
        elif roll < 0.15:
            blob = b"PK\x05\x06" + blob
        (inbox / f"Fuzz{letters(index).capitalize()}_Blob_3.zip").write_bytes(blob)

    session = session_factory(leap_spec, jobs=8)
    started = time.monotonic()
    summary = session.run_batch(inbox)
    elapsed = time.monotonic() - started

    if summary.total != 500:
        problems.append(f"processed {summary.total} submissions, expected 500")
    if summary.graded or summary.superseded:
        problems.append(
            f"garbage graded={summary.graded} superseded={summary.superseded}, "
            "expected everything quarantined or errored"
        )
    if summary.quarantined + summary.errored != 500:
        problems.append(
            f"quarantined={summary.quarantined} errored={summary.errored}, expected 500 total"
        )
    if elapsed >= 300.0:
        problems.append(f"fuzz batch took {elapsed:.0f} s, expected under 5 minutes")

    conclude(capsys, 6, "fuzzed archives always terminate", problems)


# -- criterion 7: batch output is deterministic ------------------------------------

TIMESTAMP = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(?:\.\d+)?(?:[+-]\d{2}:\d{2}|Z)?")


def masked_outputs(root: Path) -> dict[str, str]:
    masked = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.suffix in {".json", ".txt"}:
            text = path.read_text(encoding="utf-8")
            masked[str(path.relative_to(root))] = TIMESTAMP.sub("<timestamp>", text)
    return masked


def test_criterion_7_batch_runs_are_deterministic(leap_spec, session_factory, tmp_path, capsys):
    problems: list[str] = []
    master = tmp_path / "master"
    master.mkdir()
    make_zip(master / "Nested_Nora_3.zip", {"main.cpp": source("leap_nested.cpp")})
    make_zip(master / "Flat_Fiona_3.zip", {"main.cpp": source("leap_flat.cpp")})
    make_zip(master / "Broken_Bob_3.zip", {"main.cpp": source("leap_broken.cpp")})
    make_zip(master / "BadName.zip", {"main.cpp": source("leap_nested.cpp")})
    make_zip(master / "Wrong_Wanda_4.zip", {"main.cpp": source("leap_nested.cpp")})

    outputs = []
    for run in ("first", "second"):
        inbox = tmp_path / f"inbox-{run}"
        shutil.copytree(master, inbox)
        session = session_factory(leap_spec, subdir=run, jobs=4)
        session.run_batch(inbox)
        combined = {
            f"reports/{name}": text for name, text in masked_outputs(session.reports_dir).items()
        }
        combined.update(
            {
                f"quarantine/{name}": text
                for name, text in masked_outputs(session.quarantine_dir).items()
            }
        )
        outputs.append(combined)

    first, second = outputs
    if set(first) != set(second):
        problems.append(f"runs wrote different files: {sorted(set(first) ^ set(second))}")
    for name in sorted(set(first) & set(second)):
        if first[name] != second[name]:
            problems.append(f"{name} differs between runs after masking timestamps")

    conclude(capsys, 7, "batch grading is deterministic", problems)


# -- criterion 8: watch mode grades promptly and honours resubmission --------------


def read_first_line(stream, timeout: float) -> str:
    box: dict[str, str] = {}

    def pull() -> None:
        box["line"] = stream.readline()

    worker = threading.Thread(target=pull, daemon=True)
    worker.start()
    worker.join(timeout)
    return box.get("line", "")


def poll_for(predicate, deadline: float) -> bool:
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_criterion_8_watch_mode_liveness_and_supersede(tmp_path, capsys):
    problems: list[str] = []
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    reports_dir = tmp_path / "reports"
    log_path = tmp_path / "grading.log"
    command = [
        sys.executable, "-m", "gradepipe.cli", "watch", str(inbox),
        "--spec", str(SPEC_PATH),
        "--interval", "1",
        "--reports-dir", str(reports_dir),
        "--workspace-dir", str(tmp_path / "workspace"),
        "--quarantine-dir", str(tmp_path / "quarantine"),
        "--log", str(log_path),
    ]
    # The watcher imports the package this test does, wherever that is.
    env = {**os.environ, "PYTHONPATH": str(Path(gradepipe.__file__).parents[1])}
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = read_first_line(process.stderr, timeout=20.0)
        if "watching" not in banner:
            problems.append(f"watcher never announced itself (got {banner!r})")

        report_path = reports_dir / "Fast_Fred_3.report.json"
        make_zip(inbox / "Fast_Fred_3.zip", {"main.cpp": source("leap_fast.cpp")})
        dropped = time.monotonic()
        graded_in_time = poll_for(report_path.exists, dropped + 3.0)
        latency = time.monotonic() - dropped
        if not graded_in_time:
            problems.append(f"upload was not graded within 3 s of settling ({latency:.2f} s)")

        def score_is(value: float) -> bool:
            try:
                return read_report(reports_dir, "Fast_Fred_3")["score"] == value
            except (FileNotFoundError, ValueError):
                return False

        if graded_in_time and not poll_for(lambda: score_is(100.0), time.monotonic() + 2.0):
            problems.append("first upload did not produce the expected report")

        make_zip(inbox / "Fast_Fred_3.zip", {"main.cpp": source("leap_flat.cpp")})
        if not poll_for(lambda: score_is(70.0), time.monotonic() + 10.0):
            problems.append("resubmission never replaced the prior report")
        superseded = [e for e in read_log_events(log_path) if e["kind"] == "superseded"]
        if not superseded:
            problems.append("no superseded event was logged for the resubmission")

        process.send_signal(signal.SIGINT)
        try:
            stdout, _ = process.communicate(timeout=20.0)
        except subprocess.TimeoutExpired:
            process.kill()
            stdout, _ = process.communicate()
            problems.append("watcher did not stop cleanly on interrupt")
        else:
            if process.returncode != 0:
                problems.append(f"watcher exited {process.returncode}, expected 0")
            if "graded 2" not in stdout:
                problems.append(f"summary {stdout!r} does not show both gradings")
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    conclude(capsys, 8, "watch-mode liveness and resubmission", problems)
