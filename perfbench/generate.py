"""Seeded inbox generators, one per workload.

Every archive is built from the fixtures in ``tests/data`` and varied by
identifiers, comments and whitespace, so that no two archives share bytes.
Each archive carries the outcome the grader must reach for it. That outcome
is derived from how the archive was built (which fixture, which rules its
text was written to satisfy, which quarantine it was built to trigger),
never by calling the grader.

The same workload and seed always give the same bytes and expectations.
"""

from __future__ import annotations

import io
import random
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "tests" / "data"
FIXTURE_SPEC = DATA_DIR / "assignment3.yaml"
ASSIGNMENT = 3

GRADED = "Graded"
QUARANTINED = "Quarantined"

# A fixed zip timestamp keeps archive bytes a pure function of the seed.
_ZIP_TIME = (2024, 9, 2, 8, 0, 0)

_WORDS = (
    "read", "the", "year", "then", "decide", "which", "branch", "applies", "check",
    "century", "rule", "first", "input", "value", "print", "answer", "case", "note",
    "divisible", "by", "four", "hundred", "leap", "common", "calendar", "output",
)
_FIRST = ("Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald", "Frances", "John",
          "Radia", "Ken", "Margaret", "Niklaus", "Sophie", "Tony", "Leslie", "Shafi")
_LAST = ("Lovelace", "Turing", "Hopper", "Dijkstra", "Liskov", "Knuth", "Allen",
         "Backus", "Perlman", "Thompson", "Hamilton", "Wirth", "Wilson", "Hoare")
_INDENTS = ("    ", "  ", "\t", "   ")
_STRING_LITERAL = re.compile(r'"(?:\\.|[^"\\\n])*"')

# Identifiers each fixture declares, with the stems their renames are drawn from.
_RENAMES = {
    "year": ("year", "yr", "inYear", "when", "y"),
    "isLeap": ("isLeap", "leap", "divides", "flag"),
    "spin": ("spin", "counter", "ticks"),
}

# Scores follow from the fixture's behaviour and structure under the leap
# spec: 0.3 lexical weight, 0.7 black-box weight, scale 100, compile gate on.
# Every buildable fixture except the hang answers every year correctly.
_FIXTURE_SCORES = {
    "nested": 100.0,  # nested branch present, all tests pass
    "fast": 100.0,    # same structure, cstdio, compiles in a tenth of the time
    "flat": 70.0,     # correct output but no nested branch
    "broken": 0.0,    # does not compile: compile gate
    "hang": 0.0,      # no branch at all and every test times out
}


@dataclass(frozen=True)
class Expected:
    """The terminal outcome the grader must reach for one archive."""

    state: str
    score: float | None
    reason: str = ""
    stem: str | None = None  # report file stem; None when the name does not parse


@dataclass(frozen=True)
class Archive:
    name: str
    data: bytes
    kind: str
    expected: Expected


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload grades, and the specs it grades with.

    ``specs`` maps the role ``grade`` to the YAML text of the spec; the
    fixture spec is passed through unchanged.
    """

    workload: str
    seed: int
    archives: tuple[Archive, ...]
    specs: dict[str, str]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fixture(name: str) -> str:
    return (DATA_DIR / f"leap_{name}.cpp").read_text(encoding="utf-8")


def _zip(files: dict[str, str | bytes]) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, content in files.items():
            archive.writestr(zipfile.ZipInfo(name, date_time=_ZIP_TIME), content)
    return buffer.getvalue()


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(count))


def _rename(text: str, mapping: dict[str, str]) -> str:
    """Rename identifiers in code, leaving string literals untouched."""
    if not mapping:
        return text
    word = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")
    pieces = []
    last = 0
    for literal in _STRING_LITERAL.finditer(text):
        pieces.append(word.sub(lambda m: mapping[m.group(1)], text[last : literal.start()]))
        pieces.append(literal.group(0))
        last = literal.end()
    pieces.append(word.sub(lambda m: mapping[m.group(1)], text[last:]))
    return "".join(pieces)


def vary(source: str, rng: random.Random, token: str) -> str:
    """Vary a C++ source by identifiers, comments and whitespace only.

    The result compiles, behaves and matches lexical rules exactly as the
    original does: renames skip string literals, comments hold only plain
    words, and whitespace changes touch indentation and blank lines.
    """
    mapping = {}
    for name, stems in _RENAMES.items():
        if re.search(rf"\b{name}\b", source):
            mapping[name] = f"{rng.choice(stems)}{rng.randrange(10, 100)}"
    text = _rename(source, mapping)
    indent = rng.choice(_INDENTS)
    lines = [f"/* submission {token}: {_words(rng, 6)} */"]
    for line in text.splitlines():
        stripped = line.lstrip(" ")
        depth = (len(line) - len(stripped)) // 4
        line = indent * depth + stripped
        if line.strip() and rng.random() < 0.25:
            line += f"  // {_words(rng, 3)}"
        lines.append(line)
        if rng.random() < 0.15:
            lines.append(indent * depth + f"// {_words(rng, 4)}" if rng.random() < 0.5 else "")
    return "\n".join(lines) + "\n"


def _names(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Distinct (first, last) name pairs, in sorted order."""
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < count:
        first = rng.choice(_FIRST) + ("" if rng.random() < 0.5 else rng.choice("abcdefghij"))
        last = rng.choice(_LAST) + "".join(rng.choice("klmnopqrs") for _ in range(rng.randrange(0, 3)))
        pairs.add((first, last))
    return sorted(pairs)


def _graded(first: str, last: str, kind: str, files: dict[str, str], score: float) -> Archive:
    stem = f"{first}_{last}_{ASSIGNMENT}"
    return Archive(f"{stem}.zip", _zip(files), kind, Expected(GRADED, score, "", stem))


def _quarantine(first: str, last: str, kind: str, rng: random.Random, token: str) -> Archive:
    """One archive built to trigger the named quarantine reason."""
    program = {"main.cpp": vary(_fixture("nested"), rng, token)}
    if kind == "malformed-name":
        name, reason = rng.choice((
            (f"{first}_{last}_Extra_{ASSIGNMENT}.zip", "wrong-field-count"),
            (f"{first}_{last}_three.zip", "non-numeric-assignment"),
            (f"{first}4_{last}_{ASSIGNMENT}.zip", "invalid-character"),
            (f"_{last}_{ASSIGNMENT}.zip", "empty-field"),
        ))
        return Archive(name, _zip(program), kind, Expected(QUARANTINED, None, f"malformed-name:{reason}"))
    if kind == "wrong-assignment":
        stem = f"{first}_{last}_{ASSIGNMENT + 1}"
        return Archive(f"{stem}.zip", _zip(program), kind, Expected(QUARANTINED, None, "wrong-assignment", stem))
    stem = f"{first}_{last}_{ASSIGNMENT}"
    if kind == "corrupt-archive":
        # A real archive cut in half: its central directory is gone.
        whole = _zip(program)
        return Archive(f"{stem}.zip", whole[: len(whole) // 2], kind, Expected(QUARANTINED, None, kind, stem))
    if kind == "path-traversal":
        data = _zip({**program, "../outside.cpp": "int outside() { return 0; }\n"})
        return Archive(f"{stem}.zip", data, kind, Expected(QUARANTINED, None, kind, stem))
    raise ValueError(f"unknown quarantine kind {kind!r}")


QUARANTINE_KINDS = ("malformed-name", "wrong-assignment", "corrupt-archive", "path-traversal")


def _mix(count: int, *, hang: bool) -> list[str]:
    """Fixture kinds for a semester-like inbox, in fixed proportions."""
    kinds = ["hang"] if hang else []
    kinds += list(QUARANTINE_KINDS)
    for kind, share in (("broken", 0.05), ("flat", 0.075), ("fast", 0.075)):
        kinds += [kind] * max(1, round(count * share))
    if len(kinds) > count:
        raise ValueError(f"an inbox of {count} archives cannot hold the fixed mix")
    return kinds + ["nested"] * (count - len(kinds))


def _fixed_order(items: list, count: int) -> list:
    """A shuffle that depends on the inbox size only, never on the seed.

    Archives are graded (and, in watch mode, delivered) in name order. If
    the seed also chose which kind sits where, it would move the one
    8-second hang, or the longest chains, between the start and the end of
    a run, and swing batch wall time and median feedback by more than any
    bound the benchmark could hold. So a seed changes names and bytes only.
    """
    items = list(items)
    random.Random(f"order:{count}").shuffle(items)
    return items


def semester_archives(workload: str, seed: int, count: int, *, hang: bool) -> tuple[Archive, ...]:
    """A cold inbox: every archive distinct, kinds in fixed proportions and order.

    The hanging program, if any, is graded a quarter of the way through.
    """
    rng = _rng(workload, seed)
    kinds = _mix(count, hang=hang)
    others = _fixed_order([kind for kind in kinds if kind != "hang"], count)
    if hang:
        others.insert(count // 4, "hang")
    archives = []
    for index, ((first, last), kind) in enumerate(zip(_names(rng, count), others)):
        token = f"{workload}-{seed}-{index}"
        if kind in QUARANTINE_KINDS:
            archives.append(_quarantine(first, last, kind, rng, token))
        else:
            source = vary(_fixture(kind), rng, token)
            archives.append(_graded(first, last, kind, {"main.cpp": source}, _FIXTURE_SCORES[kind]))
    return tuple(archives)


def _fixture_spec() -> dict:
    return yaml.safe_load(FIXTURE_SPEC.read_text(encoding="utf-8"))


# -- lexical-stress ------------------------------------------------------------

# Extra rules for lexical-stress, each with the strip flags that make its
# verdict depend on the preprocessing. The paper's nested-branch rule from
# the fixture spec stays first.
LEXICAL_RULES = (
    {"id": "no-goto", "description": "does not use goto", "polarity": "must-not-match",
     "pattern": r"\bgoto\b"},
    {"id": "prints-verdict", "description": "prints the verdict text", "polarity": "must-match",
     "pattern": r'"Leap year"', "strip_strings": False},
    {"id": "no-stderr-debug", "description": "leaves no debug output, even commented out",
     "polarity": "must-not-match", "pattern": r"fprintf\s*\(\s*stderr", "strip_comments": False},
    {"id": "no-todo", "description": "leaves no TODO notes", "polarity": "must-not-match",
     "pattern": r"\bTODO\b", "strip_comments": False, "strip_strings": False},
)

# Chain lengths cycle through this ladder, in a fixed order, so every inbox
# of a given size carries the same backtracking cost whatever the seed. Longer chains are left out on purpose: the
# nested-branch search grows about as n**4, and a 100-line chain already
# takes 14 s per file.
CHAIN_LENGTHS = (40, 43, 46, 49, 52, 55)


def lexical_spec() -> str:
    spec = _fixture_spec()
    spec["rules"] = spec["rules"] + [dict(rule) for rule in LEXICAL_RULES]
    return yaml.safe_dump(spec, sort_keys=False)


def _chain_source(rng: random.Random, length: int, token: str) -> str:
    """A flat if-chain with no else: the nested-branch search must fail."""
    arg, acc = rng.sample("vxkn", 2)
    body = "\n".join(
        f"    if ({arg} == {rng.randrange(100, 1000)}) {{ {acc}++; }}"
        for _ in range(length)
    )
    return (
        f"// chain {token}: {_words(rng, 5)}\n"
        f"int classify(int {arg}) {{\n    int {acc} = 0;\n{body}\n    return {acc};\n}}\n"
    )


def _messages_source(rng: random.Random, token: str, *, todo: bool) -> str:
    """A helper heavy in comments and strings that quote code.

    The quoted ``if``/``else`` and ``goto`` text must be blanked by the
    preprocessor before the rules that strip it can judge the file.
    """
    lines = [f"/* messages {token}", " * " + _words(rng, 8)]
    for _ in range(24):
        lines.append(f" * {_words(rng, 7)} if (x) {{ y(); }} else {{ z(); }} goto end;")
    lines.append(" */")
    lines.append("const char* const kMessages[] = {")
    for index in range(32):
        note = "TODO " if todo and index == 7 else ""
        lines.append(f'    "{note}{_words(rng, 4)} if (a) {{ b(); }} else {{ goto c; }} \\"q\\"",  // {_words(rng, 3)}')
    lines.append("};")
    lines.append("const char* message(int i) { return kMessages[i % 30]; }")
    return "\n".join(lines) + "\n"


def lexical_archives(seed: int, count: int) -> tuple[Archive, ...]:
    """cstdio submissions with a flat chain and a comment-heavy helper.

    One in three leaves a commented-out ``fprintf(stderr, ...)`` behind and
    one in four a TODO in a string, failing the rules that read comments or
    strings; every program is correct, so only the lexical share varies.
    """
    rng = _rng("lexical-stress", seed)
    lengths = _fixed_order([CHAIN_LENGTHS[i % len(CHAIN_LENGTHS)] for i in range(count)], count)
    archives = []
    for index, ((first, last), length) in enumerate(zip(_names(rng, count), lengths)):
        token = f"lexical-stress-{seed}-{index}"
        debug = index % 3 == 0
        todo = index % 4 == 1
        main = _fixture("fast")
        if debug:
            main = main.replace("    return 0;\n}", '    // fprintf(stderr, "year read\\n");\n    return 0;\n}')
        main = vary(main, rng, token)
        files = {
            "main.cpp": main,
            "chain.cpp": _chain_source(rng, length, token),
            "messages.cpp": _messages_source(rng, token, todo=todo),
        }
        satisfied = 1 + 1 + 1 + (not debug) + (not todo)  # nested, no-goto, prints-verdict hold
        score = 100 * (0.3 * satisfied / 5 + 0.7)
        archives.append(_graded(first, last, "lexical", files, score))
    return tuple(archives)


# -- workloads -------------------------------------------------------------------

def build_inputs(workload: str, seed: int, count: int) -> Inputs:
    """Generate the inbox and specs for one run of ``workload``."""
    fixture_spec = FIXTURE_SPEC.read_text(encoding="utf-8")
    if workload == "semester":
        archives = semester_archives(workload, seed, count, hang=True)
        return Inputs(workload, seed, archives, {"grade": fixture_spec})
    if workload == "watch-stream":
        archives = semester_archives(workload, seed, count, hang=False)
        return Inputs(workload, seed, archives, {"grade": fixture_spec})
    if workload == "lexical-stress":
        return Inputs(workload, seed, lexical_archives(seed, count), {"grade": lexical_spec()})
    raise ValueError(f"unknown workload {workload!r}")
