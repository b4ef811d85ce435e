"""Lexical analysis of submitted source code.

Instructors describe structural expectations ("uses a nested branch", "does
not call goto") as regular expressions with a polarity. Before a pattern is
applied, the source text is run through a small lexer that can blank out
comments and string literals, so that a required construct hidden in a
comment, or a forbidden one quoted in an output message, is judged the way a
human reader would judge it.

One token regex finds the comments and literals. The filter keeps newlines,
so a line of its output is that line of the file, with one exception: a
stripped literal drops an escaped newline together with its backslash. An
unterminated block comment or literal runs to the end of the file. Running
the filter twice yields the same text as running it once.

Every rule runs on one matcher, in O(text x pattern) time whatever the text.
It takes the regular subset of ``re`` syntax: characters, escapes and classes
(``.``, ranges, negation, ``\\d \\w \\s`` and their negations, with ``re``'s
Unicode meaning), groups, ``|``, ``* + ? {m,n}`` and their lazy forms, the
anchors ``^ $ \\A \\Z \\b \\B``, and the flags ``(?i)``, ``(?s)`` and ``(?x)``.
On that subset its verdict is ``re.search``'s. A rule is rejected when its
pattern uses a backreference, lookaround, a conditional or atomic group, a
possessive repeat, another flag, or repeats that expand past 5000 states.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from re import _compiler, _parser
from re import _constants as _C
from typing import NamedTuple, Sequence

# Files the lexical pass reads. Supporting data files (e.g. .txt) are not
# source code and are never matched against rules.
LEXICAL_EXTENSIONS = frozenset({".cpp", ".cc", ".cxx", ".c", ".h", ".hpp", ".hh"})

WARN_UNTERMINATED_BLOCK_COMMENT = "unterminated block comment"
WARN_UNTERMINATED_STRING = "unterminated string literal"
WARN_UNTERMINATED_CHAR = "unterminated character literal"


class PreprocessedSource(NamedTuple):
    text: str
    warnings: tuple[str, ...]


# A line comment, a block comment (group 1 is its "*/"), or a string or character
# literal (group 2 or 3 is its closing quote). Repeats are possessive and endings
# optional, so a started token never backtracks: an unterminated one runs to the end.
_TOKEN = re.compile(
    r"//[^\n]*+"
    r"|/\*(?:[^*]++|\*(?!/))*+(\*/)?"
    r'|"(?:[^"\\]++|\\[\s\S]?)*+("?)'
    r"|'(?:[^'\\]++|\\[\s\S]?)*+('?)"
)


def preprocess_source(text: str, strip_comments: bool = True, strip_strings: bool = True) -> PreprocessedSource:
    """Blank comments and/or literal contents out of C/C++-style source.

    A stripped comment becomes one space, plus the newlines of a block comment.
    A stripped string or character literal keeps its quotes and newlines, and
    the rest of its contents becomes one space (none for an empty literal).
    Escapes are honoured: an escaped quote does not end a literal, and an
    escaped newline is dropped with its backslash. Comment markers inside
    literals, and quotes inside comments, are inert. An unterminated block
    comment or literal runs to the end of the file and records a warning. The
    result is idempotent for any flag combination.
    """
    warnings: list[str] = []

    def blank(token: re.Match) -> str:
        whole = token[0]
        if whole[0] == "/":  # a comment
            if whole[1] == "*" and not token[1]:
                warnings.append(WARN_UNTERMINATED_BLOCK_COMMENT)
            return " " + "\n" * whole.count("\n") if strip_comments else whole
        quote, end = whole[0], token[2] or token[3] or ""
        if not end:
            warnings.append(WARN_UNTERMINATED_STRING if quote == '"' else WARN_UNTERMINATED_CHAR)
        body = whole[1 : len(whole) - len(end)]
        if not strip_strings or not body:
            return whole
        # Newlines in the body are kept, except one escaped by a backslash.
        kept = body.count("\n") - body.replace("\\\\", "").count("\\\n")
        return quote + "\n" * kept + (" " if end and len(body) > kept else "") + end

    return PreprocessedSource(_TOKEN.sub(blank, text), tuple(warnings))


def join_pattern_lines(pattern: str) -> str:
    """Collapse a pattern that was wrapped across lines for readability.

    Line breaks and the indentation around them are removed; escaped
    sequences such as ``\\n`` are untouched because they contain no literal
    newline. Surrounding whitespace is trimmed, so a pattern that must match
    leading or trailing whitespace should say so with ``\\s`` or a class.
    """
    return re.sub(r"\s*\n\s*", "", pattern).strip()


class RulePolarity(Enum):
    MUST_MATCH = "must-match"
    MUST_NOT_MATCH = "must-not-match"


_STATE_CAP = 5000  # NFA states a pattern may expand to, counted repeats included
_CACHE_CAP = 10_000  # lazy-DFA transitions kept before the cache is cleared
# The flags the matcher implements; any other one in a pattern is rejected.
_FLAGS = _C.SRE_FLAG_IGNORECASE | _C.SRE_FLAG_DOTALL | _C.SRE_FLAG_UNICODE | _C.SRE_FLAG_VERBOSE
# Context of a position: a word character before it, one after it, the start,
# the end, and a final newline right after it. A character's class bits sit above.
_WORD_BEFORE, _WORD_AFTER, _START, _END, _FINAL_NL, _SHIFT = 1, 2, 4, 8, 16, 5
_ASSERTIONS = {
    _C.AT_BEGINNING: lambda ctx: ctx & _START,
    _C.AT_BEGINNING_STRING: lambda ctx: ctx & _START,
    _C.AT_END: lambda ctx: ctx & (_END | _FINAL_NL),
    _C.AT_END_STRING: lambda ctx: ctx & _END,
    _C.AT_BOUNDARY: lambda ctx: ctx & 3 in (1, 2),
    # As in re before Python 3.14, \B never holds in an empty string.
    _C.AT_NON_BOUNDARY: lambda ctx: ctx & 3 in (0, 3) and ctx & (_START | _END) != _START | _END,
}
_UNSUPPORTED = {_C.GROUPREF: "a backreference", _C.ASSERT: "lookaround", _C.ASSERT_NOT: "lookaround",
                _C.GROUPREF_EXISTS: "a conditional group", _C.ATOMIC_GROUP: "an atomic group",
                _C.POSSESSIVE_REPEAT: "a possessive repeat"}


class _Matcher:
    """Thompson NFA whose states are the bits of an int, searched through a lazy DFA.

    Each character costs one lookup in a cache from (search state, character)
    to the next search state. The cache is cleared when full, so a search
    never costs more than O(text x pattern).
    """

    def __init__(self, pattern: str):
        parsed = _parser.parse(pattern)
        self._edges: list[list[tuple]] = []  # per state: (assertion or None, next state) epsilon moves
        self._moves: dict[int, int] = {}  # bit of a character state -> bit of the state after it
        self._classes: dict[tuple, tuple] = {}  # atom key -> (fullmatch, its character states)
        self._accept = 1 << self._state()  # state 0
        self._start = 1 << self._build(parsed, parsed.state.flags, 0)
        self._forks = sum(1 << state for state, edges in enumerate(self._edges) if edges)
        self._kinds: dict[str, int] = {}
        self._cache: dict[tuple[int, str], int] = {}

    def _state(self, *edges: tuple) -> int:
        if len(self._edges) >= _STATE_CAP:
            raise ValueError(f"pattern expands to more than {_STATE_CAP} states")
        self._edges.append(list(edges))
        return len(self._edges) - 1

    def _build(self, items, flags: int, out: int) -> int:
        """Add states for ``items`` leading to ``out``; return the entry state."""
        if flags & ~_FLAGS:
            raise ValueError(f"unsupported flag {re.RegexFlag(flags & ~_FLAGS)!r}")
        for op, av in reversed(items):
            if op in (_C.LITERAL, _C.NOT_LITERAL, _C.ANY, _C.IN):
                state = self._state()
                self._moves[1 << state] = 1 << out
                key = (op, repr(av), flags)
                match, states = self._classes.get(key) or (
                    _compiler.compile(_parser.SubPattern(_parser.State(), [(op, av)]), flags).fullmatch, 0
                )
                self._classes[key] = (match, states | 1 << state)
                out = state
            elif op is _C.AT and av in _ASSERTIONS:
                out = self._state((_ASSERTIONS[av], out))
            elif op is _C.BRANCH:
                out = self._state(*((None, self._build(branch, flags, out)) for branch in av[1]))
            elif op is _C.SUBPATTERN:
                out = self._build(av[3], (flags | av[1]) & ~av[2], out)
            elif op in (_C.MAX_REPEAT, _C.MIN_REPEAT):
                low, high, item = av
                if item.getwidth()[1] == 0:  # repeating an empty match adds nothing
                    low, high = min(low, 1), 1
                if high == _C.MAXREPEAT:
                    loop = self._state((None, out))
                    self._edges[loop].append((None, self._build(item, flags, loop)))
                    out, high = loop, low
                for _ in range(high - low):
                    out = self._state((None, self._build(item, flags, out)), (None, out))
                for _ in range(low):
                    out = self._build(item, flags, out)
            else:
                raise ValueError(f"{_UNSUPPORTED.get(op, str(op).lower())} is not supported")
        return out

    def _kind(self, ch: str) -> int:
        """The character states that accept ``ch`` (above _SHIFT), and whether it is a word character."""
        # The accepting state (bit _SHIFT) consumes nothing; setting it keeps every kind nonzero.
        kind = 1 << _SHIFT | (_WORD_AFTER if ch.isalnum() or ch == "_" else 0)  # re's \w
        for match, states in self._classes.values():
            if match(ch):
                kind |= states << _SHIFT
        if len(self._kinds) >= _CACHE_CAP:
            self._kinds.clear()
        self._kinds[ch] = kind
        return kind

    def _closure(self, states: int, ctx: int) -> int:
        """Add every state reached from ``states`` by epsilon moves whose assertion holds in ``ctx``."""
        todo, forks = [], states & self._forks
        while forks:
            todo.append((forks & -forks).bit_length() - 1)
            forks &= forks - 1
        while todo:
            for assertion, target in self._edges[todo.pop()]:
                if not states >> target & 1 and (assertion is None or assertion(ctx)):
                    states |= 1 << target
                    todo.append(target)
        return states

    def _advance(self, state: int, ch: str, context: int = 0) -> int:
        """The search state after ``ch``, or 0 once a match is found.

        A search state holds the live NFA states, the start state among them,
        above the context left of the next position (_START or _WORD_BEFORE).
        """
        kind = self._kinds.get(ch) or self._kind(ch)
        closed = self._closure(state >> 3, state & 7 | context | kind & _WORD_AFTER)
        after, moved = self._start, closed & ~self._accept & kind >> _SHIFT
        while moved:
            low = moved & -moved
            after |= self._moves[low]
            moved ^= low
        after = 0 if closed & self._accept else after << 3 | kind >> 1 & _WORD_BEFORE
        if not context:
            if len(self._cache) >= _CACHE_CAP:
                self._cache.clear()
            self._cache[state, ch] = after
        return after

    def search(self, text: str) -> bool:
        """True when the pattern matches anywhere in ``text``."""
        state, cache = self._start << 3 | _START, self._cache
        for ch in text[:-1]:
            state = cache.get((state, ch)) or self._advance(state, ch)
            if not state:
                return True
        if text:
            state = self._advance(state, text[-1], _FINAL_NL if text[-1] == "\n" else 0)
            if not state:
                return True
        return bool(self._closure(state >> 3, state & 7 | _END) & self._accept)


@dataclass(frozen=True)
class LexicalRule:
    """One structural expectation over the submitted sources."""

    rule_id: str
    description: str
    pattern: str
    polarity: RulePolarity
    weight: float = 1.0
    strip_comments: bool = True
    strip_strings: bool = True
    # Built once from ``pattern``: every submission the rule judges reuses it and its DFA cache.
    _matcher: _Matcher = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ValueError("rule_id must be non-empty")
        try:
            object.__setattr__(self, "_matcher", _Matcher(self.pattern))
        except (re.error, ValueError) as exc:
            raise ValueError(f"rule {self.rule_id!r}: invalid pattern: {exc}") from exc
        if not (isinstance(self.weight, (int, float)) and not isinstance(self.weight, bool)
                and 0 < self.weight <= sys.float_info.max):
            raise ValueError(f"rule {self.rule_id!r}: weight must be positive, got {self.weight!r}")
        for name in ("strip_comments", "strip_strings"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"rule {self.rule_id!r}: {name} must be a bool, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class RuleResult:
    rule_id: str
    description: str
    polarity: RulePolarity
    matched: bool
    satisfied: bool
    weight: float
    warnings: tuple[str, ...] = ()


def evaluate_rule(rule: LexicalRule, sources: Sequence[tuple[str, str]]) -> RuleResult:
    """Apply one rule to ``(filename, text)`` pairs.

    The rule matches the submission when its pattern matches at least one
    preprocessed source file. A MUST_MATCH rule is satisfied exactly when it
    matches; a MUST_NOT_MATCH rule exactly when it does not. With no source
    files nothing matches, so MUST_MATCH fails and MUST_NOT_MATCH holds.
    """
    matched = False
    warnings: list[str] = []
    for name, text in sources:
        prepared = preprocess_source(text, rule.strip_comments, rule.strip_strings)
        warnings.extend(f"{name}: {message}" for message in prepared.warnings)
        if rule._matcher.search(prepared.text):
            matched = True
    satisfied = matched if rule.polarity is RulePolarity.MUST_MATCH else not matched
    return RuleResult(
        rule_id=rule.rule_id,
        description=rule.description,
        polarity=rule.polarity,
        matched=matched,
        satisfied=satisfied,
        weight=rule.weight,
        warnings=tuple(warnings),
    )


def evaluate_ruleset(rules: Sequence[LexicalRule], sources: Sequence[tuple[str, str]]) -> tuple[RuleResult, ...]:
    return tuple(evaluate_rule(rule, sources) for rule in rules)


def collect_sources(workspace: Path, files: Sequence[str]) -> list[tuple[str, str]]:
    """Read the source files among ``files`` as ``(relative path, text)`` pairs.

    ``files`` are workspace-relative paths in sorted order, as extraction
    returns them; only those with a :data:`LEXICAL_EXTENSIONS` suffix are
    read. Undecodable bytes are replaced rather than fatal; a submission
    with a stray latin-1 character should still be gradeable.
    """
    return [
        (name, (workspace / name).read_text(encoding="utf-8", errors="replace"))
        for name in files
        if Path(name).suffix.lower() in LEXICAL_EXTENSIONS
    ]
