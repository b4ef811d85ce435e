"""Lexical analysis of submitted source code.

Instructors describe structural expectations ("uses a nested branch", "does
not call goto") as regular expressions with a polarity. Before a pattern is
applied, the source text is run through a small lexer that can blank out
comments and string literals, so that a required construct hidden in a
comment, or a forbidden one quoted in an output message, is judged the way a
human reader would judge it.

The preprocessing deliberately preserves newlines and overall layout: line
and column positions in the filtered text still correspond to the original
file, and running the filter twice yields the same text as running it once.

A pattern written in the linear-time dialect runs on a bit-parallel NFA in
O(text x pattern) time, whatever the text. The dialect is a sequence of
atoms, each optionally followed by ``*``: a literal character other than
``. ^ $ * + ? { } [ ( ) | \\``, a backslash before an ASCII character that
is not a letter or digit, ``\\s``, ``\\S``, or a bracket class of those (no
ranges, no negation, no ``[`` or ``-`` inside, no leading ``]``). ``\\s`` means
``str.isspace``, as it does to ``re``, so the NFA's verdict equals
``re.search``'s. Every other pattern runs on ``re``, whose backtracking has no
time bound; :func:`is_linear_time` tells the two apart.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
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


def preprocess_source(text: str, strip_comments: bool = True, strip_strings: bool = True) -> PreprocessedSource:
    """Blank comments and/or literal contents out of C/C++-style source.

    A stripped line or block comment becomes a single space; newlines inside
    block comments are kept so line numbering survives. A stripped string or
    character literal keeps its quotes, with the contents collapsed to one
    space (nothing for an empty literal). Escape sequences inside literals
    are honoured, so an escaped quote does not end the literal. Comment
    markers inside literals, and quotes inside comments, are inert.

    Unterminated block comments and literals do not fail the pass: the open
    region is treated as running to end-of-file and a warning is recorded.
    The transformation is idempotent for any flag combination.
    """
    out: list[str] = []
    warnings: list[str] = []
    mode = "code"
    quote = ""
    content_seen = False
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if mode == "code":
            if ch == "/" and i + 1 < n and text[i + 1] == "/":
                out.append(" " if strip_comments else "//")
                mode = "line"
                i += 2
            elif ch == "/" and i + 1 < n and text[i + 1] == "*":
                out.append(" " if strip_comments else "/*")
                mode = "block"
                i += 2
            elif ch in "\"'":
                out.append(ch)
                mode = "quote"
                quote = ch
                content_seen = False
                i += 1
            else:
                out.append(ch)
                i += 1
        elif mode == "line":
            if ch == "\n":
                out.append("\n")
                mode = "code"
            elif not strip_comments:
                out.append(ch)
            i += 1
        elif mode == "block":
            if ch == "*" and i + 1 < n and text[i + 1] == "/":
                if not strip_comments:
                    out.append("*/")
                mode = "code"
                i += 2
            else:
                if ch == "\n":
                    out.append("\n")
                elif not strip_comments:
                    out.append(ch)
                i += 1
        else:  # inside a string or character literal
            if ch == "\\" and i + 1 < n:
                if strip_strings:
                    content_seen = True
                else:
                    out.append(text[i : i + 2])
                i += 2
            elif ch == quote:
                if strip_strings and content_seen:
                    out.append(" ")
                out.append(ch)
                mode = "code"
                i += 1
            elif ch == "\n":
                out.append("\n")
                i += 1
            else:
                if strip_strings:
                    content_seen = True
                else:
                    out.append(ch)
                i += 1
    if mode == "block":
        warnings.append(WARN_UNTERMINATED_BLOCK_COMMENT)
    elif mode == "quote":
        warnings.append(WARN_UNTERMINATED_STRING if quote == '"' else WARN_UNTERMINATED_CHAR)
    return PreprocessedSource("".join(out), tuple(warnings))


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


# Outside a bracket class these characters are operators to ``re``.
_OPERATORS = frozenset(".^$*+?{}[()|\\")

# An atom is the set of characters it accepts, as (every character for which
# str.isspace() holds, every other character, these literal characters).
_Atom = tuple[bool, bool, frozenset[str]]


def _escape(escaped: str) -> _Atom | None:
    """The atom a backslash before ``escaped`` stands for, or None outside the dialect."""
    if escaped == "s":
        return (True, False, frozenset())
    if escaped == "S":
        return (False, True, frozenset())
    if len(escaped) == 1 and escaped.isascii() and not escaped.isalnum():
        return (False, False, frozenset(escaped))
    return None


def _bracket(pattern: str, i: int) -> tuple[_Atom | None, int]:
    """Parse the class whose body starts at ``pattern[i]``; return the atom and the index after ``]``."""
    if pattern[i : i + 1] in ("^", "]"):
        return None, i
    space = nonspace = False
    chars: set[str] = set()
    while i < len(pattern):
        ch = pattern[i]
        if ch == "]":
            return (space, nonspace, frozenset(chars)), i + 1
        if ch in "[-":
            return None, i
        if ch == "\\":
            atom = _escape(pattern[i + 1 : i + 2])
            if atom is None:
                return None, i
            space |= atom[0]
            nonspace |= atom[1]
            chars |= atom[2]
            i += 2
        else:
            chars.add(ch)
            i += 1
    return None, i


def _tokenize(pattern: str) -> list[tuple[_Atom, bool]] | None:
    """Split a pattern into (atom, starred) tokens, or None when it lies outside the dialect."""
    tokens: list[tuple[_Atom, bool]] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            atom = _escape(pattern[i + 1 : i + 2])
            i += 2
        elif ch == "[":
            atom, i = _bracket(pattern, i + 1)
        elif ch in _OPERATORS:
            return None
        else:
            atom = (False, False, frozenset(ch))
            i += 1
        if atom is None:
            return None
        starred = pattern.startswith("*", i)
        i += starred
        tokens.append((atom, starred))
    return tokens


class _BitsetNFA:
    """Shift-and search for a sequence of atoms, each optionally starred.

    Bit ``j`` of a state set means "token ``j`` is next"; bit ``len(tokens)``
    means a match. A starred token keeps its own bit when it consumes a
    character and can be skipped without one.
    """

    __slots__ = ("_space", "_nonspace", "_chars", "_starred", "_start", "_accept", "_ascii")

    def __init__(self, tokens: list[tuple[_Atom, bool]]):
        self._space = self._nonspace = self._starred = 0
        self._chars: dict[str, int] = {}
        for j, ((space, nonspace, chars), starred) in enumerate(tokens):
            bit = 1 << j
            self._space |= bit if space else 0
            self._nonspace |= bit if nonspace else 0
            self._starred |= bit if starred else 0
            for ch in chars:
                self._chars[ch] = self._chars.get(ch, 0) | bit
        self._accept = 1 << len(tokens)
        self._start = self._closure(1)
        # Other characters are computed per occurrence: a table of every
        # character seen would grow without bound on hostile Unicode input.
        self._ascii = tuple(self._mask(chr(code)) for code in range(128))

    def _mask(self, ch: str) -> int:
        """The tokens that accept ``ch``."""
        return (self._space if ch.isspace() else self._nonspace) | self._chars.get(ch, 0)

    def _closure(self, states: int) -> int:
        """Add every state reached by skipping starred tokens.

        Adding the seeds that sit in a run of starred tokens to the run's
        bits carries from the lowest seed to one past the run's end; the
        bits that flip are the states those seeds reach.
        """
        starred = self._starred
        return states | ((starred + (states & starred)) ^ starred)

    def search(self, text: str) -> bool:
        """True when the pattern matches anywhere in ``text``."""
        start, accept, starred, table = self._start, self._accept, self._starred, self._ascii
        if start & accept:
            return True
        active = 0
        for ch in text:
            code = ord(ch)
            moved = (active | start) & (table[code] if code < 128 else self._mask(ch))
            moved = (moved << 1) | (moved & starred)
            # self._closure(moved), inlined: this loop runs once per character.
            active = moved | ((starred + (moved & starred)) ^ starred)
            if active & accept:
                return True
        return False


@lru_cache(maxsize=256)
def _compile(pattern: str) -> re.Pattern[str] | _BitsetNFA:
    """The matcher for a pattern: the bitset NFA inside the dialect, ``re`` outside it.

    Raises ``re.error`` for every pattern ``re`` rejects, in the dialect or not.
    """
    regex = re.compile(pattern)
    tokens = _tokenize(pattern)
    return regex if tokens is None else _BitsetNFA(tokens)


def is_linear_time(pattern: str) -> bool:
    """True when a valid pattern lies in the dialect that matches in linear time."""
    return isinstance(_compile(pattern), _BitsetNFA)


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

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ValueError("rule_id must be non-empty")
        try:
            _compile(self.pattern)
        except re.error as exc:
            raise ValueError(f"rule {self.rule_id!r}: invalid pattern: {exc}") from exc
        if not isinstance(self.weight, (int, float)) or isinstance(self.weight, bool) or self.weight <= 0:
            raise ValueError(f"rule {self.rule_id!r}: weight must be positive, got {self.weight!r}")


@dataclass(frozen=True)
class RuleResult:
    rule_id: str
    description: str
    polarity: RulePolarity
    matched: bool
    satisfied: bool
    weight: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class LexicalReport:
    results: tuple[RuleResult, ...]

    @property
    def total_weight(self) -> float:
        return sum(result.weight for result in self.results)

    @property
    def satisfied_weight(self) -> float:
        return sum(result.weight for result in self.results if result.satisfied)

    @property
    def fraction(self) -> float:
        """Weighted share of satisfied rules; vacuously 1.0 with no rules."""
        total = self.total_weight
        if total == 0:
            return 1.0
        return self.satisfied_weight / total


def evaluate_rule(rule: LexicalRule, sources: Sequence[tuple[str, str]]) -> RuleResult:
    """Apply one rule to ``(filename, text)`` pairs.

    The rule matches the submission when its pattern matches at least one
    preprocessed source file. A MUST_MATCH rule is satisfied exactly when it
    matches; a MUST_NOT_MATCH rule exactly when it does not. With no source
    files nothing matches, so MUST_MATCH fails and MUST_NOT_MATCH holds.
    """
    matcher = _compile(rule.pattern)
    matched = False
    warnings: list[str] = []
    for name, text in sources:
        prepared = preprocess_source(text, rule.strip_comments, rule.strip_strings)
        warnings.extend(f"{name}: {message}" for message in prepared.warnings)
        if matcher.search(prepared.text):
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


def evaluate_ruleset(rules: Sequence[LexicalRule], sources: Sequence[tuple[str, str]]) -> LexicalReport:
    return LexicalReport(tuple(evaluate_rule(rule, sources) for rule in rules))


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
