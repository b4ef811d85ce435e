"""Independent reference matcher for the structural-rule regex dialect.

The lexical rules shipped with the grader use a deliberately small slice of
regex syntax: literal characters, backslash escapes, the ``\\s``/``\\S``
classes, bracket classes built from those, and the ``*`` quantifier. This
module reimplements exactly that dialect from scratch as an NFA simulation
over token positions, sharing no code with the stdlib engine, so tests can
check the two agree without one implementation quietly validating itself.

Only a boolean unanchored ``search`` is provided; the grader never needs
capture groups or match positions.

It is an oracle for ASCII text only, and not for all of that: its ``\\s`` is
the six characters in :data:`WHITESPACE`, while ``re``'s is ``str.isspace``,
which also holds for ``\\x1c``-``\\x1f`` and for Unicode spaces such as
``\\xa0`` and ``\\x85``.
"""

from __future__ import annotations

WHITESPACE = frozenset(" \t\n\r\f\v")

_UNSUPPORTED = frozenset("+?(){}|.^$")

# A matcher is ("lit", ch), ("ws",), ("nonws",), or ("set", ws, nonws, lits).
Matcher = tuple
Token = tuple  # (matcher, starred)


def _class_matcher(body: str) -> Matcher:
    ws = False
    nonws = False
    lits: set[str] = set()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise ValueError("dangling backslash in character class")
            escaped = body[i + 1]
            if escaped == "s":
                ws = True
            elif escaped == "S":
                nonws = True
            else:
                lits.add(escaped)
            i += 2
        else:
            if ch == "^":
                raise ValueError("negated classes are outside the dialect")
            lits.add(ch)
            i += 1
    return ("set", ws, nonws, frozenset(lits))


def tokenize(pattern: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= len(pattern):
                raise ValueError("dangling backslash")
            escaped = pattern[i + 1]
            if escaped == "s":
                matcher: Matcher = ("ws",)
            elif escaped == "S":
                matcher = ("nonws",)
            else:
                matcher = ("lit", escaped)
            i += 2
        elif ch == "[":
            end = pattern.find("]", i + 1)
            if end < 0:
                raise ValueError("unterminated character class")
            matcher = _class_matcher(pattern[i + 1 : end])
            i = end + 1
        elif ch == "*":
            raise ValueError("quantifier with nothing to repeat")
        elif ch in _UNSUPPORTED:
            raise ValueError(f"metacharacter {ch!r} is outside the dialect")
        else:
            matcher = ("lit", ch)
            i += 1
        starred = i < len(pattern) and pattern[i] == "*"
        if starred:
            i += 1
        tokens.append((matcher, starred))
    return tokens


def _accepts(matcher: Matcher, ch: str) -> bool:
    kind = matcher[0]
    if kind == "lit":
        return ch == matcher[1]
    if kind == "ws":
        return ch in WHITESPACE
    if kind == "nonws":
        return ch not in WHITESPACE
    _, ws, nonws, lits = matcher
    return (ws and ch in WHITESPACE) or (nonws and ch not in WHITESPACE) or ch in lits


def search(pattern: str, text: str) -> bool:
    """True when the pattern matches anywhere in the text.

    States are positions between tokens; a starred token may consume any
    number of characters via a self-loop. Because the search is unanchored,
    the start state is re-seeded before every character.
    """
    tokens = tokenize(pattern)
    accepting = len(tokens)

    def closure(states: set[int]) -> set[int]:
        # A starred token is skippable, so position j flows into j + 1.
        frontier = list(states)
        out = set(states)
        while frontier:
            j = frontier.pop()
            if j < accepting and tokens[j][1] and j + 1 not in out:
                out.add(j + 1)
                frontier.append(j + 1)
        return out

    active = closure({0})
    if accepting in active:
        return True
    for ch in text:
        active |= closure({0})
        advanced: set[int] = set()
        for j in active:
            if j < accepting and _accepts(tokens[j][0], ch):
                advanced.add(j + 1)
                if tokens[j][1]:
                    advanced.add(j)
        active = closure(advanced)
        if accepting in active:
            return True
    return False
