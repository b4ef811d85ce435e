import random
import re
import time

import pytest

from gradepipe.lexcheck import (
    LexicalReport,
    LexicalRule,
    RulePolarity,
    collect_sources,
    evaluate_rule,
    evaluate_ruleset,
    join_pattern_lines,
    preprocess_source,
)
from gradepipe.specfile import load_spec

import refmatch
from support import SPEC_PATH, source


# -- preprocessing ------------------------------------------------------------


def test_line_comment_becomes_space():
    text = "int x; // set up\nint y;\n"
    assert preprocess_source(text).text == "int x;  \nint y;\n"


def test_block_comment_becomes_space_preserving_newlines():
    text = "int x; /* one\ntwo\nthree */ int y;\n"
    stripped = preprocess_source(text).text
    assert stripped == "int x;  \n\n int y;\n"
    assert stripped.count("\n") == text.count("\n")


def test_string_contents_collapse_to_one_space():
    assert preprocess_source('cout << "if (a) {";').text == 'cout << " ";'
    assert preprocess_source('s = "";').text == 's = "";'
    assert preprocess_source("c = 'x';").text == "c = ' ';"


def test_escaped_quote_does_not_end_string():
    assert preprocess_source(r'puts("say \"hi\" now");').text == 'puts(" ");'


def test_comment_markers_inside_strings_are_inert():
    text = 'url = "http://example.com/*path*/";\nint z;\n'
    assert preprocess_source(text).text == 'url = " ";\nint z;\n'


def test_quotes_inside_comments_are_inert():
    text = "/* unmatched \" quote */ int x;\n"
    assert preprocess_source(text).text == "  int x;\n"
    assert preprocess_source(text).warnings == ()


def test_flags_select_what_is_stripped():
    text = 'x = "goto"; // goto\n'
    both = preprocess_source(text)
    assert "goto" not in both.text
    keep_strings = preprocess_source(text, strip_comments=True, strip_strings=False)
    assert '"goto"' in keep_strings.text and "// goto" not in keep_strings.text
    keep_comments = preprocess_source(text, strip_comments=False, strip_strings=True)
    assert "// goto" in keep_comments.text and '"goto"' not in keep_comments.text


def test_no_flags_is_identity():
    text = 'weird /* stuff " here \' */ and "more /*" \n // trailing'
    assert preprocess_source(text, strip_comments=False, strip_strings=False).text == text


@pytest.mark.parametrize(
    "text, warning",
    [
        ("int x; /* never closed", "unterminated block comment"),
        ('s = "never closed', "unterminated string literal"),
        ("c = 'x", "unterminated character literal"),
    ],
)
def test_unterminated_regions_warn_but_succeed(text, warning):
    result = preprocess_source(text)
    assert warning in result.warnings


def test_unterminated_block_comment_stripped_to_eof():
    result = preprocess_source("int x; /* goto forever")
    assert "goto" not in result.text
    assert result.text.startswith("int x; ")


def test_preprocess_idempotent_on_random_soup():
    # Arbitrary interleavings of quotes, slashes, stars, and escapes must
    # reach a fixed point after one pass, whatever the flag combination.
    alphabet = 'ab \n"\'/*\\{};'
    rng = random.Random(1234)
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        for strip_comments in (False, True):
            for strip_strings in (False, True):
                once = preprocess_source(text, strip_comments, strip_strings).text
                twice = preprocess_source(once, strip_comments, strip_strings).text
                assert twice == once, (text, strip_comments, strip_strings)


def test_preprocess_preserves_line_count_on_fixture_sources():
    for fixture in ("leap_nested.cpp", "leap_flat.cpp", "leap_broken.cpp"):
        text = source(fixture)
        assert preprocess_source(text).text.count("\n") == text.count("\n")


# -- pattern joining ----------------------------------------------------------


def test_join_pattern_lines_removes_typographic_breaks():
    wrapped = "if\\s*\\([\\s\\S]*\\)\\s*\\{\n    [\\s\\S]*\\}"
    assert join_pattern_lines(wrapped) == "if\\s*\\([\\s\\S]*\\)\\s*\\{[\\s\\S]*\\}"


def test_join_pattern_lines_keeps_escape_sequences():
    # A backslash-n escape contains no literal newline, so it survives.
    assert join_pattern_lines(r"end\nhere") == r"end\nhere"


def test_join_pattern_lines_trims_block_scalar_tail():
    assert join_pattern_lines("goto\n") == "goto"


# -- rules --------------------------------------------------------------------


def test_rule_rejects_bad_pattern_and_weight():
    with pytest.raises(ValueError):
        LexicalRule("r", "broken", "([unclosed", RulePolarity.MUST_MATCH)
    with pytest.raises(ValueError):
        LexicalRule("r", "weightless", "x", RulePolarity.MUST_MATCH, weight=0)
    with pytest.raises(ValueError):
        LexicalRule("", "anonymous", "x", RulePolarity.MUST_MATCH)


def test_rule_matches_any_source_file():
    rule = LexicalRule("loop", "uses a while loop", r"while\s*\(", RulePolarity.MUST_MATCH)
    sources = [("main.cpp", "int main() { return 0; }"), ("util.cpp", "void f() { while (1) {} }")]
    result = evaluate_rule(rule, sources)
    assert result.matched and result.satisfied


def test_rule_on_empty_submission():
    must = LexicalRule("m", "needs if", r"if\s*\(", RulePolarity.MUST_MATCH)
    must_not = LexicalRule("n", "no goto", r"goto", RulePolarity.MUST_NOT_MATCH)
    assert not evaluate_rule(must, []).satisfied
    assert evaluate_rule(must_not, []).satisfied


def test_comment_hidden_construct_is_not_matched():
    text = "int main() {\n    // TODO: maybe goto cleanup;\n    return 0;\n}\n"
    rule = LexicalRule("no-goto", "must not use goto", r"goto", RulePolarity.MUST_NOT_MATCH)
    result = evaluate_rule(rule, [("main.cpp", text)])
    assert result.satisfied and not result.matched

    raw = LexicalRule(
        "raw-goto", "goto anywhere, comments included", r"goto",
        RulePolarity.MUST_NOT_MATCH, strip_comments=False,
    )
    assert not evaluate_rule(raw, [("main.cpp", text)]).satisfied


def test_string_quoted_construct_is_not_matched():
    text = 'int main() { cout << "goto considered harmful"; }\n'
    rule = LexicalRule("no-goto", "must not use goto", r"goto", RulePolarity.MUST_NOT_MATCH)
    assert evaluate_rule(rule, [("main.cpp", text)]).satisfied


def test_polarity_duality_property():
    rng = random.Random(987)
    patterns = [r"if\s*\(", r"goto", r"while\s*\(", r"\{[\s\S]*\}", r"return\s"]
    fragments = ["if (x) { y(); }", "goto end;", "while (1) {}", "return 0;", "int z = 4;", ""]
    for _ in range(200):
        pattern = rng.choice(patterns)
        text = " ".join(rng.choice(fragments) for _ in range(rng.randint(0, 4)))
        sources = [("main.cpp", text)]
        positive = evaluate_rule(
            LexicalRule("p", "d", pattern, RulePolarity.MUST_MATCH), sources
        )
        negative = evaluate_rule(
            LexicalRule("n", "d", pattern, RulePolarity.MUST_NOT_MATCH), sources
        )
        assert positive.matched == negative.matched
        assert positive.satisfied != negative.satisfied


def test_rule_evaluation_is_deterministic():
    rule = LexicalRule("loop", "uses a loop", r"while\s*\(", RulePolarity.MUST_MATCH)
    sources = [("main.cpp", "while (true) { /* spin */ }")]
    assert evaluate_rule(rule, sources) == evaluate_rule(rule, sources)


def test_warnings_are_attributed_to_files():
    rule = LexicalRule("any", "anything", r"x", RulePolarity.MUST_MATCH)
    result = evaluate_rule(rule, [("broken.cpp", 'x = "unclosed')])
    assert result.warnings == ("broken.cpp: unterminated string literal",)


# -- matching -----------------------------------------------------------------


def verdict(pattern: str, text: str) -> bool:
    """The production verdict on unpreprocessed text."""
    rule = LexicalRule("r", "d", pattern, RulePolarity.MUST_MATCH, strip_comments=False, strip_strings=False)
    return evaluate_rule(rule, [("main.cpp", text)]).matched


# Texts mix C punctuation with characters where ideas of a class differ:
# \xa0 and \x1c are str.isspace(), so \s to re, but not to refmatch; \u0661
# (Arabic-Indic one) is \d and \w, \xe9 is \w; under (?i) \u017f (long s)
# matches s and \u212a (Kelvin sign) matches k.
TEXT_ALPHABET = "ab {}()\n\t\xa0\x1c"
UNICODE_ALPHABET = "abksAS _1.-;\n\xa0\x1c\u0661\xe9\u017f\u212a"
DIALECT_ATOMS = (
    "a", "b", " ", "\n", "\t", "\xa0", "\x1c", "]",
    r"\{", r"\}", r"\(", r"\)", r"\\", r"\*", r"\ ",
    r"\s", r"\S", r"[\s\S]", r"[ab{]", r"[\s(]", r"[\S)]", "[a^]", "[*.(]", "[\xa0]",
)
ATOMS = (
    "a", "b", "k", "s", "S", "\u212a", "\xe9", " ", r"\n", ".", r"\.", "[a-c]", "[^a ]", "[^\n]",
    r"[\s\d]", r"[^\W_]", r"\d", r"\D", r"\w", r"\W", r"\s", r"\S",
)
ASSERTIONS = ("^", "$", r"\A", r"\Z", r"\b", r"\B")
QUANTIFIERS = ("*", "+", "?", "{2}", "{1,3}", "{0,2}", "{2,}", "*?", "+?", "??", "{1,2}?")
GROUPS = ("(", "(?:", "(?i:", "(?s:", "(?-i:")


def random_pattern(rng: random.Random, depth: int = 0) -> str:
    """A pattern over the whole subset the matcher implements."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.15:
            parts.append(rng.choice(ASSERTIONS))
            continue
        if roll < 0.35 and depth < 2:
            branches = "|".join(random_pattern(rng, depth + 1) for _ in range(rng.randint(1, 3)))
            part = rng.choice(GROUPS) + branches + ")"
        else:
            part = rng.choice(ATOMS)
        parts.append(part + (rng.choice(QUANTIFIERS) if rng.random() < 0.35 else ""))
    return (rng.choice(("", "", "(?i)", "(?s)")) if depth == 0 else "") + "".join(parts)


def test_matcher_agrees_with_re_and_refmatch():
    rng = random.Random(4242)
    for case in range(4000):
        if case % 4:
            pattern = random_pattern(rng)
            alphabet = UNICODE_ALPHABET
        else:
            pattern = "".join(
                rng.choice(DIALECT_ATOMS) + ("*" if rng.random() < 0.4 else "") for _ in range(rng.randint(0, 6))
            )
            alphabet = TEXT_ALPHABET
        for _ in range(3):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
            expected = re.search(pattern, text) is not None
            assert verdict(pattern, text) == expected, (pattern, text)
            # refmatch knows only the dialect, and rejects a "^" anywhere in a
            # class; re reads "[a^]" as two characters.
            in_dialect = case % 4 == 0 and "^" not in pattern
            if in_dialect and all(ch.isspace() == (ch in refmatch.WHITESPACE) for ch in text):
                assert refmatch.search(pattern, text) == expected, (pattern, text)


@pytest.mark.parametrize(
    "pattern",
    [r"\bgoto\b", r"\d", r"\n", "[a-c]", "[^x]", "[]x]", "a.b", "a+", "x{2}", "(a)", "^a", "a$", "a|b"],
)
def test_patterns_outside_the_dialect_keep_re_verdicts(pattern):
    # Each is a construct refmatch would misread (\b as "b", [a-c] as three
    # characters) or does not know; the matcher must agree with re.
    texts = ["", "a", "b", "-", "x", "]", "1", "\n", "ab", "aa", "xx", "a-c", "axb", "a\nb", "goto", "goto;", "bgotob"]
    for text in texts:
        assert verdict(pattern, text) == (re.search(pattern, text) is not None), (pattern, text)


def thrashing_text() -> str:
    # Every window of "a" and "r" is a distinct set of live states, more than the cache holds.
    rng = random.Random(7)
    return "".join(rng.choice("ar") for _ in range(100_000))


@pytest.mark.parametrize(
    "pattern, text",
    [
        ("(a|a)*b", "a" * 100_000),
        ("(x+x+)+y", "x" * 100_000),
        (r"\b(\w+\s*)*;", "ab " * 33_334),
        ("[a-q][^u-z]{13}x", thrashing_text()),
    ],
    ids=["alternation", "nested-plus", "word-runs", "cache-thrash"],
)
def test_backtracking_worst_cases_finish_fast(pattern, text):
    started = time.perf_counter()
    assert not verdict(pattern, text)
    assert time.perf_counter() - started < 1.0


def test_nested_branch_rule_fails_fast_on_a_long_flat_chain():
    # re backtracks on this for more than five minutes at 200 lines.
    rule = load_spec(SPEC_PATH).rules[0]
    chain = "if (x) { y(); }\n" * 1600
    started = time.perf_counter()
    result = evaluate_rule(rule, [("main.cpp", chain)])
    assert time.perf_counter() - started < 1.0
    assert not result.matched


# -- report arithmetic ---------------------------------------------------------


def test_ruleset_weighted_fraction():
    rules = (
        LexicalRule("a", "has if", r"if\s*\(", RulePolarity.MUST_MATCH, weight=3.0),
        LexicalRule("b", "no goto", r"goto", RulePolarity.MUST_NOT_MATCH, weight=1.0),
    )
    report = evaluate_ruleset(rules, [("main.cpp", "goto end;")])
    assert [r.satisfied for r in report.results] == [False, False]
    assert report.fraction == 0.0
    report = evaluate_ruleset(rules, [("main.cpp", "if (x) {}")])
    assert report.fraction == 1.0
    report = evaluate_ruleset(rules, [("main.cpp", "if (x) { goto end; }")])
    assert report.fraction == pytest.approx(0.75)


def test_empty_ruleset_is_vacuously_satisfied():
    assert LexicalReport(()).fraction == 1.0


# -- source collection ----------------------------------------------------------


def test_collect_sources_sorted_and_filtered(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "z.cpp").write_text("int z;\n")
    (tmp_path / "a.cpp").write_text("int a;\n")
    (tmp_path / "sub" / "h.hpp").write_text("int h;\n")
    (tmp_path / "notes.txt").write_text("not source\n")
    pairs = collect_sources(tmp_path, ["a.cpp", "notes.txt", "sub/h.hpp", "z.cpp"])
    assert [name for name, _ in pairs] == ["a.cpp", "sub/h.hpp", "z.cpp"]
    assert pairs[0][1] == "int a;\n"


def test_collect_sources_tolerates_bad_encoding(tmp_path):
    (tmp_path / "latin.cpp").write_bytes(b"// caf\xe9\nint x;\n")
    pairs = collect_sources(tmp_path, ["latin.cpp"])
    assert len(pairs) == 1
    assert "int x;" in pairs[0][1]
