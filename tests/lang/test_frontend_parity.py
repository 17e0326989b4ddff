"""The shipped ``.lang`` front end against its frozen reference.

``tests/lang/lang_reference.py`` keeps the character-at-a-time scanner
and the per-level operator ladder that :mod:`repro.lang.lexer` and
:mod:`repro.lang.parser` replaced.  Every source here must give equal
ASTs, every span included, or the same :class:`LangError` text:

* the ``lang-resume`` benchmark pool (64 kernels drawn by
  :mod:`repro.lang.fuzz` from ``random.Random("lang-resume")``), the
  committed kernels and examples, and seeded random nests;
* seeded single-character deletions, insertions and duplications of
  those sources, half of them inside literal tables, where the scanner
  reads a whole ``{ ... }`` list as one ``init`` token;
* a 4096-entry table, which lexes in linear time, and the same table
  with a non-literal last element, which keeps the parser's diagnostic.

The ``fuzz``-marked tier mutates the whole corpus many more times.
Insertions land before a source's last character: the reference reads
a ``0`` that ends the input as a malformed hex prefix, a fault the
scanner does not share (``test_zero_ending_the_input_is_an_int``).
"""

import pathlib
import random
import re
import time

import pytest

from repro.errors import LangError
from repro.lang.diagnostics import SourceText, Span
from repro.lang.fuzz import SourceNestSpec, random_source_nest
from repro.lang.lexer import Token, tokenize
from repro.lang.parser import parse
from tests.lang import lang_reference

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Characters an insertion draws from: literal, operator and comment
#: characters, quotes, whitespace and two stray ones.
ALPHABET = ("0123456789abcdefxXuif._-+*/{}[]();,=<>!&|^~?:#\"' \t\n@$eE")


def pool_sources(n: int = 64) -> list[str]:
    rng = random.Random("lang-resume")
    return [random_source_nest(rng, SourceNestSpec.sample(rng))
            for _ in range(n)]


def committed_sources() -> list[str]:
    paths = sorted((ROOT / "src/repro/lang/kernels").glob("*.lang"))
    paths += sorted((ROOT / "examples").glob("*.lang"))
    assert paths
    return [p.read_text() for p in paths]


def random_sources(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    return [random_source_nest(rng, SourceNestSpec.sample(rng))
            for _ in range(n)]


def outcome(parse_fn, text: str):
    try:
        return "ok", parse_fn(text, "<m>")
    except LangError as exc:
        return "error", str(exc)


def assert_same(text: str) -> None:
    got, want = outcome(parse, text), outcome(lang_reference.parse, text)
    assert got == want, text


def mutate(rng: random.Random, text: str, in_table: bool) -> str:
    """One single-character deletion, insertion or duplication; with
    ``in_table`` the position falls inside a ``{ ... }`` list when the
    source has one."""
    i = rng.randrange(len(text) - 1)
    starts = [m.start() for m in re.finditer("= {", text)] if in_table else []
    if starts:
        lo = rng.choice(starts) + 2
        i = rng.randrange(lo, text.index("}", lo) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(ALPHABET) + text[i:]
    return text[:i] + text[i] + text[i:]


def check_mutations(sources: list[str], seed: int, n: int) -> None:
    rng = random.Random(seed)
    for k in range(n):
        assert_same(mutate(rng, rng.choice(sources), in_table=k % 2 == 0))


class TestAcceptedSources:
    def test_benchmark_pool(self):
        for text in pool_sources():
            want = lang_reference.parse(text)
            assert parse(text) == want

    def test_committed_kernels_and_examples(self):
        for text in committed_sources():
            assert parse(text) == lang_reference.parse(text)

    def test_random_nests(self):
        for text in random_sources(seed=11, n=12):
            assert parse(text) == lang_reference.parse(text)

    def test_tables_are_one_token(self):
        text = pool_sources(1)[0]
        kinds = [t.kind for t in tokenize(SourceText(text))]
        ref = lang_reference.tokenize(SourceText(text))
        assert kinds.count("init") == text.count("= {")
        assert len(kinds) < len(ref) / 2


class TestMutatedSources:
    def test_small_sources(self):
        small = [t for t in committed_sources() if len(t) < 5000]
        check_mutations(small + pool_sources(4), seed=1, n=120)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(4))
    def test_whole_corpus(self, seed):
        corpus = (pool_sources() + committed_sources()
                  + random_sources(seed=seed, n=16))
        check_mutations(corpus, seed=100 + seed, n=1500)


def table_source(n: int, last: str = "7") -> str:
    rng = random.Random(n)
    body = ", ".join(str(rng.randrange(-128, 256)) for _ in range(n - 1))
    return ("kernel t {\n"
            f"  rom i32 lut[{n}] = {{ {body}, {last} }};\n"
            "  output i32 o[1];\n"
            "  o[0] = lut[3];\n"
            "}\n")


def lex_seconds(text: str) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        tokenize(SourceText(text))
        best = min(best, time.perf_counter() - t0)
    return best


class TestLongTables:
    def test_4096_entries_lex_as_one_token_in_linear_time(self):
        text = table_source(4096)
        toks = tokenize(SourceText(text))
        [init] = [t for t in toks if t.kind == "init"]
        assert len(init.value) == 4096 and init.value[-1] == 7
        assert parse(text) == lang_reference.parse(text)
        # four times the entries cost about four times the time; a
        # quadratic scan would cost sixteen
        ratio = lex_seconds(text) / lex_seconds(table_source(1024))
        assert ratio < 10, ratio

    def test_non_literal_last_element_keeps_the_diagnostic(self):
        text = table_source(4096, last="x")
        got = outcome(parse, text)
        assert got == outcome(lang_reference.parse, text)
        assert got[0] == "error" and "array initializers hold numeric " \
            "literals only, found 'x'" in got[1]
        ratio = (lex_seconds(text)
                 / lex_seconds(table_source(1024, last="x")))
        assert ratio < 10, ratio


class TestScannerEdges:
    @pytest.mark.parametrize("table, values", [
        ("{ 1, -2, 0x1f, 3u8 }", (1, -2, 31, 3)),
        ("{ 1.5, -2e3, 4.0f32, }", (1.5, -2000.0, 4.0)),
        ("{ 1, /* two */ 2, // three\n 3 }", (1, 2, 3)),
        ("{ - /* sign */ 5 }", (-5,)),
    ])
    def test_literal_lists(self, table, values):
        toks = tokenize(SourceText(f"x = {table};"))
        assert [t.kind for t in toks] == ["ident", "op", "init", "op", "eof"]
        assert toks[2].value == values

    @pytest.mark.parametrize("table", [
        "{ }", "{ 1 2 }", "{ 1,, 2 }", "{ +1 }", "{ --1 }", "{ 1, x }",
        "{ 1u9 }", "{ 1.5u8 }", "{ 0x }", "{ 1 /* open }",
    ])
    def test_other_braces_lex_token_by_token(self, table):
        text = f"kernel k {{ rom u8 t[1] = {table}; }}"
        assert outcome(parse, text) == \
            outcome(lang_reference.parse, text)

    def test_list_outside_an_initializer_reports_its_brace(self):
        text = "kernel k { u8 x; x = { 1 }; }"
        assert outcome(parse, text) == \
            outcome(lang_reference.parse, text)
        with pytest.raises(LangError, match="found '{'"):
            parse(text)

    def test_multiline_list_span_is_the_open_brace(self):
        toks = tokenize(SourceText("a = {\n  1,\n  2 };\nb"))
        assert toks[2].span == Span(1, 5, 1)
        assert toks[-2].span == Span(4, 1, 1)

    def test_zero_ending_the_input_is_an_int(self):
        toks = tokenize(SourceText("x 0"))
        assert (toks[1].kind, toks[1].value) == ("int", 0)

    def test_pragma_at_end_of_input_is_reported(self):
        with pytest.raises(LangError, match="annotation name"):
            tokenize(SourceText("#pragma "))

    def test_tokens_and_spans_are_immutable_values(self):
        a = tokenize(SourceText("x + 1"))
        b = tokenize(SourceText("x + 1"))
        assert a == b and hash(tuple(a)) == hash(tuple(b))
        assert isinstance(a[0], Token) and a[0].span == Span(1, 1, 1)
        with pytest.raises(AttributeError):
            a[0].span.col = 2
        with pytest.raises(AttributeError):
            a[0].kind = "op"
