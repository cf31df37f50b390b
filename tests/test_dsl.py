"""Identity source format: parsing, printing, round trips."""

import random

import pytest

from combident.affine import Affine, Bound
from combident.catalog import entry_ids, entry_to_dsl, get_entry
from combident.dsl import parse_identity, print_identity
from combident.errors import DslArityError, DslSyntaxError
from combident.terms import AffineFactor, Binom, Const, Power, Product, SignPow

SIMONS_SOURCE = """
# alternating double-binomial identity
params n:nat;
sum[k=0..n] (-1)^k * binom(n,k) * binom(n+k,k) * x^k
  == sum[k=0..n] (-1)^(n-k) * binom(n,k) * binom(n+k,k) * (1-x)^k
"""

GEOMETRIC_SOURCE = "params n:nat;\nsum[k=0..n] 1 * x^k == sum[k=0..n] (-1)^k * binom(n+1,k+1) * (1-x)^k\n"


class TestParse:
    def test_simons_matches_fixture(self):
        assert parse_identity(SIMONS_SOURCE) == get_entry("F02").descriptor

    def test_geometric_matches_fixture(self):
        desc = parse_identity(GEOMETRIC_SOURCE)
        assert desc == get_entry("F01").descriptor
        block = desc.left.blocks[0]
        assert block.coef == Const(1) or isinstance(block.coef, Const)
        assert block.x_exp.coefficient("k") == 1

    def test_empty_input(self):
        with pytest.raises(DslSyntaxError):
            parse_identity("")

    def test_comment_only_input(self):
        with pytest.raises(DslSyntaxError):
            parse_identity("# nothing here\n")

    def test_error_carries_position(self):
        try:
            parse_identity("params n:nat;\nsum[k=0..n] binom(n k) * x^k == sum[k=0..n] 1 * x^k\n")
        except DslSyntaxError as exc:
            assert exc.line == 2
            assert exc.column > 1
        else:
            pytest.fail("expected a syntax error")

    def test_binom_arity(self):
        bad = "params n:nat;\nsum[k=0..n] binom(n,k,k) * x^k == sum[k=0..n] 1 * x^k\n"
        with pytest.raises(DslArityError):
            parse_identity(bad)

    def test_unknown_sort(self):
        with pytest.raises(DslSyntaxError):
            parse_identity("params n:list;\nsum[k=0..n] 1 * x^k == sum[k=0..n] 1 * x^k\n")

    def test_duplicate_parameter(self):
        with pytest.raises(DslSyntaxError):
            parse_identity("params n:nat, n:int;\nsum[k=0..n] 1 * x^k == sum[k=0..n] 1 * x^k\n")

    def test_reserved_index(self):
        with pytest.raises(DslSyntaxError):
            parse_identity("params k:nat;\nsum[k=0..n] 1 * x^k == sum[k=0..n] 1 * x^k\n")

    @pytest.mark.parametrize("word", ["binom", "pow", "altpowsum", "floor", "min", "sum", "x"])
    def test_a_word_of_the_grammar_is_no_parameter_name(self, word):
        # declared, x would make x^x the kernel x raised to a parameter
        with pytest.raises(DslSyntaxError) as info:
            parse_identity(f"params n:nat,\n  {word}:nat;\nsum[k=0..n] 1 * x^k == sum[k=0..n] 1 * x^k\n")
        assert str(info.value) == f"{word} is a word of the grammar, not a parameter name (line 2, column 3)"

    @pytest.mark.parametrize("numeral", ["½", "²"])
    def test_a_name_cannot_start_with_a_numeral(self, numeral):
        with pytest.raises(DslSyntaxError) as info:
            parse_identity(f"params {numeral}:nat;\nsum[k=0..0] 1 * x^0 == sum[k=0..0] 1 * x^0\n")
        assert str(info.value) == f"unexpected character {numeral!r} (line 1, column 8)"

    def test_factor_shapes(self):
        source = (
            "params n:nat, m:nat, r:rat, s:int;\n"
            "sum[k=0..min(m, n)] pow(k, m) * altpowsum(k, n - k, m) * s / (k + s) * x^0\n"
            "  == sum[k=0..floor(n/2)] 3/4 * (r + 1) * binom(k + r, s)^-1 * x^0\n"
        )
        desc = parse_identity(source)
        left = desc.left.blocks[0]
        assert left.hi.cap is not None
        factors = left.coef.factors
        assert isinstance(factors[0], Power)
        right = desc.right.blocks[0]
        assert right.hi.half
        assert isinstance(right.coef.factors[0], Const)
        assert isinstance(right.coef.factors[1], AffineFactor)
        assert isinstance(right.coef.factors[2], Binom) and right.coef.factors[2].inverted


ZERO_DENOMINATORS = (
    ("sum[k=0..n] 1/0 * x^k", "line 2, column 15"),
    ("sum[k=0..n] -3/0 * x^k", "line 2, column 16"),
    ("sum[k=0..n] n/0 * x^k", "line 2, column 15"),
    ("sum[k=0..n] n/(k - k) * x^k", "line 2, column 15"),
    ("sum[k=0..n] binom(n, k + 1/0) * x^k", "line 2, column 28"),
)


class TestZeroDenominator:
    @pytest.mark.parametrize("left, position", ZERO_DENOMINATORS)
    def test_is_a_syntax_error_at_the_literal(self, left, position):
        with pytest.raises(DslSyntaxError) as info:
            parse_identity(f"params n:nat;\n{left} == sum[k=0..0] 1 * x^0\n")
        assert str(info.value) == f"zero denominator ({position})"

    def test_mutated_catalog_files_raise_only_syntax_errors(self):
        # a fixed, seeded list of random edits of every exported catalog file;
        # the pool leans on denominators, which once escaped as ZeroDivisionError
        texts = [entry_to_dsl(get_entry(entry_id)) for entry_id in entry_ids()]
        pool = ("0", "1", "/", "/0", "1/0", "0n", "(", ")", "+", "-", "*", "^", "^-1",
                "k", "n", "x", ",", ";", "..", "==", "binom", "floor", "min")
        rng = random.Random(20261018)
        zero_denominators = 0
        for _ in range(1000):
            text = rng.choice(texts)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                cut = rng.choice((0, 0, rng.randint(1, 4)))
                insert = rng.choice(pool) if cut == 0 or rng.random() < 0.5 else ""
                text = text[:at] + insert + text[at + cut:]
            try:
                parse_identity(text)
            except DslSyntaxError as exc:
                zero_denominators += str(exc).startswith("zero denominator")
        assert zero_denominators >= 5


NAME_ERRORS = (
    # (left side, message, column); every name must be declared, and k is not a bound's
    ("sum[k=0..n] binom(t, 0) * x^k", "undeclared parameter 't'", 19),
    ("sum[k=0..n] q * x^k", "undeclared parameter 'q'", 13),
    ("sum[k=0..n] n / q * x^k", "undeclared parameter 'q'", 17),
    ("sum[k=0..n] (2q) * x^k", "undeclared parameter 'q'", 15),
    ("sum[k=0..n] (n - q) * x^k", "undeclared parameter 'q'", 18),
    ("sum[k=0..n] ((-1)^k * q) * x^k", "undeclared parameter 'q'", 23),
    ("sum[k=0..nr] 1 * x^k", "undeclared parameter 'nr'", 10),
    ("sum[k=0..min(n, 2m)] 1 * x^k", "undeclared parameter 'm'", 18),
    ("sum[k=0..floor((n + q)/2)] 1 * x^k", "undeclared parameter 'q'", 21),
    ("sum[k=0..n] 1 * x^k0", "undeclared parameter 'k0'", 19),
    ("sum[k=0..n] 1 * x^k * (1-x)^(n - q)", "undeclared parameter 'q'", 34),
    ("sum[k=0..k] 1 * x^k", "the summation index k cannot appear in a bound", 10),
    ("sum[k=n - k..n] 1 * x^k", "the summation index k cannot appear in a bound", 11),
    ("sum[k=0..floor(k/2)] 1 * x^k", "the summation index k cannot appear in a bound", 16),
)


class TestNames:
    @pytest.mark.parametrize("left, message, column", NAME_ERRORS)
    def test_an_undeclared_name_or_k_in_a_bound_is_an_error_at_that_name(self, left, message, column):
        with pytest.raises(DslSyntaxError) as info:
            parse_identity(f"params n:nat;\n{left} == sum[k=0..0] 1 * x^0\n")
        assert (info.value.message, info.value.line, info.value.column) == (message, 2, column)

    def test_declared_names_parse_in_every_position(self):
        source = "params n:nat, q:rat;\nsum[k=0..min(n, q)] (n - q) * n / q * x^(n - q) == sum[k=0..q] q * x^k\n"
        desc = parse_identity(source)
        assert desc.left.blocks[0].hi == Bound(Affine.var("n"), cap=Affine.var("q"))
        assert parse_identity(print_identity(desc)) == desc


class TestRoundTrip:
    def test_fixture_descriptors(self):
        for name in ("F01", "F02", "F03", "F04", "F05"):
            desc = get_entry(name).descriptor
            assert parse_identity(print_identity(desc)) == desc, name

    def test_whole_catalog_exports_and_reparses(self):
        ids = entry_ids()
        assert len(ids) == 49
        for entry_id in ids:
            entry = get_entry(entry_id)
            assert parse_identity(entry_to_dsl(entry)) == entry.descriptor, entry_id

    def test_floor_bound_with_offset(self):
        desc = get_entry("C35").descriptor
        text = print_identity(desc)
        assert "floor((n + 1)/2)" in text
        assert parse_identity(text) == desc

    def test_floor_bounds_parse_as_before(self):
        n = Affine.var("n")
        for source, base in (("n", n), ("2n", 2 * n), ("(2n)", 2 * n), ("(n + 1)", n + 1)):
            desc = parse_identity(
                f"params n:nat;\nsum[k=0..floor({source}/2)] 1 * x^0 == sum[k=0..0] 1 * x^0\n"
            )
            assert desc.left.blocks[0].hi == Bound(base, half=True), source

    def test_print_normalized_source_is_stable(self):
        for name in ("F01", "F02", "F03", "F04", "F05"):
            text = print_identity(get_entry(name).descriptor)
            assert print_identity(parse_identity(text)) == text
