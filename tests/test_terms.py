"""Summand expression evaluation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from combident.affine import Affine, Bound
from combident.catalog import FIXTURES, entry_ids, get_entry
from combident.errors import PoleError, PreconditionError, UnboundParameterError
from combident.exact import binom_int, binom_rational
from combident.poly import Polynomial, RationalFunction, rf_equal
from combident.terms import (
    af,
    altpowsum,
    binom,
    collect_names,
    compile_term,
    const,
    evaluate,
    evaluate_sum,
    evaluate_symbolic,
    exact_env,
    ibinom,
    power,
    prod,
    quot,
    sign,
    substitute_index,
)

K = Affine.var("k")
N = Affine.var("n")
R = Affine.var("r")
S = Affine.var("s")


def env(**values):
    return {name: Fraction(v) for name, v in values.items()}


class TestEvaluate:
    def test_frisch_summand(self):
        # (-1)^k C(n,k) binom(k+r,s)^-1 at k=1, n=1, r=1, s=1
        term = prod(sign(K), binom(N, K), ibinom(K + R, S))
        assert evaluate(term, env(k=1, n=1, r=1, s=1)) == Fraction(-1, 2)

    def test_constant(self):
        assert evaluate(const(1), env(k=17)) == 1

    def test_pole_propagates(self):
        term = prod(af(N), ibinom(Affine.of(1), Affine.of(2)))
        with pytest.raises(PoleError):
            evaluate(term, env(k=0, n=3))

    def test_rational_upper_index(self):
        term = binom(K + R, S)
        assert evaluate(term, env(k=1, r=Fraction(3, 2), s=2)) == Fraction(15, 8)

    def test_non_integer_lower_rejected(self):
        term = binom(N, K + R)
        with pytest.raises(PreconditionError):
            evaluate(term, env(k=0, n=4, r=Fraction(1, 2)))

    def test_negative_lower_on_counting_upper_is_zero(self):
        assert evaluate(binom(N, K - 2), env(k=0, n=3)) == 0

    def test_negative_lower_on_rational_upper_rejected(self):
        with pytest.raises(PreconditionError):
            evaluate(binom(R, K - 2), env(k=0, r=Fraction(1, 2)))

    def test_rational_r_at_a_lower_index_keeps_its_message(self):
        message = r"^lower index k \+ r must be an integer, got 7/2$"
        with pytest.raises(PreconditionError, match=message):
            evaluate(binom(N, K + R), env(k=0, n=4, r=Fraction(7, 2)))

    def test_negative_integer_upper_index_matches_product_formula(self):
        for u in range(-6, 0):
            for j in range(7):
                assert evaluate(binom(Affine.of(u), Affine.of(j)), env()) == binom_rational(u, j)

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            evaluate(af(R), env(k=0))

    def test_quotient_pole(self):
        with pytest.raises(PoleError):
            evaluate(quot(S, S - 1), env(k=0, s=1))

    def test_power_zero_base(self):
        assert evaluate(power(K, Affine.var("m")), env(k=0, m=0)) == 1

    def test_altpowsum_truncates(self):
        # count > power makes the sum vanish
        for u in range(1, 6):
            for m in range(u):
                assert evaluate(altpowsum(Affine.of(u), 0, m), env(k=0)) == 0


SUMMANDS = [
    block.coef
    for desc in [get_entry(i).descriptor for i in entry_ids()] + list(FIXTURES.values())
    for side in (desc.left, desc.right)
    for block in side.blocks
]

values = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(7, 2), Fraction(5, 3)]),
)


def _outcome(compute):
    try:
        return compute()
    except (PoleError, PreconditionError) as exc:
        return type(exc)


class TestCompiledAgainstSymbolic:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SUMMANDS), st.data())
    def test_catalog_summands_agree(self, term, data):
        # the symbolic evaluator with no symbolic names is an independent reference
        names = sorted(collect_names(term) - {"k"})
        binding = {name: Fraction(data.draw(values, label=name)) for name in names}
        binding["k"] = Fraction(data.draw(st.integers(0, 12), label="k"))
        numeric = _outcome(lambda: evaluate(term, binding))
        symbolic = _outcome(lambda: evaluate_symbolic(term, binding, frozenset()))
        if isinstance(symbolic, RationalFunction):
            symbolic = symbolic.numerator.constant_value() / symbolic.denominator.constant_value()
        assert numeric == symbolic
        # the closure itself yields an (int, int) pair with den > 0: evaluate
        # wraps it in a Fraction, which would accept a float or a stray sign
        raw = _outcome(lambda: compile_term(term)(exact_env(binding)))
        if isinstance(symbolic, type):
            assert raw is symbolic
        else:
            assert type(raw) is tuple and len(raw) == 2
            num, den = raw
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == symbolic


class TestIntegerNumerators:
    """Parameters over different denominators are numerators over their lcm D."""

    def test_catalog_summands_at_two_denominators(self):
        # every pair of names gets denominators 2 and 3 somewhere (D = 6); the
        # symbolic evaluator with no symbolic names is the reference
        choices = (Fraction(7, 2), Fraction(5, 3), 3)
        mixed = 0
        for term in SUMMANDS:
            names = sorted(collect_names(term) - {"k"})
            for values in itertools.product(choices, repeat=len(names)):
                for k in (0, 2):
                    binding = {"k": k, **dict(zip(names, values))}
                    numeric = _outcome(lambda: evaluate(term, binding))
                    symbolic = _outcome(lambda: evaluate_symbolic(term, binding, frozenset()))
                    if isinstance(symbolic, RationalFunction):
                        symbolic = symbolic.numerator.constant_value() / symbolic.denominator.constant_value()
                        dens = {Fraction(v).denominator for v in values}
                        mixed += {2, 3} <= dens
                    assert numeric == symbolic, (term, binding)
        assert mixed > 100

    def test_non_integer_lower_index_over_a_common_denominator(self):
        message = r"^lower index k \+ s must be an integer, got 8/3$"
        with pytest.raises(PreconditionError, match=message):
            evaluate(binom(N + R, K + S), env(k=1, n=4, r=Fraction(7, 2), s=Fraction(5, 3)))

    def test_vanishing_quotient_denominator(self):
        with pytest.raises(PoleError, match=r"^denominator r - s vanishes$"):
            evaluate(quot(S, R - S), env(k=0, r=Fraction(5, 3), s=Fraction(5, 3)))

    def test_zero_inverse_binomial_with_a_rational_upper_index(self):
        # r + s = 1/2 + 3/2 is the integer 2, and binom(2, 3) = 0
        with pytest.raises(PoleError, match=r"^binom\(2, 3\) = 0 has no reciprocal$"):
            evaluate(ibinom(R + S, Affine.of(3)), env(k=0, r=Fraction(1, 2), s=Fraction(3, 2)))

    def test_negative_power(self):
        with pytest.raises(PreconditionError, match=r"^negative power -2 in term$"):
            evaluate(power(R, K - 2), env(k=0, r=Fraction(7, 2)))

    def test_rational_affine_constant(self):
        # (k + 7/2) * binom(r + 1/3, 2) at r = 5/2: D = 6 covers the constants too
        term = prod(af(K + Affine.of(Fraction(7, 2))), binom(R + Affine.of(Fraction(1, 3)), Affine.of(2)))
        expected = Fraction(9, 2) * binom_rational(Fraction(17, 6), 2)
        assert evaluate(term, env(k=1, r=Fraction(5, 2))) == expected


class TestSums:
    def test_geometric_left_side(self):
        assert evaluate_sum(Bound.of(0), Bound(N), af(K + 1), env(n=3)) == 1 + 2 + 3 + 4

    def test_negative_lower_bound_clamps(self):
        assert evaluate_sum(Bound(N - 2), Bound(N), const(1), env(n=0)) == 1

    def test_capped_bound(self):
        assert evaluate_sum(Bound.of(0), Bound(Affine.var("m"), cap=N), const(1), env(n=2, m=5)) == 3

    def test_half_bound(self):
        assert evaluate_sum(Bound.of(0), Bound(N, half=True), const(1), env(n=5)) == 3


class TestSymbolic:
    def test_frisch_identity_symbolic_in_r(self):
        # Frisch with r symbolic: both sides equal as rational functions
        lhs_term = prod(sign(K), binom(N, K), ibinom(K + R, S))
        rhs_term = prod(quot(S, N + S), ibinom(N + R, N + S))
        for n in range(5):
            for s in (1, 2, 3):
                binding = env(n=n, s=s)
                lhs = RationalFunction.constant(0)
                for k in range(n + 1):
                    lhs = lhs + evaluate_symbolic(lhs_term, {**binding, "k": Fraction(k)}, frozenset({"r"}))
                rhs = evaluate_symbolic(rhs_term, {**binding, "k": Fraction(0)}, frozenset({"r"}))
                assert rf_equal(lhs, rhs), (n, s)

    def test_inverse_binomial_denominator_degree(self):
        # binom(k+r, s)^-1 contributes a denominator of degree s in r
        value = evaluate_symbolic(ibinom(K + R, S), env(k=2, s=3), frozenset({"r"}))
        assert value.denominator.degree("r") == 3

    def test_symbolic_matches_numeric(self):
        term = prod(sign(K), binom(N, K), ibinom(K + R, S), quot(S, K + S))
        binding = env(k=1, n=3, s=2)
        symbolic = evaluate_symbolic(term, binding, frozenset({"r"}))
        for r in (Fraction(5), Fraction(7, 2)):
            numeric = evaluate(term, {**binding, "r": r})
            num = symbolic.numerator.evaluate({"r": r})
            den = symbolic.denominator.evaluate({"r": r})
            assert num / den == numeric

    def test_symbolic_lower_index_rejected(self):
        with pytest.raises(PreconditionError):
            evaluate_symbolic(binom(N, K + S), env(k=0, n=3), frozenset({"s"}))


class TestStructure:
    def test_substitute_index(self):
        term = prod(sign(K), binom(N, K))
        reflected = substitute_index(term, N - K)
        for n in range(5):
            for k in range(n + 1):
                a = evaluate(reflected, env(k=k, n=n))
                b = evaluate(term, env(k=n - k, n=n))
                assert a == b

    def test_collect_names(self):
        term = prod(sign(K), binom(N, K), ibinom(K + R, S))
        assert collect_names(term) == {"k", "n", "r", "s"}
