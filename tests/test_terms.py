"""Summand expression evaluation: the reference interpreter and the generated check."""

import dis
import functools
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from combident.affine import Affine, Bound
from combident.catalog import entry_ids, get_entry
from combident.descriptors import check_sorts
from combident.errors import PoleError, PreconditionError, UnboundParameterError
from combident.exact import binom_int, binom_rational
from combident.terms import (
    Binom,
    _binom_pair,
    _ibinom_pair,
    af,
    altpowsum,
    _forms,
    binom,
    compile_check,
    const,
    evaluate,
    evaluate_sum,
    exact_env,
    ibinom,
    power,
    prod,
    quot,
    sign,
    substitute_index,
)

K = Affine.var("k")
J = Affine.var("j")  # a declared stand-in for the index k in a bound
N = Affine.var("n")
R = Affine.var("r")
S = Affine.var("s")


def env(**values):
    return {name: Fraction(v) for name, v in values.items()}


def names(*forms) -> list[str]:
    """The names of ``forms`` but k, each once, in the order they first appear."""
    return list(dict.fromkeys(name for form in forms for name, _ in form.coeffs if name != "k"))


def _one_block_check(lo, hi, term):
    """The declared parameters and a generated check whose left side is ``sum[k=lo..hi] term`` and whose right side is empty.

    It declares the bounds' names and then the term's, in the order
    :func:`evaluate` looks them up, all ``rat``: any of them may be rational.
    """
    bounds = [f for b in (lo, hi) for f in (b.base, b.cap) if f is not None]
    params = tuple((name, "rat") for name in names(*bounds, *_forms(term)))
    return params, compile_check(params, (), ((lo, hi, term, None),), (), "<one-block check>", kernel_free=True)


@functools.cache
def _one_term_check(term):
    """``term`` as the left side of a check of one block ``j..j``; j is bound to the binding's k."""
    return _one_block_check(Bound(J), Bound(J), term)


def left_pair(compiled, binding) -> tuple[int, int]:
    """The ``(num, den)`` of the left side of a :func:`_one_block_check` at ``binding``.

    The check is called as :func:`descriptors.check_two_sided` calls one:
    :func:`check_sorts` first, which raises :class:`UnboundParameterError`
    for the first declared name that ``binding`` lacks, then the exact
    values in sorted-name order.
    """
    params, check = compiled
    values = exact_env(binding)
    assert check_sorts(params, values) is None  # every name is rat
    return check(*[values[name] for name, _ in sorted(params)])[0]


def term_pair(term, binding) -> tuple[int, int]:
    """The ``(num, den)`` of ``term`` at ``binding`` (k included) from its one-term check."""
    return left_pair(_one_term_check(term), {**binding, "j": binding["k"]})


def compiled(term, binding) -> Fraction:
    """``term`` at ``binding`` through the generated code that checks every identity."""
    return Fraction(*term_pair(term, binding))


def agrees_everywhere(expected, term, binding):
    """The reference and a generated check both give ``expected``."""
    assert evaluate(term, binding) == compiled(term, binding) == expected


def raises_everywhere(exc, message, term, binding):
    """The reference and a generated check both raise ``exc`` with exactly ``message``."""
    for value in (evaluate, compiled):
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            value(term, binding)


def unbound_everywhere(name, compute, pair, binding):
    """``compute(binding)`` and the generated ``pair(binding)`` both report ``name`` as the unbound parameter."""
    for run in (lambda: compute(binding), lambda: pair(binding)):
        with pytest.raises(UnboundParameterError) as info:
            run()
        assert info.value.args == (name,)


class TestEvaluate:
    def test_frisch_summand(self):
        # (-1)^k C(n,k) binom(k+r,s)^-1 at k=1, n=1, r=1, s=1
        term = prod(sign(K), binom(N, K), ibinom(K + R, S))
        agrees_everywhere(Fraction(-1, 2), term, env(k=1, n=1, r=1, s=1))

    def test_constant(self):
        agrees_everywhere(1, const(1), env(k=17))

    def test_pole_propagates(self):
        term = prod(af(N), ibinom(Affine.of(1), Affine.of(2)))
        raises_everywhere(PoleError, "binom(1, 2) = 0 has no reciprocal", term, env(k=0, n=3))

    def test_rational_upper_index(self):
        term = binom(K + R, S)
        agrees_everywhere(Fraction(15, 8), term, env(k=1, r=Fraction(3, 2), s=2))

    def test_non_integer_lower_rejected(self):
        message = "lower index k + r must be an integer, got 1/2"
        raises_everywhere(PreconditionError, message, binom(N, K + R), env(k=0, n=4, r=Fraction(1, 2)))

    def test_negative_lower_on_counting_upper_is_zero(self):
        agrees_everywhere(0, binom(N, K - 2), env(k=0, n=3))

    def test_negative_lower_on_rational_upper_rejected(self):
        message = "binomial with upper index 1/2 is undefined at negative lower index -2"
        raises_everywhere(PreconditionError, message, binom(R, K - 2), env(k=0, r=Fraction(1, 2)))

    def test_rational_r_at_a_lower_index_keeps_its_message(self):
        message = "lower index k + r must be an integer, got 7/2"
        raises_everywhere(PreconditionError, message, binom(N, K + R), env(k=0, n=4, r=Fraction(7, 2)))

    def test_each_check_names_its_site(self):
        # at k = 1, n = 3, s = 1/2 each term fails one check
        cases = [
            (binom(N, K + S), "lower index k + s must be an integer, got 3/2"),
            (sign(K + S), "sign exponent k + s must be an integer, got 3/2"),
            (power(N, K + S), "exponent k + s must be an integer, got 3/2"),
            (altpowsum(K + S, 0, 1), "count k + s must be an integer, got 3/2"),
            (altpowsum(N, 0, K + S), "power k + s must be an integer, got 3/2"),
            (altpowsum(K - 2, 0, 1), "negative count -1 in alternating power sum"),
            (altpowsum(N, 0, K - 2), "negative power -1 in alternating power sum"),
            (binom(S, K - 2), "binomial with upper index 1/2 is undefined at negative lower index -1"),
            (binom(N - 5, K - 2), "binomial with upper index -2 is undefined at negative lower index -1"),
        ]
        for term, message in cases:
            raises_everywhere(PreconditionError, message, term, env(k=1, n=3, s=Fraction(1, 2)))

    def test_negative_integer_upper_index_matches_product_formula(self):
        # the generated check takes _binom_int's upper negation here, the
        # reference the product formula
        for u in range(-6, 0):
            for j in range(7):
                agrees_everywhere(binom_rational(u, j), binom(Affine.of(u), Affine.of(j)), env(k=0))

    def test_unbound_parameter(self):
        term = af(R)
        unbound_everywhere("r", functools.partial(evaluate, term), functools.partial(term_pair, term), env(k=0))

    def test_unbound_parameter_is_reported_first(self):
        # s = 1/2 fails the first factor's lower index, but the missing r
        # comes first; of two missing names, the first one read (a quotient
        # reads its denominator first) is named
        term = prod(binom(N, K + S), af(R))
        unbound_everywhere("r", functools.partial(evaluate, term), functools.partial(term_pair, term), env(k=0, n=4, s=Fraction(1, 2)))
        term = prod(binom(N, K + S), quot(R, N - Affine.var("m")))
        unbound_everywhere("m", functools.partial(evaluate, term), functools.partial(term_pair, term), env(k=0, n=4, s=Fraction(1, 2)))

    def test_quotient_pole(self):
        raises_everywhere(PoleError, "denominator s - 1 vanishes", quot(S, S - 1), env(k=0, s=1))

    def test_power_zero_base(self):
        agrees_everywhere(1, power(K, Affine.var("m")), env(k=0, m=0))

    def test_altpowsum_truncates(self):
        # count > power makes the sum vanish
        for u in range(1, 6):
            for m in range(u):
                agrees_everywhere(0, altpowsum(Affine.of(u), 0, m), env(k=0))


SUMMANDS = [
    block.coef
    for desc in [get_entry(i).descriptor for i in entry_ids()]
    for side in (desc.left, desc.right)
    for block in side.blocks
]

values = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(7, 2), Fraction(5, 3)]),
)


def _outcome(compute):
    """A value, or the type and message of the exception raised instead."""
    try:
        return compute()
    except (PoleError, PreconditionError) as exc:
        return type(exc), str(exc)


class TestCompiledAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SUMMANDS), st.data())
    def test_catalog_summands_agree(self, term, data):
        binding = {name: Fraction(data.draw(values, label=name)) for name in sorted(names(*_forms(term)))}
        binding["k"] = Fraction(data.draw(st.integers(0, 12), label="k"))
        reference = _outcome(lambda: evaluate(term, binding))
        # the check itself returns an (int, int) pair with den > 0: Fraction
        # would also accept a float or a stray sign
        raw = _outcome(lambda: term_pair(term, binding))
        if isinstance(reference, tuple):
            assert raw == reference
        else:
            assert type(raw) is tuple and len(raw) == 2
            num, den = raw
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == reference


class TestIntegerNumerators:
    """Parameters over different denominators are numerators over their lcm D."""

    def test_catalog_summands_at_two_denominators(self):
        # every pair of names gets denominators 2 and 3 somewhere (D = 6)
        choices = (Fraction(7, 2), Fraction(5, 3), 3)
        mixed = 0
        for term in SUMMANDS:
            declared = sorted(names(*_forms(term)))
            for values in itertools.product(choices, repeat=len(declared)):
                for k in (0, 2):
                    binding = {"k": k, **dict(zip(declared, values))}
                    reference = _outcome(lambda: evaluate(term, binding))
                    assert _outcome(lambda: compiled(term, binding)) == reference, (term, binding)
                    if not isinstance(reference, tuple):
                        mixed += {2, 3} <= {Fraction(v).denominator for v in values}
        assert mixed > 100

    def test_a_lone_rational_name_is_its_own_numerator(self):
        # r is the only name of C03 over a denominator, so D is r's
        # denominator and r over D is r's numerator: one read, no scaling
        desc = get_entry("C03").descriptor
        check = desc.check()
        assert [i.argval for i in dis.get_instructions(check)].count("denominator") == 1
        for r in (Fraction(7, 2), Fraction(-5, 3), 3):
            for n, s in ((4, 2), (6, 3)):
                b = {"n": n, "r": r, "s": s}
                for pair, side in zip(check(*[exact_env(b)[name] for name in desc.names]), (desc.left, desc.right)):
                    block, = side.blocks
                    assert Fraction(*pair) == evaluate_sum(block.lo, block.hi, block.coef, b), b

    def test_one_pair_call_per_non_counting_binomial(self):
        # C05's counting binomials are its two binom(n, k); each other one,
        # over a rat upper index or inverted, is one memoized call and no divmod
        desc = get_entry("C05").descriptor
        rats = {name for name, sort in desc.params if sort == "rat"}
        binoms = [t for side in (desc.left, desc.right) for b in side.blocks for t in b.coef.factors if isinstance(t, Binom)]
        non_counting = [b for b in binoms if b.inverted or any(name in rats for name, _ in b.upper.coeffs)]
        globals_ = [i.argval for i in dis.get_instructions(desc.check()) if i.opname == "LOAD_GLOBAL"]
        assert len(non_counting) == 4 and len(binoms) == 6
        assert globals_.count("_binom_pair") + globals_.count("_ibinom_pair") == len(non_counting)
        assert globals_.count("_ibinom_pair") == sum(b.inverted for b in binoms)
        assert "divmod" not in globals_
        # C03's binom(n, k) counts over n >= 0 and k >= 0: a bare comb, no fallback
        globals_ = [i.argval for i in dis.get_instructions(get_entry("C03").descriptor.check()) if i.opname == "LOAD_GLOBAL"]
        assert globals_.count("comb") == 1 and "_binom_int" not in globals_

    def test_a_block_computes_a_repeated_value_once(self):
        # F05's left summand is (-1)^k binom(n, k)^3, and C12's holds binom(k + r, s)^-1 twice
        for entry_id, name, left_calls in (("F05", "comb", 1), ("C12", "_ibinom_pair", 1)):
            instructions = list(dis.get_instructions(get_entry(entry_id).descriptor.check()))
            end = next(i for i, ins in enumerate(instructions) if ins.opname == "STORE_FAST" and ins.argval == "lhs")
            left = [ins.argval for ins in instructions[:end] if ins.opname == "LOAD_GLOBAL"]
            assert left.count(name) == left_calls, entry_id

    def test_non_integer_lower_index_over_a_common_denominator(self):
        message = "lower index k + s must be an integer, got 8/3"
        term = binom(N + R, K + S)
        raises_everywhere(PreconditionError, message, term, env(k=1, n=4, r=Fraction(7, 2), s=Fraction(5, 3)))

    def test_vanishing_quotient_denominator(self):
        term = quot(S, R - S)
        raises_everywhere(PoleError, "denominator r - s vanishes", term, env(k=0, r=Fraction(5, 3), s=Fraction(5, 3)))

    def test_zero_inverse_binomial_with_a_rational_upper_index(self):
        # r + s = 1/2 + 3/2 is the integer 2, and binom(2, 3) = 0
        term = ibinom(R + S, Affine.of(3))
        raises_everywhere(PoleError, "binom(2, 3) = 0 has no reciprocal", term, env(k=0, r=Fraction(1, 2), s=Fraction(3, 2)))

    def test_negative_power(self):
        raises_everywhere(PreconditionError, "negative power -2 in term", power(R, K - 2), env(k=0, r=Fraction(7, 2)))

    def test_rational_affine_constant(self):
        # (k + 7/2) * binom(r + 1/3, 2) at r = 5/2: D = 6 covers the constants too
        term = prod(af(K + Affine.of(Fraction(7, 2))), binom(R + Affine.of(Fraction(1, 3)), Affine.of(2)))
        expected = Fraction(9, 2) * binom_rational(Fraction(17, 6), 2)
        agrees_everywhere(expected, term, env(k=1, r=Fraction(5, 2)))


def summed(lo, hi, term, binding):
    """``sum[k=lo..hi] term`` at ``binding``, the reference checked against a generated check."""
    value = evaluate_sum(lo, hi, term, binding)
    assert Fraction(*left_pair(_one_block_check(lo, hi, term), binding)) == value
    return value


class TestMemoizedBinomials:
    """``_binom_pair`` and ``_ibinom_pair`` against :func:`evaluate` of ``binom(u, j)`` and its reciprocal."""

    @staticmethod
    def agree(num, den, j):
        u = Affine.var("u")
        binding = {"u": Fraction(num, den)}
        for pair, inverted in ((_binom_pair, False), (_ibinom_pair, True)):
            expected = _outcome(lambda: evaluate(Binom(u, Affine.of(j), inverted), binding))
            got = _outcome(lambda: pair(num, den, j))
            if isinstance(expected, Fraction):
                assert type(got[0]) is int and type(got[1]) is int and got[1] > 0
                assert Fraction(*got) == expected, (num, den, j, inverted)
                continue
            assert got == expected, (num, den, j, inverted)
            # a call that raises is not cached: it raises again, and is no hit
            hits = pair.cache_info().hits
            assert _outcome(lambda: pair(num, den, j)) == expected
            assert pair.cache_info().hits == hits

    @pytest.mark.parametrize("num, den", [(6, 2), (7, 2), (-9, 3), (-7, 2), (0, 5), (4, 2), (-1, 1)])
    @pytest.mark.parametrize("j", [-2, -1, 0, 1, 2, 3, 4])
    def test_unreduced_denominators_negative_indices_and_zeros(self, num, den, j):
        self.agree(num, den, j)

    @given(st.integers(-12, 12), st.integers(1, 6), st.integers(-3, 7))
    @settings(max_examples=300, deadline=None)
    def test_any_upper_index(self, num, den, j):
        self.agree(num, den, j)

    def test_an_inverted_miss_is_stored_in_its_own_cache_only(self):
        # upper indices no other test asks for, so each call below is a miss
        before, inverted = _binom_pair.cache_info(), _ibinom_pair.cache_info()
        for num in range(1_000_003, 1_000_013):
            assert Fraction(*_ibinom_pair(num, 7, 3)) == 1 / binom_rational(Fraction(num, 7), 3)
        after = _ibinom_pair.cache_info()
        assert (after.misses, after.currsize) == (inverted.misses + 10, inverted.currsize + 10)
        assert _binom_pair.cache_info() == before


class TestSums:
    def test_geometric_left_side(self):
        assert summed(Bound.of(0), Bound(N), af(K + 1), env(n=3)) == 1 + 2 + 3 + 4

    def test_negative_lower_bound_clamps(self):
        assert summed(Bound(N - 2), Bound(N), const(1), env(n=0)) == 1

    def test_capped_bound(self):
        assert summed(Bound.of(0), Bound(Affine.var("m"), cap=N), const(1), env(n=2, m=5)) == 3

    def test_half_bound(self):
        assert summed(Bound.of(0), Bound(N, half=True), const(1), env(n=5)) == 3

    def test_unbound_summand_parameter_over_an_empty_range(self):
        lo, hi, term = Bound.of(0), Bound(N), af(R)
        compute = functools.partial(evaluate_sum, lo, hi, term)
        unbound_everywhere("r", compute, functools.partial(left_pair, _one_block_check(lo, hi, term)), env(n=-1))


class TestFrischForEveryR:
    def test_frisch_identity_for_every_r(self):
        # sum[k=0..n] (-1)^k C(n,k) / C(k+r,s) == s/(n+s) / C(n+r,n+s).  With
        # Q(r) = prod(r + i, i = 1-s..n), the denominator of each inverse
        # binomial divides Q, so Q times either side is a polynomial in r of
        # degree at most n+s.  Agreement at n+s+1 distinct r with Q(r) != 0
        # makes the two polynomials equal: the identity holds at every r
        # off the poles, for each n and s below.
        lhs_term = prod(sign(K), binom(N, K), ibinom(K + R, S))
        rhs_term = prod(quot(S, N + S), ibinom(N + R, N + S))
        for n in range(5):
            for s in (1, 2, 3):
                for r in (Fraction(2 * i + 1, 2) for i in range(n + s + 1)):
                    assert math.prod(r + i for i in range(1 - s, n + 1)) != 0
                    binding = env(n=n, r=r, s=s)
                    lhs = evaluate_sum(Bound.of(0), Bound(N), lhs_term, binding)
                    assert lhs == evaluate(rhs_term, {**binding, "k": 0}), (n, s, r)


class TestStructure:
    def test_substitute_index(self):
        term = prod(sign(K), binom(N, K))
        reflected = substitute_index(term, N - K)
        for n in range(5):
            for k in range(n + 1):
                a = evaluate(reflected, env(k=k, n=n))
                b = evaluate(term, env(k=n - k, n=n))
                assert a == b
