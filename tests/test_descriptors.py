"""Two-sided identity checking: sides, statuses, transposition."""

from fractions import Fraction

import pytest

from combident.affine import Affine, Bound
from combident.catalog import FIXTURES, GEOM_SUM, SIMONS, get_entry, verify_entry
from combident.descriptors import (
    SKIPPED_POLE,
    SKIPPED_PRECONDITION,
    VERIFIED,
    IdentityDescriptor,
    KernelBlock,
    Side,
    check_two_sided,
    eval_side,
    eval_side_at,
    side_degree_bound,
    transpose_descriptor,
)
from combident.errors import UnboundParameterError
from combident.poly import Polynomial
from combident.terms import af, binom, const, evaluate_symbolic, ibinom, prod

X = Polynomial.variable("x")


def binding(**values):
    return {name: Fraction(v) for name, v in values.items()}


class TestEvalSide:
    def test_geometric_left(self):
        assert eval_side(GEOM_SUM, "left", binding(n=2)) == 1 + X + X**2

    def test_simons_order_zero(self):
        b = binding(n=0)
        assert eval_side(SIMONS, "left", b) == Polynomial.constant(1)
        assert eval_side(SIMONS, "right", b) == Polynomial.constant(1)

    def test_seed_identity_spot_value(self):
        # left side of the first seed identity at n=1, r=2, s=1 is 1/2 + x/3
        desc = get_entry("C01").descriptor
        left = eval_side(desc, "left", binding(n=1, r=2, s=1))
        assert left == Polynomial.constant(Fraction(1, 2)) + Fraction(1, 3) * X
        right = eval_side(desc, "right", binding(n=1, r=2, s=1))
        assert right.substitute("x", 0) == Polynomial.constant(Fraction(1, 2))

    def test_degree_bound(self):
        for name, desc in FIXTURES.items():
            for n in range(1, 7):
                b = binding(n=n) if name != "F03" else binding(n=n, u=3)
                for side in ("left", "right"):
                    degree = eval_side(desc, side, b).degree("x")
                    assert degree <= side_degree_bound(desc, side, b), (name, side, n)

    def test_kernel_free_side_is_a_rational(self):
        # a summation entry never builds a polynomial; its value is the
        # reference summation at any x
        desc = get_entry("C03").descriptor
        b = binding(n=4, r=Fraction(8, 3), s=2)
        for side in ("left", "right"):
            value = eval_side(desc, side, b)
            assert isinstance(value, Fraction)
            for x0 in (0, 1, Fraction(-1, 2)):
                assert value == eval_side_at(desc, side, b, x0)

    def test_numeric_matches_polynomial(self):
        probe = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2)]
        desc = get_entry("C01").descriptor
        b = binding(n=3, r=Fraction(7, 2), s=2)
        for side in ("left", "right"):
            p = eval_side(desc, side, b)
            for x0 in probe:
                assert p.evaluate({"x": x0}) == eval_side_at(desc, side, b, x0)

    def test_dense_kernel_expansion_matches_polynomial_product(self):
        # the right side's x kernel keeps the descriptor polynomial at a = b = c = 0
        right = Side((KernelBlock(Bound.of(0), Bound.of(0), const(1), Affine.of(1)),))
        for a in range(5):
            for b in range(6):
                for c in range(6):
                    block = KernelBlock(
                        Bound.of(0), Bound.of(0), const(3, 2),
                        Affine.of(a), Affine.of(b), Affine.of(c),
                    )
                    desc = IdentityDescriptor((), Side((block,)), right)
                    expected = Fraction(3, 2) * X**a * (1 - X) ** b * (1 + X) ** c
                    assert eval_side(desc, "left", {}) == expected, (a, b, c)


def _one_sided(params, coef) -> IdentityDescriptor:
    """``sum[k=0..n] coef == 0`` without kernels."""
    block = KernelBlock(Bound.of(0), Bound(Affine.var("n")), coef)
    zero = KernelBlock(Bound.of(0), Bound.of(0), const(0))
    return IdentityDescriptor(params, Side((block,)), Side((zero,)))


class TestCheckTwoSided:
    def test_undeclared_parameter_skips(self):
        coef = prod(binom(Affine.var("n"), Affine.var("k")), af(Affine.var("q")))
        desc = _one_sided((("n", "nat"),), coef)
        with pytest.raises(UnboundParameterError):
            eval_side(desc, "left", binding(n=2))
        result = check_two_sided(desc, binding(n=2))
        assert result.status == SKIPPED_PRECONDITION
        assert result.witness == "'q'"

    def test_rational_r_at_a_lower_index_skips(self):
        k, r = Affine.var("k"), Affine.var("r")
        desc = _one_sided((("n", "nat"), ("r", "rat")), binom(Affine.var("n") + r, k + r))
        result = check_two_sided(desc, binding(n=2, r=Fraction(7, 2)))
        assert result.status == SKIPPED_PRECONDITION
        assert result.witness == "lower index k + r must be an integer, got 7/2"

    def test_fixtures_verify(self):
        for name, desc in FIXTURES.items():
            for n in range(0 if name != "F04" else 1, 9):
                b = binding(n=n) if name != "F03" else binding(n=n, u=Fraction(7, 3))
                assert check_two_sided(desc, b).status == VERIFIED, (name, n)

    def test_pole_binding_skips(self):
        desc = get_entry("C01").descriptor
        # integer r < s puts a zero under an inverse binomial
        result = check_two_sided(desc, binding(n=2, r=1, s=3))
        assert result.status == SKIPPED_POLE

    def test_sort_violation_skips(self):
        desc = get_entry("C01").descriptor
        result = check_two_sided(desc, binding(n=2, r=2, s=Fraction(1, 2)))
        assert result.status == SKIPPED_PRECONDITION

    def test_zero_factor_before_a_pole_still_skips(self):
        # binom(n, k+1) is 0 at k = n, and so is the inverse binomial after it:
        # the product must not stop at the zero factor
        n, k = Affine.var("n"), Affine.var("k")
        desc = _one_sided((("n", "nat"),), prod(binom(n, k + 1), ibinom(n, k + 1)))
        for value in range(4):
            result = check_two_sided(desc, binding(n=value))
            assert result.status == SKIPPED_POLE
            assert result.witness == f"binom({value}, {value + 1}) = 0 has no reciprocal"

    def test_side_with_many_denominators_is_exact(self):
        # C03 at n = 60, r = 7/2: 61 terms with distinct inverse-binomial denominators
        desc = get_entry("C03").descriptor
        b = binding(n=60, r=Fraction(7, 2), s=3)
        block = desc.left.blocks[0]
        reference = Fraction(0)
        for k in range(61):
            value = evaluate_symbolic(block.coef, {**b, "k": Fraction(k)}, frozenset())
            reference += value.numerator.constant_value() / value.denominator.constant_value()
        left = eval_side(desc, "left", b)
        assert type(left) is Fraction and left == reference
        assert reference.denominator > 10**20
        result = check_two_sided(desc, b, get_entry("C03").validity)
        assert result.status == VERIFIED and result.lhs == result.rhs == reference

    def test_bindings_of_ints_fractions_and_strings_agree(self):
        as_fractions = verify_entry("C03", binding(n=4, r=Fraction(7, 2), s=2))
        as_ints = verify_entry("C03", {"n": 4, "r": Fraction(7, 2), "s": 2})
        as_strings = verify_entry("C03", {"n": "4", "r": "7/2", "s": "2"})
        for result in (as_ints, as_strings):
            assert result.status == as_fractions.status == VERIFIED
            assert result.binding == as_fractions.binding
            assert result.lhs == as_fractions.lhs and type(result.lhs) is Fraction

    def test_transposition_preserves_status(self):
        cases = [
            (GEOM_SUM, [binding(n=n) for n in range(7)]),
            (SIMONS, [binding(n=n) for n in range(7)]),
            (
                get_entry("F03").descriptor,
                [binding(n=n, u=u) for n in range(5) for u in (0, 2, Fraction(7, 3))],
            ),
        ]
        for desc, bindings in cases:
            flipped = transpose_descriptor(desc)
            for b in bindings:
                assert check_two_sided(desc, b).status == check_two_sided(flipped, b).status

    def test_transposition_is_involution(self):
        assert transpose_descriptor(transpose_descriptor(SIMONS)) == SIMONS
