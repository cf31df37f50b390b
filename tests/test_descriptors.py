"""Two-sided identity checking: sides, statuses, transposition."""

from fractions import Fraction

import pytest

from combident import terms
from combident.affine import Affine, Bound
from combident.catalog import (
    entry_ids,
    get_entry,
    macmahon_doubled,
    sorted_bindings,
    verify_entry,
)
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
    transpose_descriptor,
)
from combident.errors import UnboundParameterError
from combident.poly import Polynomial
from combident.terms import af, binom, compile_side, const, evaluate_sum, exact_env, ibinom, prod
from combident.transforms import check_derived, frisch_transform, klamkin_transform, moment_transform

X = Polynomial.variable("x")


def binding(**values):
    return {name: Fraction(v) for name, v in values.items()}


class TestEvalSide:
    def test_geometric_left(self):
        assert eval_side(get_entry("F01").descriptor, "left", binding(n=2)) == 1 + X + X**2

    def test_simons_order_zero(self):
        b = binding(n=0)
        assert eval_side(get_entry("F02").descriptor, "left", b) == Polynomial.constant(1)
        assert eval_side(get_entry("F02").descriptor, "right", b) == Polynomial.constant(1)

    def test_seed_identity_spot_value(self):
        # left side of the first seed identity at n=1, r=2, s=1 is 1/2 + x/3
        desc = get_entry("C01").descriptor
        left = eval_side(desc, "left", binding(n=1, r=2, s=1))
        assert left == Polynomial.constant(Fraction(1, 2)) + Fraction(1, 3) * X
        right = eval_side(desc, "right", binding(n=1, r=2, s=1))
        assert right.substitute("x", 0) == Polynomial.constant(Fraction(1, 2))

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

    def test_kernel_sides_at_rational_bindings_match_direct_summation(self):
        # the dense expansion in ints over one common denominator against the
        # direct Fraction summation at x0, which shares no code with it
        probe = [Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
        rationals = (Fraction(7, 2), Fraction(5, 3), Fraction(-7, 6))
        cases = [
            ("C01", [binding(n=n, r=r, s=s) for n in range(5) for r in rationals for s in (1, 2)]),
            ("F03", [binding(n=n, u=u) for n in range(6) for u in rationals]),
        ]
        fractional = 0
        for entry_id, bindings in cases:
            desc = get_entry(entry_id).descriptor
            for b in bindings:
                for side in ("left", "right"):
                    p = eval_side(desc, side, b)
                    fractional += any(c.denominator > 1 for _, c in p.terms)
                    for x0 in probe:
                        assert p.evaluate({"x": x0}) == eval_side_at(desc, side, b, x0), (entry_id, b)
        assert fractional > 50

    def test_derived_side_with_a_rational_affine_constant(self):
        # r pinned to 7/2 leaves the constant 7/2 in the derived forms; with
        # u = 5/3 the common denominator is 6
        derived = frisch_transform(get_entry("F03").descriptor, r=Fraction(7, 2))
        desc = derived.to_descriptor()
        for n in range(4):
            for s in (1, 2, 3):
                b = binding(n=n, s=s, u=Fraction(5, 3))
                assert check_derived(derived, b).status == VERIFIED
                for side in ("left", "right"):
                    assert eval_side(desc, side, b) == _reference_sum(desc, side, b)


def _reference_sum(desc: IdentityDescriptor, side: str, b) -> Fraction:
    """A kernel-free side summed by the reference interpreter, term by term."""
    blocks = (desc.left if side == "left" else desc.right).blocks
    return sum((evaluate_sum(block.lo, block.hi, block.coef, b) for block in blocks), Fraction(0))


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

    def test_non_integer_kernel_exponent_skips(self):
        k, r = Affine.var("k"), Affine.var("r")
        block = KernelBlock(Bound.of(0), Bound(Affine.var("n")), const(1), x_exp=k + r)
        zero = KernelBlock(Bound.of(0), Bound.of(0), const(0))
        desc = IdentityDescriptor((("n", "nat"), ("r", "rat")), Side((block,)), Side((zero,)))
        result = check_two_sided(desc, binding(n=2, r=Fraction(1, 2)))
        assert result.status == SKIPPED_PRECONDITION
        assert result.witness == "x exponent k + r is not an integer"

    def test_non_integral_bound_raises(self):
        desc = get_entry("C03").descriptor
        with pytest.raises(ValueError, match=r"^bound n is not an integer at this binding$"):
            eval_side(desc, "left", binding(n=Fraction(7, 2), r=2, s=1))

    def test_fixtures_verify(self):
        for name in ("F01", "F02", "F03", "F04", "F05"):
            desc = get_entry(name).descriptor
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
        reference = evaluate_sum(block.lo, block.hi, block.coef, b)
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
            (get_entry("F01").descriptor, [binding(n=n) for n in range(7)]),
            (get_entry("F02").descriptor, [binding(n=n) for n in range(7)]),
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
        simons = get_entry("F02").descriptor
        assert transpose_descriptor(transpose_descriptor(simons)) == simons


def _pinned_derivations():
    """The 12 derivations pinned by their catalog matches: (descriptor, matched entry)."""
    doubled = macmahon_doubled()
    gould, simons = get_entry("F03").descriptor, get_entry("F02").descriptor
    derived = [
        (frisch_transform(gould), "C05"),
        (frisch_transform(gould, direction="transposed"), "C06"),
        (klamkin_transform(gould), "C18"),
        (klamkin_transform(gould, direction="transposed"), "C19"),
        (moment_transform(doubled, 1), "C33"),
        (moment_transform(doubled, 2), "C34"),
    ]
    for m, suffix in ((1, "a"), (2, "b"), (3, "c")):
        derived.append((moment_transform(simons, m), f"C39{suffix}"))
        derived.append((moment_transform(simons, m, variant="reflected"), f"C40{suffix}"))
    return [(d.descriptor, entry_id) for d, entry_id in derived]


def _specialization_cases():
    """(descriptor, default grid) of every catalog entry and pinned derivation."""
    cases = [(get_entry(i).descriptor, get_entry(i).default_grid) for i in entry_ids()]
    cases += [(desc, get_entry(entry_id).default_grid) for desc, entry_id in _pinned_derivations()]
    return cases


# values no binding that passes check_sorts can give: n and s are nat or int wherever declared
_SORT_VIOLATIONS = (("n", Fraction(7, 2)), ("n", Fraction(-1)), ("s", Fraction(1, 2)))


def _general(desc: IdentityDescriptor, side: str):
    blocks = (desc.left if side == "left" else desc.right).blocks
    return compile_side(
        tuple((b.lo, b.hi, b.coef, (b.x_exp, b.one_minus_exp, b.one_plus_exp)) for b in blocks),
        kernel_free=desc.kernel_free,
        integral=frozenset(),
    )


def _outcome(function, env, kernel_free: bool):
    """A side's value (its pair, or its yielded terms, as Fractions) or its exception's type and message."""
    try:
        result = function(env)
        terms_ = [(result,)] if kernel_free else list(result)
    except (ArithmeticError, LookupError, ValueError) as exc:
        return type(exc), str(exc)
    for (num, den), *_ in terms_:
        assert type(num) is int and type(den) is int and den > 0
    return [(Fraction(num, den), *exponents) for (num, den), *exponents in terms_]


class TestIntegralSpecialization:
    """Side functions specialized on ``nat``/``int`` names agree with the general ones."""

    def test_specialized_and_general_sides_agree(self):
        compared = violations = 0
        for desc, grid in _specialization_cases():
            declared = {name for name, _ in desc.params}
            bindings = [{}] + list(sorted_bindings(grid))  # {}: the first name read is unbound
            for name, value in _SORT_VIOLATIONS:
                if name in declared:
                    bindings += sorted_bindings({**grid, name: (value,)})
                    violations += 1
            for side in ("left", "right"):
                specialized, general = desc.compiled[side], _general(desc, side)
                for b in bindings:
                    env = exact_env(b)
                    expected = _outcome(general, env, desc.kernel_free)
                    assert _outcome(specialized, env, desc.kernel_free) == expected, (desc.name, side, b)
                    compared += 1
        assert violations > 150 and compared > 28000

    def test_default_grids_never_compile_a_general_function(self, monkeypatch):
        # a general function is compiled through the module's compile_side
        # (descriptors call their own import of it), so this counts only those
        compiled = []
        real = terms.compile_side
        monkeypatch.setattr(terms, "compile_side", lambda *args: compiled.append(args) or real(*args))
        for desc, grid in _specialization_cases():
            fresh = IdentityDescriptor(desc.params, desc.left, desc.right, name=desc.name)
            for b in sorted_bindings(grid):
                check_two_sided(fresh, b)
        assert compiled == []
        # the first sort-violating call compiles the general function, and later ones reuse it
        gould = get_entry("F03").descriptor
        fresh = IdentityDescriptor(gould.params, gould.left, gould.right, name=gould.name)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^bound n is not an integer at this binding$"):
                list(fresh.compiled["left"](exact_env(binding(n=Fraction(7, 2), u=1))))
        assert len(compiled) == 1
