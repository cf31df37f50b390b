"""Two-sided identity checking: sides, statuses, transposition."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from combident import catalog, terms
from combident.affine import Affine, Bound
from combident.catalog import (
    entry_ids,
    entry_to_dsl,
    get_entry,
    macmahon_doubled,
    sorted_bindings,
    verify_entry,
)
from combident.descriptors import (
    FAILED,
    SKIPPED_POLE,
    SKIPPED_PRECONDITION,
    VERIFIED,
    CheckResult,
    IdentityDescriptor,
    KernelBlock,
    RangeConstraint,
    Side,
    ValidityPredicate,
    check_grid,
    check_sorts,
    check_two_sided,
    eval_side,
    first_mismatch,
    format_binding,
    transpose_descriptor,
)
from combident.dsl import parse_identity
from combident.errors import PoleError, PreconditionError, ShapeError, UnboundParameterError
from combident.exact import binom_rational, binom_rational_pair
from combident.poly import Polynomial
from combident.terms import af, binom, const, evaluate_sum, exact_env, ibinom, prod
from combident.transforms import (
    check_derived,
    frisch_transform,
    klamkin_transform,
    match_against_entry,
    moment_transform,
)

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
        # a summation entry never builds a polynomial; both sides are the
        # value the generated check verifies
        desc = get_entry("C03").descriptor
        b = binding(n=4, r=Fraction(8, 3), s=2)
        checked = check_two_sided(desc, b)
        assert checked.status == VERIFIED
        for side in ("left", "right"):
            value = eval_side(desc, side, b)
            assert type(value) is Fraction and value == checked.lhs

    def test_numeric_matches_polynomial(self):
        # each side's reference polynomial, at points, is the polynomial the
        # generated check verifies
        probe = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2)]
        desc = get_entry("C01").descriptor
        b = binding(n=3, r=Fraction(7, 2), s=2)
        checked = check_two_sided(desc, b)
        assert checked.status == VERIFIED
        for side in ("left", "right"):
            p = eval_side(desc, side, b)
            for x0 in probe:
                assert p.evaluate({"x": x0}) == checked.lhs.evaluate({"x": x0})

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
    def test_an_undeclared_name_is_refused(self):
        coef = prod(binom(Affine.var("n"), Affine.var("k")), af(Affine.var("q")))
        desc = _one_sided((("n", "nat"),), coef)
        with pytest.raises(ShapeError, match="^parameter 'q' is not declared$"):
            check_two_sided(desc, binding(n=2, q=1))

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
    """The 12 derivations pinned by their catalog matches: (derived identity, matched entry)."""
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
    return derived


def _check_cases():
    """(descriptor, validity, default grid) of every catalog entry and pinned derivation."""
    cases = [(get_entry(i).descriptor, get_entry(i).validity, get_entry(i).default_grid) for i in entry_ids()]
    cases += [(d.descriptor, d.validity, get_entry(entry_id).default_grid) for d, entry_id in _pinned_derivations()]
    return cases


# values no binding that passes check_sorts can give: n and s are nat or int wherever declared
_SORT_VIOLATIONS = (("n", Fraction(7, 2)), ("n", Fraction(-1)), ("s", Fraction(1, 2)))


def _count_compiles(monkeypatch) -> list[str]:
    """The file names of the generated functions compiled from now on, in order."""
    filenames: list[str] = []

    def spy(source, filename, mode):
        filenames.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(terms, "compile", spy, raising=False)
    return filenames


def _check_bindings(desc: IdentityDescriptor, validity: ValidityPredicate, grid) -> list[dict]:
    """The default grid, each sort violation, every integral name violating at once,
    and each validity bound and the value below it."""
    declared = {name for name, _ in desc.params}
    bindings = list(sorted_bindings(grid))
    for name, value in _SORT_VIOLATIONS:
        if name in declared:
            bindings += sorted_bindings({**grid, name: (value,)})
    integral = [name for name, sort in desc.params if sort != "rat"]
    if integral:
        bindings += sorted_bindings({**grid, **{name: (Fraction(-7, 2),) for name in integral}})
    for c in validity.constraints:
        (name, _), = c.expr.coeffs
        bindings += sorted_bindings({**grid, name: (c.bound - 1, c.bound)})
    return bindings


def _reference_check(desc: IdentityDescriptor, b, validity: ValidityPredicate | None = None) -> CheckResult:
    """check_two_sided by the reference path: :func:`check_sorts`, ``validity.violation``, then
    each side by :func:`eval_side`, a walk in Fractions."""
    env = exact_env(b)
    issue = check_sorts(desc.params, env)
    if issue is None and validity is not None:
        issue = validity.violation(env)
    if issue is not None:
        return CheckResult(desc.name, env, SKIPPED_PRECONDITION, witness=issue)
    try:
        lhs, rhs = eval_side(desc, "left", env), eval_side(desc, "right", env)
    except PoleError as exc:
        return CheckResult(desc.name, env, SKIPPED_POLE, witness=str(exc))
    except (PreconditionError, UnboundParameterError) as exc:
        return CheckResult(desc.name, env, SKIPPED_PRECONDITION, witness=str(exc))
    if lhs == rhs:
        return CheckResult(desc.name, env, VERIFIED, lhs=lhs, rhs=rhs)
    if desc.kernel_free:
        witness = f"lhs = {lhs}, rhs = {rhs} at {format_binding(env)}"
    else:
        witness = first_mismatch(lhs, rhs)
    return CheckResult(desc.name, env, FAILED, lhs=lhs, rhs=rhs, witness=witness)


def _result(check, desc, b, validity) -> tuple:
    """What ``check`` gives: status, witness, the sides with their types, and the binding, or what it raises."""
    try:
        r = check(desc, b, validity)
    except (ArithmeticError, LookupError, ValueError) as exc:
        return type(exc), str(exc)
    return r.status, r.witness, r.lhs, type(r.lhs), r.rhs, type(r.rhs), r.binding


def _agree(desc: IdentityDescriptor, bindings, validity: ValidityPredicate | None = None) -> list:
    """Assert the generated check and the reference agree at every binding; return the results."""
    results = []
    for b in bindings:
        expected = _result(_reference_check, desc, b, validity)
        assert _result(check_two_sided, desc, b, validity) == expected, (desc.name, b)
        results.append(expected)
    return results


class TestGeneratedCheck:
    """One generated check per descriptor agrees with the reference path."""

    def test_catalog_and_derivations_agree_with_the_reference(self):
        statuses = Counter()
        for desc, validity, grid in _check_cases():
            for result in _agree(desc, _check_bindings(desc, validity, grid), validity):
                statuses[result[0]] += 1
        assert statuses[VERIFIED] > 6000 and statuses[SKIPPED_POLE] > 500
        assert statuses[SKIPPED_PRECONDITION] > 1500

    def test_validity_is_tested_after_the_sorts(self):
        c03 = get_entry("C03")
        statuses = _agree(
            c03.descriptor,
            [binding(n=2, r=3, s=0), binding(n=2, r=3, s=1), binding(n=-1, r=3, s=0), binding(n=2, r=3, s=Fraction(1, 2))],
            c03.validity,
        )
        assert [r[1] for r in statuses] == ["s >= 1", None, "n = -1 is negative", "s = 1/2 is not an integer"]
        # a rational form, and two constraints of which the second fails
        n, r = Affine.var("n"), Affine.var("r")
        validity = ValidityPredicate((RangeConstraint(2 * r - n + Affine.of(Fraction(1, 2)), 1), RangeConstraint(n, 3)))
        bindings = [binding(n=v, r=w, s=1) for v in range(6) for w in (0, Fraction(1, 4), Fraction(3, 4), 2)]
        witnesses = {r[1] for r in _agree(c03.descriptor, bindings, validity)}
        assert {"2r - n + 1/2 >= 1", "n >= 3"} <= witnesses

    def test_a_sort_violation_wins_over_a_later_missing_name(self):
        desc, validity = get_entry("C03").descriptor, get_entry("C03").validity
        # n is declared first: its violation is reported, r and s are never read
        assert _agree(desc, [{"n": Fraction(7, 2)}], validity) == [
            (SKIPPED_PRECONDITION, "n = 7/2 is not an integer", None, type(None), None, type(None), {"n": Fraction(7, 2)})
        ]
        # a missing name before the violating one raises
        assert _agree(desc, [{"n": 2, "s": Fraction(1, 2)}], validity) == [(UnboundParameterError, "'r'")]
        with pytest.raises(UnboundParameterError, match="entry C03 needs parameter r"):
            verify_entry("C03", {"n": 2, "s": Fraction(1, 2)})

    def test_a_descriptor_with_an_undeclared_name_is_refused(self):
        n, k, q = Affine.var("n"), Affine.var("k"), Affine.var("q")
        zero = KernelBlock(Bound.of(0), Bound.of(0), const(0))
        sum_n = KernelBlock(Bound.of(0), Bound(n), binom(n, k))
        undeclared = "parameter 'q' is not declared"
        in_bound = "the summation index k cannot appear in a bound"
        cases = [
            ("summand", (sum_n, KernelBlock(Bound.of(0), Bound(n), af(q))), zero, None, undeclared),
            ("right side only", (sum_n,), KernelBlock(Bound.of(0), Bound(n), af(q)), None, undeclared),
            ("bound", (KernelBlock(Bound.of(0), Bound(q), binom(n, k)),), zero, None, undeclared),
            ("bound cap", (KernelBlock(Bound.of(0), Bound(n, cap=q), binom(n, k)),), zero, None, undeclared),
            ("kernel", (KernelBlock(Bound.of(0), Bound(n), const(1), x_exp=k + q),), zero, None, undeclared),
            ("validity", (sum_n,), zero, ValidityPredicate((RangeConstraint(q, 1),)), undeclared),
            ("k in a bound", (KernelBlock(Bound(n - k), Bound(n), binom(n, k)),), zero, None, in_bound),
            ("k in a cap", (KernelBlock(Bound.of(0), Bound(n, cap=k), binom(n, k)),), zero, None, in_bound),
        ]
        for label, left, right, validity, message in cases:
            desc = IdentityDescriptor((("n", "nat"),), Side(left), Side((right,)), label)
            constraints = () if validity is None else tuple((c.expr, c.bound, c.describe()) for c in validity.constraints)
            blocks = desc._blocks(desc.left), desc._blocks(desc.right)
            with pytest.raises(ShapeError, match=f"^{message}$"):
                terms.compile_check(desc.params, constraints, *blocks)
            with pytest.raises(ShapeError, match=f"^{message}$"):
                check_two_sided(desc, binding(n=2), validity)

    def test_a_missing_declared_name_is_reported_before_any_value(self):
        # block 1 is a pole at every n; q is declared, read by block 2 only
        n, k, q = Affine.var("n"), Affine.var("k"), Affine.var("q")
        pole = KernelBlock(Bound.of(0), Bound(n), ibinom(n, k + 1))
        left = Side((pole, KernelBlock(Bound.of(0), Bound(n), af(q))))
        desc = IdentityDescriptor((("n", "nat"), ("q", "rat")), left, Side((KernelBlock(Bound.of(0), Bound.of(0), const(0)),)))
        for side in ("left", "right"):
            with pytest.raises(UnboundParameterError, match="'q'"):
                eval_side(desc, side, binding(n=2))
            with pytest.raises(UnboundParameterError, match="'n'"):
                eval_side(desc, side, {})
        assert _agree(desc, [binding(n=2)]) == [(UnboundParameterError, "'q'")]
        assert _agree(desc, [binding(n=2, q=1)])[0][:2] == (SKIPPED_POLE, "binom(2, 3) = 0 has no reciprocal")

    def test_kernel_exponent_errors_agree_with_the_reference(self):
        n, k, r = Affine.var("n"), Affine.var("k"), Affine.var("r")
        zero = KernelBlock(Bound.of(0), Bound.of(0), const(0))
        params = (("n", "nat"), ("r", "rat"))
        negative = IdentityDescriptor(params, Side((KernelBlock(Bound.of(0), Bound(n), const(1), x_exp=k - 2),)), Side((zero,)))
        rational = IdentityDescriptor(params, Side((zero, KernelBlock(Bound.of(0), Bound(n), const(1), one_plus_exp=k + r))), Side((zero,)))
        bindings = [binding(n=v, r=w) for v in range(3) for w in (1, Fraction(1, 2))]
        assert {r[1] for r in _agree(negative, bindings)} == {"x exponent k - 2 is negative (-2)"}
        # at r = 1 the exponents are integers and the sides differ: the failures agree too
        outcomes = Counter(r[1] if r[0] != FAILED else FAILED for r in _agree(rational, bindings))
        assert outcomes == {"(1+x) exponent k + r is not an integer": 3, FAILED: 3}

    def test_rational_kernel_bindings_agree_with_the_reference(self):
        # the dense expansion in ints over one common denominator against the
        # reference polynomial of Fraction terms, which shares no code with
        # it; terms over denominators other than 1 rescale the dense list
        rationals = (Fraction(7, 2), Fraction(5, 3), Fraction(-7, 6))
        cases = [
            ("C01", [binding(n=n, r=r, s=s) for n in range(5) for r in rationals for s in (1, 2)]),
            ("F03", [binding(n=n, u=u) for n in range(6) for u in rationals]),
        ]
        fractional = 0
        for entry_id, bindings in cases:
            entry = get_entry(entry_id)
            for status, _, lhs, _, rhs, *_ in _agree(entry.descriptor, bindings, entry.validity):
                assert status == VERIFIED, entry_id
                # each side of the reference, as each was counted when summed directly
                fractional += sum(any(c.denominator > 1 for _, c in p.terms) for p in (lhs, rhs))
        assert fractional > 50

    def test_a_verify_grid_compiles_one_check_and_no_side(self, monkeypatch):
        monkeypatch.setattr(catalog, "_ENTRIES", {})
        filenames = _count_compiles(monkeypatch)
        report = catalog.verify_grid("C03")
        assert report.verified > 0 and filenames == ["<combident C03 check>"]
        catalog.verify_grid("C03")
        assert filenames == ["<combident C03 check>"]

    def test_one_check_per_identity_and_none_for_value_queries(self, monkeypatch):
        filenames = _count_compiles(monkeypatch)
        # a check compiles once per descriptor, sort-violating bindings included
        for desc, validity, grid in _check_cases():
            fresh = IdentityDescriptor(desc.params, desc.left, desc.right, name=desc.name)
            for b in _check_bindings(desc, validity, grid):
                check_two_sided(fresh, b, validity)
            assert filenames == [f"<combident {desc.name} check>"], desc.name
            filenames.clear()
        monkeypatch.setattr(catalog, "_ENTRIES", {})
        pinned = _pinned_derivations()
        for derived, entry_id in pinned:
            assert match_against_entry(derived, entry_id).ok, entry_id
        # the derived identity's check and the entry's, for each of the 12 matches
        assert len(filenames) == 24
        assert all(name.startswith("<combident ") and name.endswith(" check>") for name in filenames)
        assert {f"<combident {entry_id} check>" for _, entry_id in pinned} <= set(filenames)
        filenames.clear()
        values = 0
        for entry_id in entry_ids():
            entry = get_entry(entry_id)
            for b in list(sorted_bindings(entry.default_grid))[:4]:
                for side in ("left", "right"):
                    try:
                        eval_side(entry.descriptor, side, b)
                    except (PoleError, PreconditionError):
                        continue
                    values += 1
        assert values > 300 and filenames == []


class TestCheckGrid:
    """The grid loop gives what a per-binding tally over check_two_sided gives."""

    # (entry, text, mutant text): binom(n, 2k) agrees with binom(n, k) at n = 0 only
    MUTANTS = (
        ("C03", "binom(n, k)", "binom(n, 2k)"),
        ("C01", "binom(n, k) * binom(k + r, s)", "binom(n, 2k) * binom(k + r, s)"),
    )

    @pytest.mark.parametrize("max_witnesses", [10, 3])
    @pytest.mark.parametrize("entry_id, text, mutated", MUTANTS)
    def test_a_failing_identity_reports_the_per_binding_tally(self, entry_id, text, mutated, max_witnesses):
        entry = get_entry(entry_id)
        source = entry_to_dsl(entry)
        assert text in source
        mutant = replace(parse_identity(source.replace(text, mutated, 1)), name=entry_id)
        # s = 0 is outside the validity region s >= 1, so every status occurs
        bindings = list(sorted_bindings({**entry.default_grid, "s": (0, *entry.default_grid["s"])}))
        results = [check_two_sided(mutant, b, entry.validity) for b in bindings]
        statuses = Counter(r.status for r in results)
        assert min(statuses[s] for s in (VERIFIED, SKIPPED_POLE, SKIPPED_PRECONDITION)) > 0
        failures = [r for r in results if r.status == FAILED]
        assert len(failures) > 10
        report = check_grid(mutant, bindings, entry.validity, max_witnesses)
        assert report.counts == {s: statuses[s] for s in (VERIFIED, FAILED, SKIPPED_POLE, SKIPPED_PRECONDITION)}
        assert report.total == len(bindings)
        assert report.witnesses == tuple(failures[:max_witnesses])
        assert report.vacuous == 0

    @pytest.mark.parametrize("entry_id, vacuous, verified", [("C10", 56, 108), ("C35", 5, 11), ("C32", 9, 24)])
    def test_vacuous_bindings_are_the_verified_zeros(self, entry_id, vacuous, verified):
        report = catalog.verify_grid(entry_id)
        assert (report.vacuous, report.verified) == (vacuous, verified)
        results = [verify_entry(entry_id, b) for b in sorted_bindings(get_entry(entry_id).default_grid)]
        assert report.vacuous == sum(r.status == VERIFIED and r.lhs == 0 for r in results)


class TestMemoizedBinomials:
    def test_memoized_pairs_equal_the_product_formula(self):
        rng = random.Random(20251019)
        args = [(rng.randint(-40, 40), rng.randint(1, 12), rng.randint(0, 15)) for _ in range(3000)]
        args += [(num * den, den, j) for num in range(-6, 7) for den in (1, 2, 6) for j in range(-3, 8)]
        for round_ in range(2):  # the second round is answered from the cache
            before = terms._binom_pair.cache_info()
            for num, den, j in args:
                if j < 0 and (num % den or num < 0):
                    continue  # undefined; see the next test
                if num % den == 0:
                    expected = (terms._binom_int(num // den, j), 1)
                else:
                    expected = binom_rational_pair(num, den, j)
                assert terms._binom_pair(num, den, j) == expected, (num, den, j)
                if j >= 0:
                    assert Fraction(*expected) == binom_rational(Fraction(num, den), j)
            if round_:
                assert terms._binom_pair.cache_info().misses == before.misses
        assert terms._binom_pair.cache_info().maxsize is not None

    def test_a_call_that_raises_raises_on_every_repeat(self):
        for _ in range(3):
            with pytest.raises(PreconditionError, match=r"^binomial with upper index 1/2 is undefined at negative lower index -1$"):
                terms._binom_pair(2, 4, -1)
            with pytest.raises(PreconditionError, match=r"^binomial with upper index -3 is undefined at negative lower index -2$"):
                terms._binom_pair(-6, 2, -2)

    def test_a_vanishing_inverse_binomial_still_skips_as_a_pole(self):
        n, k = Affine.var("n"), Affine.var("k")
        desc = _one_sided((("n", "nat"),), prod(binom(n, k + 1), ibinom(n, k + 1)))
        for _ in range(2):
            result = check_two_sided(desc, binding(n=2))
            assert result.status == SKIPPED_POLE
            assert result.witness == "binom(2, 3) = 0 has no reciprocal"
