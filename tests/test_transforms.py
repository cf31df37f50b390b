"""Derivation schemes: Beta integration forms, transforms, rewrites."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from combident import catalog, integrals, transforms
from combident.affine import Affine, Bound
from combident.catalog import (
    entry_ids,
    entry_to_dsl,
    get_entry,
    macmahon_doubled,
    sorted_bindings,
)
from combident.cli import _derive_grid
from combident.descriptors import (
    FAILED,
    VERIFIED,
    IdentityDescriptor,
    KernelBlock,
    Side,
    check_two_sided,
    eval_side,
    rename_descriptor_parameters,
)
from combident.dsl import parse_identity, print_identity
from combident.errors import NonIntegerExponentError, ShapeError, SingularExponentError
from combident.integrals import (
    PACKAGED_FORMS,
    BetaArgs,
    beta_integral_exact,
    beta_integral_quadrature,
    gauss_legendre_rule,
)
from combident.terms import af, const, evaluate_sum, prod, sign
from combident.transforms import (
    DerivedIdentity,
    check_derived,
    frisch_transform,
    klamkin_transform,
    match_against_entry,
    moment_transform,
    rewrite_descriptor,
)


GOLDEN_MOMENT = Path(__file__).parent / "data" / "moment_derivations.json"

MOMENT_VARIANTS = ("direct", "swapped", "reflected", "swapped_reflected")

# the variants the moment scheme accepts for each source, every one for m = 0..3;
# C01 has (1+x) kernels, and reciprocal_x cannot homogenize F04's and F05's floored bounds
MOMENT_ACCEPTED = {
    "C01": (),
    "C02": MOMENT_VARIANTS,
    "F01": MOMENT_VARIANTS,
    "F02": MOMENT_VARIANTS,
    "F03": MOMENT_VARIANTS,
    "F04": ("direct", "swapped"),
    "F05": ("direct", "swapped"),
    "doubled": MOMENT_VARIANTS,
}


N = Affine.var("n")


def binding(**values):
    return {name: Fraction(v) for name, v in values.items()}


def moment_sources():
    """The two-sided catalog entries (C01, C02, F01-F05) and the doubled MacMahon identity."""
    sources = {
        entry_id: get_entry(entry_id).descriptor
        for entry_id in entry_ids()
        if not get_entry(entry_id).descriptor.kernel_free
    }
    sources["doubled"] = macmahon_doubled()
    return sources


def derive_grid_counts(derived) -> Counter:
    """Status counts of a derived identity over the default grid of ``combident derive``."""
    grid = _derive_grid(derived.descriptor)
    return Counter(check_derived(derived, b).status for b in sorted_bindings(grid))


RULE_SIZES = [*range(1, 12), 31, 64]
RULE_TOLERANCE = mp.mpf("1e-38")


class TestBetaIntegrals:
    def test_unit_interval(self):
        assert beta_integral_exact(BetaArgs.of(0, 0)) == 1

    def test_one_one(self):
        assert beta_integral_exact(BetaArgs.of(1, 1)) == Fraction(1, 6)

    def test_packaged_form_spot(self):
        # exponents (r+k-s, s-1) at r=3, k=2, s=2 give 1/20 both ways
        args, closed = PACKAGED_FORMS["upper-weight"](3, 2, 2, 0)
        assert closed() == Fraction(1, 20) == beta_integral_exact(args)

    def test_packaged_forms_agree_with_factorial_formula(self):
        checked = 0
        for name, form in PACKAGED_FORMS.items():
            n_values = range(5) if name == "reflected" else (0,)
            for r in range(12):
                for k in range(5):
                    for s in range(5):
                        for n in n_values:
                            args, closed = form(r, k, s, n)
                            if args.a < 0 or args.b < 0 or args.a > 20 or args.b > 20:
                                continue
                            assert closed() == beta_integral_exact(args), (name, r, k, s, n)
                            checked += 1
        assert checked > 500

    def test_exact_rejects_non_integer(self):
        with pytest.raises(NonIntegerExponentError):
            beta_integral_exact(BetaArgs.of(Fraction(1, 2), 0))

    def test_quadrature_guards_singular(self):
        with pytest.raises(SingularExponentError):
            beta_integral_quadrature(BetaArgs.of(Fraction(-1, 2), 0))

    def test_quadrature_tolerance_sweep(self):
        worst = mp.mpf(0)
        for a in range(0, 21, 4):
            for b in range(0, 21, 4):
                exact = beta_integral_exact(BetaArgs.of(a, b))
                estimate = beta_integral_quadrature(BetaArgs.of(a, b))
                worst = max(worst, abs(estimate - mp.mpf(exact.numerator) / exact.denominator))
        assert worst <= mp.mpf("1e-10")

    def test_quadrature_unit_case(self):
        estimate = beta_integral_quadrature(BetaArgs.of(0, 0))
        assert abs(estimate - 1) < mp.mpf("1e-30")

    def test_quadrature_rejects_non_integer(self):
        with pytest.raises(NonIntegerExponentError):
            beta_integral_quadrature(BetaArgs.of(Fraction(1, 2), 0))

    # odd n exercises the middle node, a = b the pair term with no gap
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_quadrature_exact_up_to_degree_2n_minus_1(self, n):
        for a in range(21):
            for b in range(min(20, 2 * n - 1 - a) + 1):
                exact = beta_integral_exact(BetaArgs.of(a, b))
                estimate = beta_integral_quadrature(BetaArgs.of(a, b), nodes=n)
                with mp.workdps(60):
                    error = abs(estimate - mp.mpf(exact.numerator) / exact.denominator)
                assert error <= RULE_TOLERANCE, (a, b)

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_quadrature_matches_plain_sum_over_the_rule(self, n):
        xs, ws = gauss_legendre_rule(n)
        for a in range(21):
            for b in range(21):
                estimate = beta_integral_quadrature(BetaArgs.of(a, b), nodes=n)
                with mp.workdps(60):
                    reference = mp.fsum(w * x**a * (1 - x) ** b for x, w in zip(xs, ws))
                    assert abs(estimate - reference) <= RULE_TOLERANCE, (a, b)

    # exponents up to 40, beyond the 20 above; n = 11 up to its exactness degree
    @pytest.mark.parametrize("n", [11, 31, 64])
    def test_quadrature_matches_plain_sum_at_high_exponents(self, n):
        top = 40 if n > 11 else 2 * n - 1
        xs, ws = gauss_legendre_rule(n)
        with mp.workdps(60):
            x_powers = [[x**e for e in range(top + 1)] for x in xs]
            y_powers = [[(1 - x) ** e for e in range(top + 1)] for x in xs]
        for a in range(top + 1):
            for b in range((top - a if n == 11 else top) + 1):
                estimate = beta_integral_quadrature(BetaArgs.of(a, b), nodes=n)
                with mp.workdps(60):
                    reference = mp.fsum(w * xp[a] * yp[b] for w, xp, yp in zip(ws, x_powers, y_powers))
                    assert abs(estimate - reference) <= RULE_TOLERANCE, (a, b)

    @pytest.mark.parametrize("n", [5, 11, 64])
    def test_pair_rows_equal_directly_truncated_powers(self, n):
        # the rows are built forward; the reference raises each pair to each power afresh
        from mpmath.libmp import to_fixed

        prec = integrals._PREC
        one = 1 << prec
        xs, ws = gauss_legendre_rule(n)
        pairs = [(to_fixed(x._mpf_, prec), to_fixed(w._mpf_, prec)) for x, w in zip(xs[: n // 2], ws)]
        at_once, stepwise = integrals._PairRows(pairs, 0), integrals._PairRows(pairs, 0)
        at_once.extend(40)
        for top in (3, 1, 17, 40):
            stepwise.extend(top)
        assert integrals._FIXED_RULES[n].products[0] == at_once.products[0]
        for e in range(41):
            products = tuple(w * (((x * (one - x)) ** e << prec) >> 2 * e * prec) for x, w in pairs)
            sums = tuple(((x**e + (one - x) ** e) << prec) >> e * prec for x, _ in pairs)
            assert at_once.products[e] == stepwise.products[e] == products, e
            assert at_once.sums[e] == stepwise.sums[e] == sums, e


def assert_rule_close(rule, nodes, weights):
    xs, ws = rule
    assert len(xs) == len(nodes) and len(ws) == len(weights)
    with mp.workdps(60):
        for got, want in zip(xs + ws, nodes + weights):
            assert abs(got - want) <= RULE_TOLERANCE, (got, want)


class TestGaussLegendreRule:
    def test_two_nodes_closed_form(self):
        with mp.workdps(60):
            offset = 1 / mp.sqrt(3) / 2
            nodes = (mp.mpf(1) / 2 + offset, mp.mpf(1) / 2 - offset)
            weights = (mp.mpf(1) / 2,) * 2
        assert_rule_close(gauss_legendre_rule(2), nodes, weights)

    def test_three_nodes_closed_form(self):
        with mp.workdps(60):
            offset = mp.sqrt(mp.mpf(3) / 5) / 2
            nodes = (mp.mpf(1) / 2 + offset, mp.mpf(1) / 2, mp.mpf(1) / 2 - offset)
            weights = (mp.mpf(5) / 18, mp.mpf(4) / 9, mp.mpf(5) / 18)
        assert_rule_close(gauss_legendre_rule(3), nodes, weights)

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_symmetric_roots_of_legendre_with_unit_mass(self, n):
        xs, ws = gauss_legendre_rule(n)
        assert len(xs) == len(ws) == n
        assert list(xs) == sorted(xs, reverse=True) and 0 < xs[-1] and xs[0] < 1
        with mp.workdps(60):
            for i in range(n):
                assert abs(xs[i] + xs[n - 1 - i] - 1) <= RULE_TOLERANCE
                assert ws[i] == ws[n - 1 - i]
                # an independent evaluation of P_n, not the recurrence of the rule
                assert abs(mp.legendre(n, 2 * xs[i] - 1)) <= mp.mpf("1e-36")
            assert abs(mp.fsum(ws) - 1) <= RULE_TOLERANCE

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_exact_on_monomials_up_to_degree_2n_minus_1(self, n):
        xs, ws = gauss_legendre_rule(n)
        with mp.workdps(60):
            for d in range(2 * n):
                total = mp.fsum(w * x**d for x, w in zip(xs, ws))
                assert abs(total - mp.mpf(1) / (d + 1)) <= RULE_TOLERANCE, d

    def test_unpolished_root_raises(self, monkeypatch):
        # one fixed-point step cannot take a float seed to the stopping criterion
        monkeypatch.setattr(integrals, "_POLISH_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            gauss_legendre_rule.__wrapped__(5)

    def test_seed_stops_early_and_publishes_the_same_rule(self, monkeypatch):
        # the float root only seeds the polish: all _SEED_STEPS steps give the same 40 digits
        calls = Counter()
        legendre = integrals._legendre

        def counted(n, x):
            calls[integrals._SEED_STOP] += 1
            return legendre(n, x)

        monkeypatch.setattr(integrals, "_legendre", counted)
        monkeypatch.setattr(integrals, "_FIXED_RULES", {})
        sizes = [*range(1, 33), 64, 129]
        early = {n: gauss_legendre_rule.__wrapped__(n) for n in sizes}
        monkeypatch.setattr(integrals, "_SEED_STOP", 0.0)
        for n in sizes:
            xs, ws = gauss_legendre_rule.__wrapped__(n)
            assert [v._mpf_ for v in xs + ws] == [v._mpf_ for v in early[n][0] + early[n][1]], n
        assert 2 * calls[2.0**-52] < calls[0.0]

    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)


class TestWeightTransform:
    def test_gould_gives_generalized_frisch(self):
        gould = get_entry("F03").descriptor
        plain = match_against_entry(frisch_transform(gould), "C05")
        assert plain.ok and plain.factors == (Fraction(1),)
        flipped = match_against_entry(frisch_transform(gould, direction="transposed"), "C06")
        assert flipped.ok and flipped.factors == (Fraction(1),)

    def test_simons_gives_frisch_type(self):
        report = match_against_entry(frisch_transform(get_entry("F02").descriptor), "C10")
        assert report.ok and report.factors == (Fraction(1),)

    def test_geometric_gives_inverse_binomial_sum(self):
        report = match_against_entry(frisch_transform(get_entry("F01").descriptor), "C28")
        assert report.ok and report.factors == (Fraction(1),)

    def test_macmahon_gives_cubed_binomial_identity(self):
        report = match_against_entry(frisch_transform(get_entry("F05").descriptor), "C31")
        assert report.ok and report.factors == (Fraction(1),)

    def test_concrete_parameters(self):
        derived = frisch_transform(get_entry("F02").descriptor, r=Fraction(7, 2), s=2)
        for n in range(7):
            assert check_derived(derived, binding(n=n)).status == VERIFIED

    def test_name_collision_rejected(self):
        with pytest.raises(ShapeError):
            frisch_transform(get_entry("F03").descriptor, r="u")


class TestReciprocalTransform:
    def test_gould_gives_generalized_klamkin(self):
        gould = get_entry("F03").descriptor
        plain = match_against_entry(klamkin_transform(gould), "C18")
        assert plain.ok and plain.factors == (Fraction(1),)
        flipped = match_against_entry(klamkin_transform(gould, direction="transposed"), "C19")
        assert flipped.ok and flipped.factors == (Fraction(1),)

    def test_simons_gives_klamkin_type(self):
        report = match_against_entry(klamkin_transform(get_entry("F02").descriptor), "C17")
        assert report.ok
        assert set(report.factors) <= {Fraction(1), Fraction(-1)}

    def test_reflected_seed_gives_two_denominator_identity(self):
        seed = rename_descriptor_parameters(get_entry("C02").descriptor, {"r": "t", "s": "u"})
        report = match_against_entry(klamkin_transform(seed), "C14")
        # both sides of the derivation carry the common factor t + 1, so the
        # two identities agree at every binding up to 1/(t + 1): a factor that
        # varies with t is not a reproduction of C14
        assert not report.ok and report.checked > 0
        assert report.detail == "factors are neither c nor c * (-1)^p"
        assert report.factors == tuple(sorted(Fraction(1, t + 1) for t in (8, 9)))


class TestMomentTransform:
    def test_order_zero_collapses_to_x_equals_one(self):
        # at m = 0 only the k = 0 term of the right side survives
        derived = moment_transform(get_entry("F02").descriptor, 0, "direct")
        for n in range(8):
            b = binding(n=n)
            result = check_derived(derived, b)
            assert result.status == VERIFIED
            right_at_one = eval_side(get_entry("F02").descriptor, "right", b).evaluate({"x": Fraction(1)})
            assert result.lhs == right_at_one

    def test_direct_matches_family(self):
        for m in range(6):
            derived = moment_transform(get_entry("F02").descriptor, m, "direct")
            report = match_against_entry(
                derived, "C37", {"n": [Fraction(v) for v in range(9)], "m": [Fraction(m)]}
            )
            assert report.ok and report.factors == (Fraction(1),), m

    def test_reflected_matches_family(self):
        for m in range(6):
            derived = moment_transform(get_entry("F02").descriptor, m, "reflected")
            report = match_against_entry(
                derived, "C38", {"n": [Fraction(v) for v in range(9)], "m": [Fraction(m)]}
            )
            assert report.ok and set(report.factors) <= {Fraction(1), Fraction(-1)}, m

    def test_swapped_variants_verify(self):
        for variant in ("swapped", "swapped_reflected"):
            derived = moment_transform(get_entry("F02").descriptor, 2, variant)
            for n in range(8):
                assert check_derived(derived, binding(n=n)).status == VERIFIED, variant

    def test_truncation_extending_range_changes_nothing(self):
        # summands beyond k = m vanish, so the capped and full ranges agree
        for m in range(5):
            derived = moment_transform(get_entry("F02").descriptor, m, "direct")
            capped = derived.descriptor.right.blocks[0]
            for n in range(9):
                b = binding(n=n)
                full = evaluate_sum(capped.lo, Bound(Affine.var("n")), capped.coef, b)
                assert evaluate_sum(capped.lo, capped.hi, capped.coef, b) == full

    def test_dixon_complements_from_doubled_macmahon(self):
        doubled = macmahon_doubled()
        for m, entry in ((1, "C33"), (2, "C34")):
            derived = moment_transform(doubled, m, "direct")
            report = match_against_entry(derived, entry, {"n": [Fraction(v) for v in range(6)]})
            assert report.ok and report.factors == (Fraction(1),)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"needs \(1\+x\)-free kernels"):
            moment_transform(get_entry("C01").descriptor, 1, "direct")
        with pytest.raises(ShapeError, match="floored bound"):
            moment_transform(get_entry("F04").descriptor, 1, "reflected")

    def test_reversed_left_kernel_and_mixed_side_derive(self):
        # an x^(n-k) left kernel and a mixed x^k (1-x)^(2n-2k) right side are
        # ordinary blocks for the one moment rule
        for source, variant in ((get_entry("F03").descriptor, "direct"), (macmahon_doubled(), "reflected")):
            counts = derive_grid_counts(moment_transform(source, 1, variant))
            assert counts[FAILED] == 0 and counts[VERIFIED] > 0, variant

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment_transform(get_entry("F02").descriptor, -1, "direct")


class TestMomentGolden:
    def test_texts_match_golden_file(self):
        # the printed text of 44 moment derivations of the two-sided sources (m = 0..3)
        golden = json.loads(GOLDEN_MOMENT.read_text(encoding="utf-8"))
        assert len(golden) == 44
        sources = moment_sources()
        for record in golden:
            derived = moment_transform(sources[record["source"]], record["m"], record["variant"])
            assert derived.provenance == record["provenance"]
            assert print_identity(derived.to_descriptor()) == record["text"], record["provenance"]

    def test_accepted_set_verifies_on_the_derive_grid(self):
        accepted, rejected = [], {}
        for source, desc in moment_sources().items():
            for variant in MOMENT_VARIANTS:
                for m in range(4):
                    try:
                        derived = moment_transform(desc, m, variant)
                    except ShapeError as exc:
                        rejected[source, variant] = str(exc)
                        continue
                    accepted.append((source, variant, m))
                    counts = derive_grid_counts(derived)
                    assert counts[FAILED] == 0 and counts[VERIFIED] > 0, derived.provenance
        pinned = [(s, v, m) for s, variants in MOMENT_ACCEPTED.items() for v in variants for m in range(4)]
        assert accepted == pinned and len(accepted) == 96
        for (source, variant), reason in rejected.items():
            expected = "(1+x)" if source == "C01" else "floored bound"
            assert expected in reason, (source, variant, reason)


class TestKlamkinIsFrischAfterReciprocal:
    """``klamkin(d, r, s) == (r+1)/(s+1) * frisch(reciprocal_x(d), r+1-N, s+1)`` side by side.

    N is the top kernel degree that ``reciprocal_x`` clears with x^N; it is n
    for F01-F03, so the Frisch parameter r+1-N is numeric only at a fixed n.
    """

    @pytest.mark.parametrize("source", ["F01", "F02", "F03"])
    def test_relation_on_both_sides(self, source):
        desc = get_entry(source).descriptor
        flipped = rewrite_descriptor(desc, "reciprocal_x")
        n = Affine.var("n")
        for side in ("left", "right"):
            for block, original in zip(getattr(flipped, side).blocks, getattr(desc, side).blocks):
                assert block.x_exp + original.x_exp + original.one_minus_exp == n
        extra = {"u": Fraction(7, 3)} if source == "F03" else {}
        checked = 0
        for r in (Fraction(17, 2), Fraction(11), Fraction(40, 3)):
            for s in (0, 1, 2):
                klamkin = klamkin_transform(desc, r, s).to_descriptor()
                for n_value in range(6):
                    frisch = frisch_transform(flipped, r + 1 - n_value, s + 1).to_descriptor()
                    b = binding(n=n_value, **extra)
                    for side in ("left", "right"):
                        expected = (r + 1) / (s + 1) * eval_side(frisch, side, b)
                        assert eval_side(klamkin, side, b) == expected, (r, s, n_value, side)
                    checked += 1
        assert checked == 54


class TestMatchAgainstEntry:
    @staticmethod
    def constant_identity(value, right=None):
        """The derived identity ``sum[k=0..0] value == sum[k=0..0] right``, ``right`` ``value`` by default."""
        left = Side((KernelBlock(Bound.of(0), Bound.of(0), const(value)),))
        right = left if right is None else Side((KernelBlock(Bound.of(0), Bound.of(0), const(right)),))
        return DerivedIdentity(IdentityDescriptor((("n", "nat"),), left, right, f"constant {value}"))

    def test_a_failing_derived_identity_is_named_at_its_first_failure(self):
        report = match_against_entry(self.constant_identity(1, right=2), "C39a")
        assert (report.ok, report.checked, report.factors) == (False, 0, ())
        assert report.detail == "derived identity fails at n=0"

    def test_a_failing_entry_is_named_at_its_first_failure(self, monkeypatch):
        # C39a's closed form with n + 2 for n + 1 still holds at n = 0, where both sides are 0
        entry = get_entry("C39a")
        source = entry_to_dsl(entry)
        mutant = parse_identity(source.replace("n * (n + 1)", "n * (n + 2)", 1))
        monkeypatch.setitem(catalog._ENTRIES, "C39a", entry.replace(descriptor=mutant.replace(name="C39a")))
        report = match_against_entry(moment_transform(get_entry("F02").descriptor, 1), "C39a")
        assert (report.ok, report.checked, report.factors) == (False, 1, ())
        assert report.detail == "entry C39a fails at n=1"

    def test_zero_derived_side_against_nonzero_entry_is_a_mismatch(self):
        # C39a is (-1)^n n(n+1), nonzero from n = 1 on; 0 == 0 holds everywhere
        report = match_against_entry(self.constant_identity(0), "C39a")
        assert not report.ok
        assert report.detail == "sides disagree at n=1"

    def test_nonzero_derived_side_against_zero_entry_is_a_mismatch(self):
        # C35 vanishes at odd n; 1 == 1 never does
        report = match_against_entry(self.constant_identity(1), "C35")
        assert not report.ok
        assert report.detail == "sides disagree at n=1"

    @staticmethod
    def scaled(entry_id, factor):
        """The entry's identity with every summand of both sides times ``factor``, as a derived identity."""
        desc = get_entry(entry_id).descriptor

        def scale(side):
            return Side(tuple(block.replace(coef=prod(factor, block.coef)) for block in side.blocks))

        return DerivedIdentity(IdentityDescriptor(desc.params, scale(desc.left), scale(desc.right), "scaled"))

    @staticmethod
    def reference_factors(derived, entry_id):
        """The compared bindings of a match and each nonzero one's factor, recomputed in Fractions."""
        entry = get_entry(entry_id)
        checked, samples = 0, []
        for b in sorted_bindings(entry.default_grid):
            mine = check_two_sided(derived.descriptor, b, derived.validity)
            theirs = check_two_sided(entry.descriptor, b)
            if mine.status != VERIFIED or theirs.status != VERIFIED:
                continue
            checked += 1
            if mine.lhs:
                samples.append((b, theirs.lhs / mine.lhs))
        return checked, samples

    @pytest.mark.parametrize(
        "factor, inverse, distinct, ok",
        [
            (const(2), lambda b: Fraction(1, 2), 1, True),
            (sign(N), lambda b: Fraction((-1) ** b["n"]), 2, True),
            (prod(const(2), sign(N)), lambda b: Fraction((-1) ** b["n"], 2), 2, True),
            (af(N + 1), lambda b: Fraction(1, b["n"] + 1), 9, False),
        ],
        ids=["2", "(-1)^n", "2*(-1)^n", "n+1"],
    )
    def test_factors_agree_with_a_fraction_recomputation(self, factor, inverse, distinct, ok):
        derived = self.scaled("C05", factor)
        report = match_against_entry(derived, "C05")
        checked, samples = self.reference_factors(derived, "C05")
        assert checked == 756 and len(samples) > 600
        assert all(f == inverse(b) for b, f in samples)
        assert report.checked == checked
        assert report.factors == tuple(sorted({f for _, f in samples}))
        assert len(report.factors) == distinct
        assert report.ok is ok
        assert report.detail == ("" if ok else "factors are neither c nor c * (-1)^p")

    def test_a_match_builds_one_fraction_per_distinct_factor(self, monkeypatch):
        derived = frisch_transform(get_entry("F03").descriptor)
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(transforms, "Fraction", counting)
        report = match_against_entry(derived, "C05")
        assert (report.ok, report.checked, report.factors) == (True, 756, (1,))
        assert len(built) == 1

    def test_a_derived_parameter_missing_from_the_grid_is_named(self):
        # F03's Frisch identity declares n, u, r, s: C03's grid lacks u, C39a's has n only,
        # and the first missing parameter in declaration order is named
        derived = frisch_transform(get_entry("F03").descriptor)
        for entry_id in ("C03", "C39a"):
            message = rf"^the derived identity's parameter 'u' is not an axis of entry {entry_id}'s grid$"
            with pytest.raises(ShapeError, match=message):
                match_against_entry(derived, entry_id)
        with pytest.raises(ShapeError, match="parameter 's'"):
            match_against_entry(derived, "C05", {"n": [0], "u": [1], "r": [2]})

    def test_entry_with_kernels_is_rejected(self):
        derived = moment_transform(get_entry("F02").descriptor, 1, "direct")
        for entry_id in ("F01", "C01"):
            with pytest.raises(ShapeError):
                match_against_entry(derived, entry_id)


class TestRewrites:
    def test_negate_restores_canonical_form(self):
        printed = get_entry("C01").descriptor
        canonical = rewrite_descriptor(printed, "negate_x")
        for n in range(6):
            b = binding(n=n, r=Fraction(7, 2), s=2)
            assert check_two_sided(canonical, b).status == VERIFIED
        # applying the rule twice restores the original
        assert rewrite_descriptor(canonical, "negate_x") == printed

    def test_reciprocal_form_verifies(self):
        printed = get_entry("C01").descriptor
        flipped = rewrite_descriptor(printed, "reciprocal_x")
        assert flipped.left.blocks[0].x_exp == Affine.var("n") - Affine.var("k")
        for n in range(6):
            b = binding(n=n, r=3, s=2)
            assert check_two_sided(flipped, b).status == VERIFIED

    def test_reciprocal_signs_only_one_minus_blocks(self):
        # the sign (-1)^b comes from (1-x)^b -> (x-1)^b / x^b; a block with b = 0 gets none
        text = print_identity(rewrite_descriptor(get_entry("F02").descriptor, "reciprocal_x"))
        assert text.splitlines()[1:] == [
            "sum[k=0..n] (-1)^k * binom(n, k) * binom(k + n, k) * x^(n - k)",
            "  == sum[k=0..n] (-1)^k * (-1)^(n - k) * binom(n, k) * binom(k + n, k) * x^(n - k) * (1-x)^k",
        ]

    def test_reflect_is_involution(self):
        for name in ("F01", "F02", "F03", "F04", "F05"):
            desc = get_entry(name).descriptor
            assert rewrite_descriptor(rewrite_descriptor(desc, "reflect_x"), "reflect_x") == desc

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            rewrite_descriptor(get_entry("F02").descriptor, "conjugate_x")
