"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every check is exact (rational
arithmetic) except the quadrature comparison, whose stated tolerance is 1e-10.
"""

from fractions import Fraction

import mpmath as mp

from combident.affine import Affine, Bound
from combident.catalog import (
    entry_ids,
    get_entry,
    iter_grid,
    macmahon_doubled,
    verify_entry,
)
from combident.descriptors import (
    VERIFIED,
    check_two_sided,
    eval_side,
    eval_side_at,
    transpose_descriptor,
)
from combident.dsl import parse_identity, print_identity
from combident.errors import PoleError
from combident.exact import binom_int, r_stirling2, stirling2
from combident.integrals import (
    _DPS,
    PACKAGED_FORMS,
    BetaArgs,
    beta_integral_exact,
    beta_integral_quadrature,
)
from combident.poly import Polynomial
from combident.terms import evaluate_sum
from combident.transforms import (
    check_derived,
    frisch_transform,
    klamkin_transform,
    match_against_entry,
    moment_transform,
)

X = Polynomial.variable("x")


def report(number: int, label: str, ok: bool):
    print(f"\nCRITERION {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def binding(**values):
    return {name: Fraction(v) for name, v in values.items()}


def entry_sides(entry_id, b):
    desc = get_entry(entry_id).descriptor
    return eval_side(desc, "left", b), eval_side(desc, "right", b)


def test_criterion_1_catalog_soundness(catalog_sweep):
    """Every entry verifies with zero failures on its default grid."""
    entries = catalog_sweep.report["entries"]
    ok = [e["id"] for e in entries] == list(entry_ids())
    for entry in entries:
        failed, verified = entry["counts"]["failed"], entry["counts"]["verified"]
        if failed or verified == 0:
            ok = False
            print(f"  {entry['id']}: failed={failed} verified={verified}")
    elapsed = catalog_sweep.elapsed
    print(f"  swept {len(entry_ids())} entries in {elapsed:.1f}s")
    report(1, "catalog soundness", ok and elapsed < 120)


def test_criterion_2_frisch_klamkin_reproduction():
    spot_frisch = verify_entry("C03", binding(n=1, r=1, s=1))
    spot_klamkin = verify_entry("C04", binding(n=1, r=3, s=1))
    ok = (
        spot_frisch.status == VERIFIED
        and spot_frisch.lhs == Fraction(1, 2)
        and spot_klamkin.status == VERIFIED
        and spot_klamkin.lhs == Fraction(2, 3)
    )

    # evaluating the first seed identity at x = -1 collapses it to Frisch
    seed1 = get_entry("C01").descriptor
    compared = 0
    for b in iter_grid(get_entry("C01").default_grid):
        try:
            left = eval_side_at(seed1, "left", b, -1)
            right = eval_side_at(seed1, "right", b, -1)
            frisch_lhs, frisch_rhs = entry_sides("C03", b)
        except PoleError:
            continue
        ok = ok and left == frisch_lhs and right == frisch_rhs
        compared += 1

    # the second seed identity at x = 1 collapses to Klamkin
    seed2 = get_entry("C02").descriptor
    for b in iter_grid(get_entry("C02").default_grid):
        if Fraction(b["r"]).denominator != 1:
            continue  # the reflected seed needs an integer upper offset
        try:
            left = eval_side_at(seed2, "left", b, 1)
            right = eval_side_at(seed2, "right", b, 1)
            klamkin_lhs, klamkin_rhs = entry_sides("C04", b)
        except PoleError:
            continue
        ok = ok and left == klamkin_lhs and right == klamkin_rhs
        compared += 1
    print(f"  collapse comparisons: {compared}")
    report(2, "Frisch/Klamkin reproduction", ok and compared > 200)


def test_criterion_3_symbolic_polynomial_checks():
    ok = True
    rational_r_seen = 0
    for entry_id in ("C01", "C02"):
        entry = get_entry(entry_id)
        for b in iter_grid(entry.default_grid):
            result = verify_entry(entry_id, b)
            if result.status == "failed":
                ok = False
            if result.status == VERIFIED and Fraction(b["r"]).denominator != 1:
                rational_r_seen += 1
    spot = get_entry("C01").descriptor
    b = binding(n=1, r=2, s=1)
    expected = Polynomial.constant(Fraction(1, 2)) + Fraction(1, 3) * X
    ok = ok and eval_side(spot, "left", b) == expected
    ok = ok and eval_side(spot, "right", b) == expected
    print(f"  verified polynomial bindings with non-integer r: {rational_r_seen}")
    report(3, "symbolic polynomial checks", ok and rational_r_seen > 0)


def test_criterion_4_scheme_round_trips():
    ok = True
    gould, simons = get_entry("F03").descriptor, get_entry("F02").descriptor
    for derived, entry in (
        (frisch_transform(gould), "C05"),
        (frisch_transform(gould, direction="transposed"), "C06"),
        (klamkin_transform(gould), "C18"),
        (klamkin_transform(gould, direction="transposed"), "C19"),
    ):
        m = match_against_entry(derived, entry)
        ok = ok and m.ok and m.factors == (Fraction(1),)
        print(f"  {derived.provenance} == {entry}: {m.ok} on {m.checked} bindings")

    plain_displays = {
        1: lambda n: Fraction((-1) ** n * n * (n + 1)),
        2: lambda n: Fraction((-1) ** n * n**2 * (n + 1) ** 2, 2),
        3: lambda n: Fraction((-1) ** n * n**2 * (n + 1) ** 2 * (n**2 + n + 1), 6),
    }
    reflected_displays = {
        1: lambda n: Fraction(-(n**2)),
        2: lambda n: Fraction(n**2 * (n**2 - 2 * n - 1), 2),
        3: lambda n: Fraction(-(n**2) * (n**4 - 6 * n**3 + 4 * n**2 + 6 * n + 1), 6),
    }
    for m_order in (1, 2, 3):
        direct = moment_transform(simons, m_order, "direct")
        reflected = moment_transform(simons, m_order, "reflected")
        for n in range(9):
            b = binding(n=n)
            lhs = eval_side(direct.descriptor, "left", b)
            rhs = eval_side(direct.descriptor, "right", b)
            ok = ok and lhs == rhs == plain_displays[m_order](n)
            lhs = eval_side(reflected.descriptor, "left", b)
            rhs = eval_side(reflected.descriptor, "right", b)
            ok = ok and lhs == rhs == (-1) ** n * reflected_displays[m_order](n)
    print("  six explicit moment displays reproduced for n <= 8")
    report(4, "scheme round trips", ok)


def test_criterion_5_dixon_complements():
    ok = True
    doubled = macmahon_doubled()
    for m_order, entry in ((1, "C33"), (2, "C34")):
        derived = moment_transform(doubled, m_order, "direct")
        m = match_against_entry(derived, entry, {"n": [Fraction(v) for v in range(6)]})
        ok = ok and m.ok and m.factors == (Fraction(1),)
        print(f"  {derived.provenance} == {entry}: {m.ok}")
    for n in range(6):
        lhs, rhs = entry_sides("C33", binding(n=n))
        expected = Fraction((-1) ** n * n * binom_int(2 * n, n) * binom_int(3 * n, n))
        ok = ok and lhs == rhs == expected
        lhs, rhs = entry_sides("C34", binding(n=n))
        expected = Fraction(2 * n**2, 3) * binom_int(2 * n, n) * binom_int(3 * n, n)
        ok = ok and lhs == rhs == (-1) ** n * expected
    for n in range(11):
        result = verify_entry("C35", binding(n=n))
        ok = ok and result.status == VERIFIED
        if n % 2:
            ok = ok and result.lhs == 0
    print("  original-form identity verified for n <= 10 including the odd branch")
    report(5, "Dixon complements", ok)


def test_criterion_6_beta_oracle():
    ok = True
    checked = 0
    for name, form in PACKAGED_FORMS.items():
        n_values = range(6) if name == "reflected" else (0,)
        for r in range(16):
            for k in range(6):
                for s in range(6):
                    for n in n_values:
                        args, closed = form(r, k, s, n)
                        if args.a < 0 or args.b < 0 or args.a > 20 or args.b > 20:
                            continue
                        if closed() != beta_integral_exact(args):
                            ok = False
                        checked += 1
    worst = mp.mpf(0)
    for a in range(21):
        for b in range(21):
            exact = beta_integral_exact(BetaArgs.of(a, b))
            estimate = beta_integral_quadrature(BetaArgs.of(a, b))
            with mp.workdps(_DPS):
                worst = max(worst, abs(estimate - mp.mpf(exact.numerator) / exact.denominator))
    print(f"  packaged-form instantiations: {checked}; worst quadrature error: {mp.nstr(worst, 3)}")
    report(6, "Beta-integral oracle", ok and checked > 1000 and worst <= mp.mpf("1e-10"))


def test_criterion_7_specialization_consistency():
    ok = True
    shared = [(n, r, s) for n in range(7) for r, s in ((3, 1), (4, 2), (Fraction(9, 2), 2))]
    for n, r, s in shared:
        lhs5, rhs5 = entry_sides("C05", binding(n=n, r=r, s=s, u=-1))
        lhs6, rhs6 = entry_sides("C06", binding(n=n, r=r, s=s, u=0))
        lhs3, rhs3 = entry_sides("C03", binding(n=n, r=r, s=s))
        ok = ok and lhs5 == (-1) ** n * lhs3 and rhs5 == (-1) ** n * rhs3
        ok = ok and (lhs6, rhs6) == (lhs3, rhs3)
    for n in range(7):
        for r, s in ((13, 1), (Fraction(29, 2), 2)):
            lhs18, rhs18 = entry_sides("C18", binding(n=n, r=r, s=s, u=0))
            lhs4, rhs4 = entry_sides("C04", binding(n=n, r=r, s=s))
            ok = ok and (lhs18, rhs18) == (lhs4, rhs4)
    for n in range(6):
        for r, s in ((12, 1), (14, 2)):
            lhs9, rhs9 = entry_sides("C09", binding(n=n, r=r, s=s))
            lhs19, rhs19 = entry_sides("C19", binding(n=n, r=r, s=r - s - n, u=0))
            ok = ok and rhs19 == (r + 1) * lhs9 and lhs19 == (r + 1) * rhs9
    report(7, "specialization consistency", ok)


def test_criterion_8_property_suites():
    ok = True

    # Pascal recurrence and symmetry, exhaustive to 64
    for i in range(1, 65):
        for j in range(i + 1):
            if j >= 1 and binom_int(i, j) != binom_int(i - 1, j - 1) + binom_int(i - 1, j):
                ok = False
            if binom_int(i, j) != binom_int(i, i - j):
                ok = False

    # Stirling recurrence against the alternating-sum evaluation, to 30
    for m in range(1, 31):
        for k in range(1, m + 1):
            if stirling2(m, k) != k * stirling2(m - 1, k) + stirling2(m - 1, k - 1):
                ok = False

    # r-Stirling reduction at v = 0
    for m in range(9):
        for k in range(m + 2):
            if r_stirling2(m, k, 0) != stirling2(m, k):
                ok = False

    # truncation: extending a moment output's range beyond m changes nothing
    for m_order in range(5):
        derived = moment_transform(get_entry("F02").descriptor, m_order, "direct")
        capped = derived.descriptor.right.blocks[0]
        for n in range(9):
            b = binding(n=n)
            full = evaluate_sum(capped.lo, Bound(Affine.var("n")), capped.coef, b)
            if evaluate_sum(capped.lo, capped.hi, capped.coef, b) != full:
                ok = False

    # transposition symmetry across the descriptor fixtures
    for name in ("F01", "F02", "F03", "F04", "F05"):
        desc = get_entry(name).descriptor
        flipped = transpose_descriptor(desc)
        for n in range(7):
            b = binding(n=n) if name != "F03" else binding(n=n, u=Fraction(7, 3))
            if check_two_sided(desc, b).status != check_two_sided(flipped, b).status:
                ok = False

    # parse/print round trip on every fixture descriptor
    for name in ("F01", "F02", "F03", "F04", "F05"):
        desc = get_entry(name).descriptor
        if parse_identity(print_identity(desc)) != desc:
            ok = False

    report(8, "property suites", ok)
