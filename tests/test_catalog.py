"""Catalog fixtures: spot values, grids, consistency chains."""

import itertools
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from combident import catalog
from combident.catalog import entry_ids, get_entry, iter_grid, sorted_bindings, verify_entry, verify_grid
from combident.descriptors import (
    FAILED,
    SKIPPED_POLE,
    SKIPPED_PRECONDITION,
    VERIFIED,
    IdentityDescriptor,
    Side,
    check_two_sided,
    eval_side,
)
from combident.dsl import parse_identity, print_identity
from combident.errors import DslSyntaxError, EmptyGridError, UnboundParameterError, UnknownEntryError
from combident.terms import _map_affines


def binding(**values):
    return {name: Fraction(v) for name, v in values.items()}


def sides(entry_id, b):
    """Evaluate both sides of a summation entry directly."""
    desc = get_entry(entry_id).descriptor
    return eval_side(desc, "left", b), eval_side(desc, "right", b)


class TestSpotValues:
    def test_frisch_small(self):
        result = verify_entry("C03", binding(n=1, r=1, s=1))
        assert result.status == VERIFIED
        assert result.lhs == result.rhs == Fraction(1, 2)

    def test_klamkin_small(self):
        result = verify_entry("C04", binding(n=1, r=3, s=1))
        assert result.status == VERIFIED
        assert result.lhs == result.rhs == Fraction(2, 3)

    def test_dixon_odd_order_is_zero(self):
        for n in (1, 3, 5, 7, 9):
            result = verify_entry("C35", binding(n=n))
            assert result.status == VERIFIED
            assert result.lhs == 0

    def test_first_dixon_complement_small(self):
        result = verify_entry("C33", binding(n=1))
        assert result.status == VERIFIED
        assert result.lhs == result.rhs == -6

    def test_simons_moment_family_small(self):
        result = verify_entry("C37", binding(n=1, m=1))
        assert result.status == VERIFIED
        assert result.lhs == result.rhs == -2

    def test_waring_consequence_value(self):
        lhs, rhs = sides("C30", binding(n=2, r=2, s=1))
        assert lhs == Fraction(1, 2) - Fraction(1, 6)
        assert rhs == Fraction(1, 4) + Fraction(1, 12)

    def test_alternating_geometric_value(self):
        lhs, rhs = sides("C29", binding(n=0, r=2, s=0))
        assert rhs == Fraction(3, 4) + Fraction(1, 4)
        assert lhs == 1


class TestGrids:
    def test_unknown_entry(self):
        with pytest.raises(UnknownEntryError):
            verify_entry("NOPE", binding(n=0))

    def test_missing_parameter_names_the_entry(self):
        with pytest.raises(UnboundParameterError, match="entry C03 needs parameter s"):
            verify_entry("C03", binding(n=1, r=2))

    def test_empty_grid(self):
        with pytest.raises(EmptyGridError):
            list(iter_grid({"n": ()}))

    def test_rockett_case(self):
        # equal upper offsets, r = s >= 2; r = s = 1 is a pole of the closed form
        report = verify_grid(
            "C28",
            {"n": [Fraction(v) for v in range(11)], "r": [Fraction(v) for v in (2, 3, 4, 5, 6)],
             "s": [Fraction(v) for v in (2, 3, 4, 5, 6)]},
        )
        assert report.failed == 0
        assert report.counts[SKIPPED_PRECONDITION] == 0
        at_pole = verify_entry("C28", binding(n=3, r=1, s=1))
        assert at_pole.status == SKIPPED_POLE

    def test_precondition_binding_never_fails(self):
        # violating "s positive" is a skip, not a failure
        result = verify_entry("C01", binding(n=3, r=2, s=0))
        assert result.status == SKIPPED_PRECONDITION
        result = verify_entry("C01", binding(n=3, r=2, s=-1))
        assert result.status == SKIPPED_PRECONDITION

    def test_seed_grid_with_rational_upper(self):
        report = verify_grid(
            "C01",
            {
                "n": [Fraction(v) for v in range(9)],
                "r": [Fraction(1), Fraction(2), Fraction(6), Fraction(7, 2), Fraction(5, 3)],
                "s": [Fraction(1), Fraction(2), Fraction(3)],
            },
        )
        assert report.failed == 0
        # non-integer r avoids every pole, so those columns fully verify
        rational_only = verify_grid(
            "C01",
            {
                "n": [Fraction(v) for v in range(9)],
                "r": [Fraction(7, 2), Fraction(5, 3)],
                "s": [Fraction(1), Fraction(2), Fraction(3)],
            },
        )
        assert rational_only.verified == rational_only.total

    def test_every_entry_has_sane_metadata(self):
        for entry_id in entry_ids():
            entry = get_entry(entry_id)
            assert entry.anchor, entry_id
            assert entry.default_grid, entry_id

    def test_every_entry_is_a_named_descriptor(self):
        polynomial = {"C01", "C02", "F01", "F02", "F03", "F04", "F05"}
        for entry_id in entry_ids():
            desc = get_entry(entry_id).descriptor
            assert desc.name == entry_id
            assert get_entry(entry_id).params == desc.params
            assert desc.kernel_free == (entry_id not in polynomial), entry_id

    def test_dixon_right_side_is_the_parity_closed_form(self):
        # the floor-bounded right side of C35 is empty for odd n and the single
        # term (-1)^j binom(2j, j) binom(3j, 2j) for n = 2j
        from combident.exact import binom_int

        for n in range(30):
            expected = 0 if n % 2 else (-1) ** (n // 2) * binom_int(n, n // 2) * binom_int(3 * n // 2, n)
            assert sides("C35", binding(n=n)) == (expected, expected), n


class TestEntryFiles:
    def test_table_and_files_hold_the_same_entries_in_catalog_order(self):
        golden = json.loads((Path(__file__).parent / "data" / "verify_all.json").read_text(encoding="utf-8"))
        assert list(entry_ids()) == [entry["id"] for entry in golden["entries"]]
        assert len(entry_ids()) == 49
        assert sorted(path.stem for path in catalog.ENTRY_DIR.glob("*.dsl")) == sorted(entry_ids())

    def test_every_file_is_printed_source(self):
        for entry_id in entry_ids():
            text = (catalog.ENTRY_DIR / f"{entry_id}.dsl").read_text(encoding="utf-8")
            assert print_identity(parse_identity(text)) == text, entry_id

    def test_an_entry_is_parsed_on_its_first_use_only(self):
        code = (
            "import sys\n"
            "calls = []\n"
            "def profile(frame, event, arg):\n"
            "    code = frame.f_code\n"
            "    if event == 'call' and code.co_name == 'parse_identity' and code.co_filename.endswith('dsl.py'):\n"
            "        calls.append(1)\n"
            "sys.setprofile(profile)\n"
            "import combident.cli\n"
            "from combident.catalog import verify_grid\n"
            "print(len(calls))\n"
            "verify_grid('C03')\n"
            "verify_grid('C03')\n"
            "print(len(calls))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "1"]

    def test_a_malformed_file_names_itself(self, tmp_path, monkeypatch):
        path = tmp_path / "C03.dsl"
        path.write_text("params n:nat;\nsum[k=0..n] binom(n k) * x^0\n  == sum[k=0..0] 1 * x^0\n", encoding="utf-8")
        monkeypatch.setattr(catalog, "ENTRY_DIR", tmp_path)
        monkeypatch.setattr(catalog, "_ENTRIES", {})
        with pytest.raises(DslSyntaxError) as info:
            get_entry("C03")
        assert str(info.value) == f"{path}: expected ')', found 'k' (line 2, column 21)"
        assert (info.value.line, info.value.column) == (2, 21)

    def test_validity_is_the_table_lower_bounds(self):
        validity = get_entry("C11").validity
        assert [c.describe() for c in validity.constraints] == ["s >= 1", "u >= 1"]
        assert validity.violation(binding(n=2, r=2, s=1, t=3, u=0)) == "u >= 1"
        assert validity.violation(binding(n=2, r=2, s=1, t=3, u=1)) is None
        assert get_entry("C33").validity.constraints == ()


class TestConsistencyChains:
    def test_plain_generalization_collapses_to_frisch_at_minus_one(self):
        # the u = -1 slice equals Frisch with both sides carrying (-1)^n
        for n in range(7):
            for r, s in ((3, 1), (4, 2), (Fraction(9, 2), 2)):
                b5 = binding(n=n, r=r, s=s, u=-1)
                b3 = binding(n=n, r=r, s=s)
                lhs5, rhs5 = sides("C05", b5)
                lhs3, rhs3 = sides("C03", b3)
                assert lhs5 == (-1) ** n * lhs3
                assert rhs5 == (-1) ** n * rhs3

    def test_alternating_generalization_collapses_to_frisch_at_zero(self):
        for n in range(7):
            for r, s in ((3, 1), (4, 2), (Fraction(9, 2), 2)):
                b6 = binding(n=n, r=r, s=s, u=0)
                b3 = binding(n=n, r=r, s=s)
                assert sides("C06", b6) == sides("C03", b3)

    def test_klamkin_generalization_collapses_at_zero(self):
        for n in range(7):
            for r, s in ((13, 1), (Fraction(29, 2), 2)):
                b18 = binding(n=n, r=r, s=s, u=0)
                b4 = binding(n=n, r=r, s=s)
                assert sides("C18", b18) == sides("C04", b4)

    def test_alternating_klamkin_generalization_recovers_reflected_sum(self):
        # the u = 0 slice of the alternating generalization is the reflected
        # alternating sum after s -> r - s - n, up to the common factor r + 1
        for n in range(6):
            for r, s in ((12, 1), (14, 2)):
                b9 = binding(n=n, r=r, s=s)
                b19 = binding(n=n, r=r, s=r - s - n, u=0)
                lhs9, rhs9 = sides("C09", b9)
                lhs19, rhs19 = sides("C19", b19)
                assert rhs19 == (r + 1) * lhs9
                assert lhs19 == (r + 1) * rhs9

    def test_moment_extension_at_zero_is_frisch(self):
        for n in range(7):
            for r, s in ((3, 1), (4, 2), (Fraction(9, 2), 2)):
                b20 = binding(n=n, m=0, r=r, s=s)
                b3 = binding(n=n, r=r, s=s)
                assert sides("C20", b20) == sides("C03", b3)

    def test_general_dixon_complement_specializes(self):
        for n in range(7):
            for m, entry in ((1, "C33"), (2, "C34")):
                b32 = binding(n=n, m=m)
                lhs32, rhs32 = sides("C32", b32)
                lhs, rhs = sides(entry, binding(n=n))
                assert lhs32 == lhs and rhs32 == rhs

    def test_two_denominator_boundary_bindings_verify(self):
        # the analytic hypothesis behind the two-denominator identities is a
        # strict inequality; at rational bindings the boundary still verifies
        # (rational-function identities extend past the convergence region)
        for entry in ("C14", "C15"):
            for n in range(5):
                for s in (1, 2):
                    b = binding(n=n, r=n + s, s=s, t=8, u=1)
                    assert verify_entry(entry, b).status == VERIFIED, (entry, b)

    def test_moment_displays_match_families(self):
        # the k, k^2, k^3 display entries are slices of the general families
        for n in range(9):
            for m, display in ((1, "C39a"), (2, "C39b"), (3, "C39c")):
                assert sides("C37", binding(n=n, m=m))[0] == sides(display, binding(n=n))[0]
            for m, display in ((1, "C40a"), (2, "C40b"), (3, "C40c")):
                assert sides("C38", binding(n=n, m=m))[0] == sides(display, binding(n=n))[0]


def _shift_form(expr, index):
    """``expr`` with its ``index``-th affine form (in ``_map_affines`` order) shifted by +1."""
    position = itertools.count()
    return _map_affines(expr, lambda form: form + 1 if next(position) == index else form)


def _form_count(expr) -> int:
    forms = []
    _map_affines(expr, lambda form: forms.append(form) or form)
    return len(forms)


class TestMutants:
    """Each default grid must catch an off-by-one in any affine form of its left summands."""

    # (entry, block, form index) of the mutants no default grid can fail: four
    # make every binding a pole, and C33's three binom(2n+1, k) siblings verify
    SURVIVORS = {
        ("C13", 0, 4): {SKIPPED_POLE},
        ("C13", 0, 6): {SKIPPED_POLE},
        ("C23", 0, 5): {SKIPPED_POLE},
        ("C24", 0, 6): {SKIPPED_POLE},
        ("C33", 0, 2): {VERIFIED},
        ("C33", 0, 4): {VERIFIED},
        ("C33", 0, 6): {VERIFIED},
    }

    def test_every_other_left_form_shift_fails_on_the_default_grid(self):
        survivors, total = {}, 0
        for entry_id in entry_ids():
            entry = get_entry(entry_id)
            desc = entry.descriptor
            for b, block in enumerate(desc.left.blocks):
                for i in range(_form_count(block.coef)):
                    total += 1
                    blocks = list(desc.left.blocks)
                    blocks[b] = replace(block, coef=_shift_form(block.coef, i))
                    mutant = IdentityDescriptor(desc.params, Side(tuple(blocks)), desc.right, name=desc.name)
                    statuses = set()
                    for binding_ in sorted_bindings(entry.default_grid):
                        statuses.add(check_two_sided(mutant, binding_, entry.validity).status)
                        if FAILED in statuses:
                            break
                    if FAILED not in statuses:
                        survivors[entry_id, b, i] = statuses
        assert total == 308
        assert survivors == self.SURVIVORS
