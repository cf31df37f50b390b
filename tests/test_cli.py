"""Command-line interface: exit codes, determinism, end-to-end derivation."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from combident import integrals
from combident.catalog import macmahon_doubled
from combident.cli import main
from combident.dsl import print_identity

GOLDEN_VERIFY_ALL = Path(__file__).parent / "data" / "verify_all.json"


def run_module(*argv, check=False):
    """Run ``python -m combident`` in a new process, its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "combident", *argv],
        check=check,
        capture_output=True,
        text=True,
    )


def run_cli(*argv, check=False):
    """Run ``cli.main`` in this process with its output captured, as :func:`run_module` reports it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    result = subprocess.CompletedProcess(["combident", *argv], code, stdout.getvalue(), stderr.getvalue())
    if check:
        result.check_returncode()
    return result


class TestVerify:
    def test_frisch_grid_exits_zero(self):
        result = run_module("verify", "--id", "C03", "--n", "0..10", "--r", "1..5", "--s", "1..5")
        assert result.returncode == 0
        assert "C03" in result.stdout

    def test_unknown_entry_exits_two(self):
        result = run_module("verify", "--id", "NOPE")
        assert result.returncode == 2
        assert "unknown entry" in result.stderr

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "--id '': piece 1 is empty"),
            (",", "--id ',': piece 1 is empty"),
            ("C03,,C04", "--id 'C03,,C04': piece 2 is empty"),
            ("C03,C03", "--id 'C03,C03': C03 is named twice"),
        ],
    )
    def test_empty_or_repeated_id_exits_two(self, spec, message):
        # each would verify no entry, or one entry twice
        result = run_cli("verify", "--id", spec)
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""

    def test_usage_error_exits_two(self):
        result = run_module("verify", "--bogus-flag")
        assert result.returncode == 2

    def test_override_of_an_absent_axis_exits_two(self):
        result = run_cli("verify", "--id", "C03", "--m", "0..2")
        assert result.returncode == 2
        assert "axis m" in result.stderr
        # an axis that some selected entry has is still accepted
        assert run_cli("verify", "--id", "C03,C20", "--m", "0..1", "--n", "0..2").returncode == 0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--r", "1/0", "--r '1/0': '1/0' has a zero denominator"),
            ("--r", "2, 1/0", "--r '2, 1/0': '1/0' has a zero denominator"),
            ("--r", "2,,3", "--r '2,,3': '' is not a number"),
            ("--n", "0..x", "--n '0..x': 'x' is not an integer"),
            ("--n", "5..2", "--n '5..2': empty range"),
        ],
    )
    def test_a_malformed_value_names_its_option(self, flag, value, message):
        result = run_cli("verify", "--id", "C03", flag, value)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: {message}\n"

    def test_negative_sample_is_a_usage_error(self):
        result = run_cli("verify", "--id", "C03", "--sample", "-1")
        assert result.returncode == 2
        assert "argument --sample: must be 0 or more, got -1" in result.stderr
        assert "population" not in result.stderr
        # an empty sample is no usage error: it checks nothing, which exits 1
        empty = run_cli("verify", "--id", "C03", "--sample", "0")
        assert empty.returncode == 1
        assert "unexercised verified=0" in empty.stdout

    def test_entry_with_no_verified_binding_exits_one(self):
        # s = 0 puts every C03 binding outside its validity region
        result = run_cli("verify", "--id", "C03", "--s", "0")
        assert result.returncode == 1
        assert "unexercised verified=0" in result.stdout

    def test_report_is_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = ("verify", "--id", "C03,C04", "--n", "0..6", "--seed", "7", "--format", "quiet")
        run_cli(*args, "--out", str(first), check=True)
        run_cli(*args, "--out", str(second), check=True)
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["run_meta"]["seed"] == 7
        assert [e["id"] for e in report["entries"]] == ["C03", "C04"]
        for entry in report["entries"]:
            assert entry["counts"]["failed"] == 0
            assert entry["anchor"]

    def test_sampled_grid_is_seeded(self, tmp_path):
        out = tmp_path / "s.json"
        run_cli(
            "verify", "--id", "C05", "--sample", "20", "--seed", "3",
            "--format", "quiet", "--out", str(out), check=True,
        )
        report = json.loads(out.read_text())
        assert report["entries"][0]["total"] == 20

    def test_full_catalog(self, catalog_sweep):
        assert catalog_sweep.returncode == 0
        report = catalog_sweep.report
        assert len(report["entries"]) == 49
        assert all(e["counts"]["failed"] == 0 for e in report["entries"])

    def test_full_catalog_matches_golden_report(self, catalog_sweep):
        # the whole report, byte for byte, is the regression oracle for refactors
        assert catalog_sweep.returncode == 0
        assert catalog_sweep.raw == GOLDEN_VERIFY_ALL.read_bytes()


class TestDerive:
    @pytest.fixture()
    def exported(self, tmp_path):
        run_cli("export-catalog", "--out-dir", str(tmp_path / "dsl"), check=True)
        return tmp_path / "dsl"

    def test_frisch_scheme_matches_generalization(self, exported):
        result = run_cli(
            "derive", "--scheme", "frisch", "--input", str(exported / "F03.dsl"),
            "--match", "C05",
        )
        assert result.returncode == 0
        assert "match C05: ok" in result.stdout

    def test_klamkin_scheme_matches_generalization(self, exported):
        result = run_cli(
            "derive", "--scheme", "klamkin", "--input", str(exported / "F03.dsl"),
            "--match", "C18",
        )
        assert result.returncode == 0

    def test_moment_scheme_verifies(self, exported, tmp_path):
        out = tmp_path / "derived.json"
        result = run_cli(
            "derive", "--scheme", "moment", "--m", "2", "--input", str(exported / "F02.dsl"),
            "--match", "C39b", "--out", str(out),
        )
        assert result.returncode == 0
        report = json.loads(out.read_text())
        assert report["derived"]["counts"]["failed"] == 0
        assert report["derived"]["match"]["ok"] is True

    def test_frisch_scheme_on_macmahon(self, exported):
        result = run_cli(
            "derive", "--scheme", "frisch", "--input", str(exported / "F05.dsl"),
            "--match", "C31",
        )
        assert result.returncode == 0

    def test_unrelated_match_exits_one(self, exported):
        # F01's Frisch identity agrees with C04 only up to a factor that is
        # neither a constant nor a constant times (-1)^p: not a reproduction
        result = run_cli(
            "derive", "--scheme", "frisch", "--input", str(exported / "F01.dsl"),
            "--match", "C04",
        )
        assert result.returncode == 1
        assert "match C04: MISMATCH" in result.stdout

    def test_match_against_polynomial_entry_exits_two(self, exported):
        result = run_cli(
            "derive", "--scheme", "moment", "--m", "1", "--input", str(exported / "F02.dsl"),
            "--match", "F01",
        )
        assert result.returncode == 2
        assert "polynomial identity" in result.stderr
        assert result.stdout == ""

    def test_unknown_match_entry_exits_two_before_deriving(self, exported):
        result = run_cli(
            "derive", "--scheme", "frisch", "--input", str(exported / "F03.dsl"), "--match", "C99",
        )
        assert result.returncode == 2
        assert result.stderr == "error: unknown entry 'C99'\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("entry_id", ["C03", "C39a"])
    def test_match_whose_grid_lacks_a_derived_parameter_exits_two(self, exported, entry_id):
        # F03's Frisch identity has the parameter u, which neither entry's grid has
        result = run_cli(
            "derive", "--scheme", "frisch", "--input", str(exported / "F03.dsl"), "--match", entry_id,
        )
        assert result.returncode == 2
        assert result.stderr == (
            f"error: the derived identity's parameter 'u' is not an axis of entry {entry_id}'s grid\n"
        )
        assert result.stdout == ""

    def test_a_zero_denominator_in_a_grid_value_exits_two(self, exported):
        result = run_cli("derive", "--scheme", "frisch", "--input", str(exported / "F03.dsl"), "--grid-u", "1/0")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: --grid-u '1/0': '1/0' has a zero denominator\n"

    def test_override_of_an_absent_axis_exits_two(self, exported):
        result = run_cli(
            "derive", "--scheme", "frisch", "--input", str(exported / "F03.dsl"),
            "--grid-m", "0..2",
        )
        assert result.returncode == 2
        assert "no selected entry has the axis m; drop the override" in result.stderr

    def test_parameter_without_a_grid_exits_two(self, tmp_path):
        # only n, m, r, s, t and u have derive grids and --grid-* flags
        source = tmp_path / "geometric-a.dsl"
        source.write_text(
            "params a:nat;\nsum[k=0..a] 1 * x^k\n  == sum[k=0..a] (-1)^k * binom(a + 1, k + 1) * (1-x)^k\n",
            encoding="utf-8",
        )
        result = run_cli("derive", "--scheme", "frisch", "--input", str(source))
        assert result.returncode == 2
        assert result.stderr == (
            "error: parameter a has no verification grid; derive grids exist for n, m, r, s, t, u only\n"
        )
        assert result.stdout == ""

    def test_undeclared_name_exits_two_before_deriving(self, exported):
        # a typo'd name is a parse error, not a grid axis of its own
        source = (exported / "F03.dsl").read_text(encoding="utf-8")
        bad = exported / "F03-typo.dsl"
        bad.write_text(source.replace("binom(u, k) * x", "binom(u, k) * binom(t, 0) * x", 1), encoding="utf-8")
        result = run_cli("derive", "--scheme", "frisch", "--input", str(bad))
        assert result.returncode == 2
        assert result.stderr == "error: undeclared parameter 't' (line 4, column 47)\n"
        assert result.stdout == ""

    def test_declared_unused_parameter_is_gridded(self, exported):
        # t is read by the check, so it is an axis of the grid: (7, 9) doubles F03's 162 bindings
        source = (exported / "F03.dsl").read_text(encoding="utf-8")
        declared = exported / "F03-t.dsl"
        declared.write_text(source.replace("params n:nat,", "params n:nat, t:rat,", 1), encoding="utf-8")
        result = run_cli("derive", "--scheme", "frisch", "--input", str(declared))
        assert result.returncode == 0
        assert result.stdout.endswith("# verification: verified=324 pole=0 pre=0 failed=0\n")

    def test_declared_unused_parameter_without_a_grid_exits_two(self, exported):
        source = (exported / "F03.dsl").read_text(encoding="utf-8")
        declared = exported / "F03-q.dsl"
        declared.write_text(source.replace("params n:nat,", "params n:nat, q:rat,", 1), encoding="utf-8")
        result = run_cli("derive", "--scheme", "frisch", "--input", str(declared))
        assert result.returncode == 2
        assert result.stderr == (
            "error: parameter q has no verification grid; derive grids exist for n, m, r, s, t, u only\n"
        )
        assert result.stdout == ""

    def test_derivation_with_no_verified_binding_exits_one(self, exported):
        # s = 0 puts every binding of the derived identity outside its validity region
        result = run_cli(
            "derive", "--scheme", "frisch", "--input", str(exported / "F03.dsl"),
            "--grid-s", "0",
        )
        assert result.returncode == 1
        assert (
            "# verification: verified=0 pole=0 pre=81 failed=0 unexercised" in result.stdout
        )

    @pytest.mark.parametrize("variant", ["direct", "reflected"])
    def test_derivation_with_only_vacuous_bindings_exits_one(self, tmp_path, variant):
        # both sides of the doubled MacMahon moment identity at m = 3 vanish at every n
        source = tmp_path / "doubled.dsl"
        source.write_text(print_identity(macmahon_doubled()), encoding="utf-8")
        result = run_cli(
            "derive", "--scheme", "moment", "--m", "3", "--variant", variant, "--input", str(source),
        )
        assert result.returncode == 1
        assert result.stdout.endswith(
            "# verification: verified=9 pole=0 pre=0 failed=0"
            " unexercised (every verified binding is 0 == 0)\n"
        )

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.dsl"
        bad.write_text("params ;\nsum[k=0..n] *\n", encoding="utf-8")
        result = run_cli("derive", "--scheme", "frisch", "--input", str(bad))
        assert result.returncode == 2

    def test_zero_denominator_exits_two(self, exported):
        source = (exported / "F02.dsl").read_text(encoding="utf-8")
        bad = exported / "F02-zero.dsl"
        bad.write_text(source.replace("(-1)^k", "1/0", 1), encoding="utf-8")
        result = run_cli("derive", "--scheme", "frisch", "--input", str(bad))
        assert result.returncode == 2
        assert result.stderr == "error: zero denominator (line 4, column 15)\n"

    def test_moment_scheme_derives_a_reversed_left_kernel(self, exported):
        # F03's left kernel is x^(n-k): one moment rule per block takes it
        result = run_cli("derive", "--scheme", "moment", "--m", "1", "--input", str(exported / "F03.dsl"))
        assert result.returncode == 0
        assert " failed=0" in result.stdout

    @pytest.mark.parametrize(
        "scheme, flags, message",
        [
            ("frisch", ("--variant", "reflected"), "--variant applies to the moment scheme only"),
            ("klamkin", ("--m", "3"), "--m applies to the moment scheme only"),
            ("moment", ("--m", "1", "--direction", "transposed"),
             "--direction applies to the frisch and klamkin schemes only"),
        ],
    )
    def test_flag_of_another_scheme_exits_two(self, exported, scheme, flags, message):
        result = run_cli("derive", "--scheme", scheme, *flags, "--input", str(exported / "F03.dsl"))
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""

    def test_report_records_defaults_of_flags_not_given(self, exported, tmp_path):
        out = tmp_path / "derived.json"
        run_cli("derive", "--scheme", "frisch", "--input", str(exported / "F03.dsl"), "--out", str(out), check=True)
        meta = json.loads(out.read_text())["run_meta"]
        assert (meta["direction"], meta["variant"], meta["m"]) == ("forward", "direct", None)

    def test_missing_moment_order_exits_two(self, exported):
        result = run_cli("derive", "--scheme", "moment", "--input", str(exported / "F02.dsl"))
        assert result.returncode == 2


def test_cli_import_leaves_mpmath_dataclasses_and_inspect_unloaded():
    # only the integrals command needs mpmath, and it imports it itself; the
    # records are built without dataclasses, which would also load inspect
    modules = ("mpmath", "dataclasses", "inspect")
    code = f"import sys, combident.cli; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestIntegrals:
    def test_small_sweep(self):
        result = run_cli("integrals", "--max-exp", "8")
        assert result.returncode == 0
        assert "max |quadrature - exact|" in result.stdout

    def test_default_sweep_summary_line(self):
        result = run_cli("integrals", "--max-exp", "20")
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == (
            "checked 441 exponent pairs (nodes=64); "
            "max |quadrature - exact| = 1.43e-42 at (0, 10); skipped 0"
        )

    def test_single_pair_reports_exact_value(self):
        result = run_cli("integrals", "--pair", "1", "1")
        assert result.returncode == 0
        assert "exact=1/6" in result.stdout

    def test_run_with_no_pair_checked_exits_one(self):
        result = run_cli("integrals", "--pair", "-1", "0")
        assert result.returncode == 1
        assert "checked 0 exponent pairs" in result.stdout
        assert "unexercised" in result.stdout

    def test_failed_run_names_its_worst_pair(self, tmp_path):
        # a 3-node rule is exact up to degree 5, so only (3, 3) misses
        out = tmp_path / "integrals.json"
        result = run_cli("integrals", "--nodes", "3", "--max-exp", "3", "--out", str(out))
        assert result.returncode == 1
        assert "max |quadrature - exact| = 0.000357 at (3, 3)" in result.stdout
        assert "FAIL: above the 1e-10 tolerance" in result.stdout
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["worst_pair"] == [3, 3]
        assert report["status"] == "FAIL" and report["within_tolerance"] is False

    @pytest.mark.parametrize(
        "nodes, max_exp, max_error, worst_pair",
        [
            ("64", "20", "1.43492962747e-42", [0, 10]),
            ("31", "30", "2.1523944412e-42", [0, 26]),
            ("11", "10", "5.73971850987e-42", [0, 2]),
        ],
    )
    def test_report_pins_the_worst_error(self, tmp_path, nodes, max_exp, max_error, worst_pair):
        out = tmp_path / "integrals.json"
        result = run_cli("integrals", "--nodes", nodes, "--max-exp", max_exp, "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert (report["max_error"], report["worst_pair"]) == (max_error, worst_pair)

    @pytest.mark.parametrize(
        "pair, message",
        [(("1/0", "0"), "'1/0' has a zero denominator"), (("0", "x"), "'x' is not a number")],
    )
    def test_a_malformed_pair_exits_two(self, pair, message):
        result = run_cli("integrals", "--pair", *pair)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: --pair: {message}\n"

    def test_a_sweep_extends_the_rule_once(self, monkeypatch):
        # pairs come as a = 0, b = 0..N first, so extending on demand restarted at every b
        # a cold rule; afterwards both the cache and _FIXED_RULES hold one for 64 nodes
        monkeypatch.delitem(integrals._FIXED_RULES, 64, raising=False)
        integrals.gauss_legendre_rule.cache_clear()
        extends = []
        extend = integrals._PairRows.extend
        monkeypatch.setattr(integrals._PairRows, "extend", lambda rows, top: extends.append(top) or extend(rows, top))
        result = run_cli("integrals", "--max-exp", "20")
        assert result.returncode == 0
        assert extends == [20]
        assert result.stdout.splitlines()[-1].startswith("checked 441 exponent pairs")

    @pytest.mark.parametrize("flag, value", [("--max-exp", "-1"), ("--nodes", "0")])
    def test_out_of_range_size_exits_two(self, flag, value):
        result = run_cli("integrals", flag, value)
        assert result.returncode == 2
        assert f"{flag} must be at least" in result.stderr


class TestExport:
    def test_round_trip_through_files(self, tmp_path):
        out = tmp_path / "dsl"
        run_cli("export-catalog", "--out-dir", str(out), check=True)
        files = sorted(p.name for p in out.iterdir())
        assert "C03.dsl" in files and "F01.dsl" in files
        assert len(files) == 49
