import builtins
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import congruence_workbench
from congruence_workbench import qseries
from congruence_workbench.cli import _FLAGS, main
from congruence_workbench.qseries import Series, euler_product

from oracles import binomial_series_power, naive_euler_product, pow_rational_by_fractions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def _int_str_limit(digits):
    """Python's int-to-str digit limit set to digits (0: none) inside the block."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestCoeffs:
    def test_partition_values(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "5")
        assert code == 0
        assert out.splitlines() == ["0\t1/1", "1\t1/1", "2\t2/1", "3\t3/1", "4\t5/1", "5\t7/1"]

    def test_known_tail_value(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "-1/8", "--n", "5")
        assert code == 0
        assert out.splitlines()[-1] == "5\t55615/262144"

    def test_mod_reduction(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "9", "--mod", "5^1")
        assert code == 0
        assert out.splitlines()[4] == "4\t0"
        assert out.splitlines()[9] == "9\t0"

    # L and K follow the integer-flag grammar: no "_", no "+" sign, ASCII digits only, and any expression
    @pytest.mark.parametrize("mod", ["1_1", "+5", "\u0665", "5^+1", "\u0665^1"])
    def test_mod_outside_the_integer_grammar_exits_2(self, capsys, mod):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "3", "--mod", mod)
        assert code == 2 and out == ""
        assert err.startswith("error: argument --mod: ") and len(err.splitlines()) == 1

    def test_mod_expressions(self, capsys):
        want = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "30", "--mod", "7^3")
        assert want[0] == 0 and len(want[1].splitlines()) == 31
        for mod in ("7^(1+2)", "(2*4-1)^3", "7^2^1*3-3"):
            assert run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "30", "--mod", mod) == want, mod

    def test_mod_exponent_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "3", "--mod", "5^(1-1)")
        assert (code, out, err) == (2, "", "error: argument --mod: exponent K must be >= 1, got 0\n")

    def test_not_l_integral_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--alpha", "1/5", "--n", "3", "--mod", "5^1")
        assert code == 2
        assert "integral" in err

    def test_mod_before_first_non_integral_index(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "1/5", "--n", "0", "--mod", "5")
        assert code == 0 and out == "0\t1\n"

    def test_mod_refusal_matches_fraction_path(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "2/25", "--n", "6", "--mod", "5^2")
        assert code == 2 and out == ""
        assert err == "error: coefficient at exponent 1 is not 5-integral\n"

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_mod_when_ell_divides_b(self, capsys, n):
        # only the constant term of (q;q)_inf^(-1/8) is 2-integral
        want = (0, "0\t1\n", "") if n == 0 else (2, "", "error: coefficient at exponent 1 is not 2-integral\n")
        assert run_cli(capsys, "coeffs", "--alpha", "-1/8", "--n", str(n), "--mod", "2^3") == want

    @pytest.mark.parametrize(
        "alpha, mod, message",
        [("-1/8", "4", "valuation prime 4 is not prime"), ("1/7", "7", "coefficient at exponent 1 is not 7-integral")],
    )
    def test_mod_refused_before_the_kernel(self, capsys, monkeypatch, alpha, mod, message):
        from congruence_workbench import cli

        monkeypatch.setattr(cli, "series_pow_numerators", None)  # a kernel run would raise TypeError
        assert run_cli(capsys, "coeffs", "--alpha", alpha, "--n", "49999", "--mod", mod) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("alpha, mod", [("-1/8", "7^3"), ("1/13", "5^2"), ("97/8", "3"), ("-7/30", "11^2")])
    def test_mod_matches_fraction_residues(self, capsys, alpha, mod):
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", alpha, "--n", "120", "--mod", mod)
        assert code == 0
        ell, _, k = mod.partition("^")
        m = int(ell) ** int(k or 1)
        want = [
            f"{n}\t{c.numerator * pow(c.denominator, -1, m) % m}"
            for n, c in enumerate(binomial_series_power(naive_euler_product(1, 121), Fraction(alpha), 121))
        ]
        assert out.splitlines() == want

    def test_mod_builds_no_coefficient_fraction(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a coefficient Fraction was built")

        monkeypatch.setattr(qseries, "Fraction", refuse)
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "-1/8", "--n", "300", "--mod", "7^3")
        assert code == 0 and len(out.splitlines()) == 301

    def test_exact_builds_no_coefficient_fraction(self, capsys, monkeypatch):
        # exact values are printed from the lowest-terms int pairs
        def refuse(*args):
            raise AssertionError("a coefficient Fraction was built")

        monkeypatch.setattr(qseries, "Fraction", refuse)
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "1/13", "--n", "60")
        assert code == 0 and len(out.splitlines()) == 61
        assert out.splitlines()[7] == "7\t-3395395/62748517"

    @pytest.mark.parametrize("output", ["table", "jsonl"])
    @pytest.mark.parametrize("alpha", ["5/36", "-7/30"])
    def test_exact_matches_fraction_recurrence(self, capsys, alpha, output):
        # denominators with several primes, which no recorded benchmark job covers
        values = pow_rational_by_fractions(euler_product(1, 81), Fraction(alpha)).coeffs
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", alpha, "--n", "80", "--output", output)
        assert code == 0
        texts = [f"{c.numerator}/{c.denominator}" for c in values]
        if output == "jsonl":
            want = [json.dumps({"n": n, "value": text}, separators=(",", ":")) for n, text in enumerate(texts)]
        else:
            want = [f"{n}\t{text}" for n, text in enumerate(texts)]
        assert out.splitlines() == want

    def test_jsonl_mode(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--output", "jsonl", "--alpha", "-1", "--n", "2")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"n": 0, "value": "1/1"},
            {"n": 1, "value": "1/1"},
            {"n": 2, "value": "2/1"},
        ]

    def test_matches_binomial_oracle(self, capsys):
        # The reference sums the binomial series over Fraction and never
        # runs the log-derivative recurrence behind coeffs.
        values = binomial_series_power(naive_euler_product(1, 31), Fraction(-1, 8), 31)
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", "-1/8", "--n", "30")
        assert code == 0
        assert out == "".join(f"{n}\t{c.numerator}/{c.denominator}\n" for n, c in enumerate(values))

    def test_long_literal_accepted(self, capsys):
        # cli.main lifts the 4300-digit int-to-str limit that evaluate_rational
        # alone refuses with ExpressionError
        literal = "9" * 5000
        code, out, _ = run_cli(capsys, "coeffs", "--alpha", literal, "--n", "1")
        assert code == 0
        assert out.splitlines() == ["0\t1/1", f"1\t-{literal}/1"]

    def test_max_prec_refused(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "20", "--max-prec", "5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "4", "--max-prec", "5")[0] == 0

    def test_huge_power_refused_fast(self, capsys):
        for flags in (("--alpha", "9^9^9"), ("--alpha", "-1", "--mod", "5^10000000")):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "coeffs", *flags, "--n", "1")
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1


    def test_power_cap_message_is_one_short_line(self, capsys):
        with _int_str_limit(4300):
            code, out, err = run_cli(capsys, "coeffs", "--alpha", "2^2^2^2^2^2", "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "cap" in err and len(err.encode()) < 300

    def test_negative_n_refused(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestEta:
    def test_weight_one_values(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--d", "2", "--n", "13")
        assert code == 0
        assert out.splitlines() == ["1\t1/1", "13\t-2/1"]

    def test_support_mod_6(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--d", "4", "--n", "6")
        assert code == 0
        for line in out.splitlines():
            n = int(line.split("\t")[0])
            assert n % 6 == 1

    def test_max_prec_refused(self, capsys):
        code, out, err = run_cli(capsys, "eta", "--d", "2", "--n", "13", "--max-prec", "13")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert run_cli(capsys, "eta", "--d", "2", "--n", "13", "--max-prec", "14")[0] == 0

    def test_negative_n_refused(self, capsys):
        code, out, err = run_cli(capsys, "eta", "--d", "2", "--n", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_rejects_nonpositive_d(self, capsys):
        code, _, err = run_cli(capsys, "eta", "--d", "0", "--n", "5")
        assert code == 2
        assert err.startswith("error:")

    def test_matches_library_expansion(self, capsys):
        from congruence_workbench.arith import format_rational
        from congruence_workbench.forms import eta_power

        code, out, _ = run_cli(capsys, "eta", "--d", "10", "--n", "50")
        assert code == 0
        expected = [
            f"{n}\t{format_rational(c)}" for n, c in eta_power(10, 51).nonzero_items()
        ]
        assert out.splitlines() == expected

    @pytest.mark.parametrize(
        "n, cost, code",
        [(80899, 1_099_487_306_736, 0), (80900, 1_099_514_488_800, 2)],
        ids=["at-most-2^40", "above-2^40"],
    )
    def test_charge_at_the_budget_edge(self, capsys, monkeypatch, n, cost, code):
        # eta^24 has M = 1 and t = 1, so --n N prints N values, charged 7 * 24 * N * (N - 1) bit^2;
        # the stub expands and prints nothing, so only the charge runs
        from congruence_workbench import cli

        charged = []
        charge = cli._charge
        monkeypatch.setattr(cli, "_charge", lambda c, what: charged.append(c) or charge(c, what))
        monkeypatch.setattr(cli, "eta_power", lambda d, prec: Series([]))
        got = run_cli(capsys, "eta", "--d", "24", "--n", str(n), "--max-prec", str(n + 1))
        assert charged == [cost] and (cost <= 2**40) == (code == 0)
        if code == 0:
            assert got == (0, "", "")
        else:
            assert got[:2] == (2, "") and got[2] == (
                f"error: printing eta power 24 to n = {n} is charged {cost} bit^2, above the cap 1048576^2\n"
            )


# flags after --family that build a verified claim of each family
_FAMILY_ARGV = {
    "cw": ("--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4"),
    "t1": ("--alpha", "-1/8", "--d", "6", "--ell", "7", "--r", "5"),
    "t2": ("--alpha", "1/13", "--ell", "5", "--r", "7"),
    "t3": ("--alpha", "1/13", "--ell", "5", "--v", "1", "--r", "7"),
    "remark": ("--alpha", "14+25/13", "--d", "14", "--ell", "5", "--r", "4"),
}


class TestVerify:
    def test_t1_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "t1", "--alpha", "-1/8",
            "--d", "6", "--ell", "7", "--r", "5", "--nmax", "10",
        )
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "VERIFIED_IN_RANGE"
        assert record["modulus_power"] == 2
        assert record["alpha"] == "-1/8"

    def test_t2_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "t2", "--alpha", "1/13",
            "--ell", "5", "--r", "7", "--nmax", "10",
        )
        assert code == 0
        assert json.loads(out)["modulus_power"] == 1

    def test_unsatisfactory_prime_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "t1", "--alpha", "-1/8",
            "--d", "6", "--ell", "13", "--r", "5", "--nmax", "10",
        )
        assert code == 2
        assert "6-satisfactory" in err

    @pytest.mark.parametrize("alpha, d", [("-1", "1"), ("1", "3")])
    def test_cw_at_ell_2_exits_2(self, capsys, alpha, d):
        code, out, err = run_cli(capsys, "verify", "--family", "cw", "--alpha", alpha, "--d", d, "--ell", "2", "--r", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: chan_wang_condition: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["verify", "sharpness"])
    def test_forged_ell_dividing_b_claim_exits_2(self, capsys, monkeypatch, command):
        # no builder accepts ell | b, so forge one past the builder: the kernel refuses it
        from congruence_workbench import cli
        from congruence_workbench.congruence import CongruenceClaim

        def forged(alpha, d, ell, r):
            claim = object.__new__(CongruenceClaim)
            for name, value in zip(CongruenceClaim.__slots__, ("cw", Fraction(1, 5), 4, 5, 1, 4, 1)):
                object.__setattr__(claim, name, value)
            return claim

        monkeypatch.setattr(cli, "build_cw_claim", forged)
        argv = (command, "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4", "--nmax", "3")
        assert run_cli(capsys, *argv) == (2, "", "error: coefficient at exponent 1 is not 5-integral\n")

    def test_t3_builder_roundtrip_with_expressions(self, capsys):
        # hypothesis checks pass; the verification itself is beyond any
        # sane precision cap, so the run must refuse rather than attempt it
        code, _, err = run_cli(
            capsys, "verify", "--family", "t3", "--alpha", "2/(13^13+1)",
            "--ell", "13", "--v", "1", "--r", "(13^12-1)/12", "--nmax", "0",
        )
        assert code == 2
        assert "precision" in err

    def test_t3_large_v_refused_fast(self, capsys):
        # w = 13^10 - 1 comes from the closed form; a search would not end
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "--family", "t3", "--alpha", "3",
            "--ell", "13", "--v", "10", "--r", "0",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: alpha_ord_equals_v_plus_w")

    def test_missing_family_flag_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "t1", "--alpha", "-1/8",
            "--ell", "7", "--r", "5",
        )
        assert code == 2
        assert "--d" in err

    @pytest.mark.parametrize("family", _FAMILY_ARGV)
    def test_builder_called_once_by_its_module_name(self, capsys, monkeypatch, family):
        # perfbench/tracer.py wraps cli.build_<family>_claim by attribute to record congruence.build
        from congruence_workbench import cli

        name, calls = f"build_{family}_claim", []
        builder = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or builder(*args))
        code, out, _ = run_cli(capsys, "verify", "--family", family, *_FAMILY_ARGV[family], "--nmax", "2")
        assert code == 0 and json.loads(out)["family"] == family
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command, family, flag",
        [("verify", "t2", "--d"), ("verify", "cw", "--v"), ("verify", "t1", "--v"), ("verify", "t2", "--v"),
         ("verify", "remark", "--v"), ("verify", "t3", "--d"), ("sharpness", "t2", "--d")],
    )
    def test_flag_the_family_does_not_take_exits_2(self, capsys, command, family, flag):
        argv = (command, "--family", family, *_FAMILY_ARGV[family], flag, "6", "--nmax", "2")
        assert run_cli(capsys, *argv) == (2, "", f"error: {flag} is not used for --family {family}\n")

    def test_out_file_appends(self, capsys, tmp_path):
        target = tmp_path / "certs.jsonl"
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "verify", "--out", str(target), "--family", "cw",
                "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4", "--nmax", "3",
            )
            assert code == 0
            assert out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]
        assert json.loads(lines[0])["family"] == "cw"


_EVERY_COMMAND = {
    "coeffs": ("coeffs", "--alpha", "-1/8", "--n", "200"),
    "eta": ("eta", "--d", "2", "--n", "13"),
    "verify": ("verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4", "--nmax", "3"),
    "find-w": ("find-w", "--ell", "13", "--v", "1"),
    "sharpness": ("sharpness", "--family", "t2", "--alpha", "1/13", "--ell", "5", "--r", "7", "--nmax", "10"),
    "residues": ("residues", "--d", "2", "--ell", "13", "--ord", "12"),
    "seed-examples": ("seed-examples",),
}


class TestOutFile:
    @pytest.mark.parametrize("argv", _EVERY_COMMAND.values(), ids=_EVERY_COMMAND.keys())
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv):
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0 and stdout
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == stdout.encode("utf-8")

    def test_out_file_opened_once(self, capsys, tmp_path, monkeypatch):
        opened = []
        real_open = builtins.open

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return real_open(*args, **kwargs)

        target = tmp_path / "coeffs.txt"
        monkeypatch.setattr(builtins, "open", counting_open)
        code, _, _ = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "50", "--out", str(target))
        assert code == 0
        assert opened.count(str(target)) == 1
        assert len(target.read_text().splitlines()) == 51

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4"),
            ("coeffs", "--alpha", "-1/8", "--n", "5"),
            ("find-w", "--ell", "13", "--v", "1"),
        ],
        ids=["verify", "coeffs", "find-w"],
    )
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, where):
        target = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write the --out file") and len(err.splitlines()) == 1

    def test_refused_command_creates_no_file(self, capsys, tmp_path):
        target = tmp_path / "none.txt"
        code, _, _ = run_cli(capsys, "coeffs", "--alpha", "1/0", "--n", "3", "--out", str(target))
        assert code == 2
        assert not target.exists()


class TestFindW:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "find-w", "--ell", "13", "--v", "1")
        assert code == 0
        assert out.strip() == "12"

    def test_support_zero(self, capsys):
        code, out, _ = run_cli(capsys, "find-w", "--ell", "5", "--v", "2")
        assert code == 0
        assert out.strip() == "1"

    def test_large_v_is_instant(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "find-w", "--ell", "13", "--v", "10")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.strip() == "137858491848"
        # 13^4000 - 1 has 4456 digits, past Python's default str limit
        code, out, _ = run_cli(capsys, "find-w", "--ell", "13", "--v", "4000")
        assert code == 0
        with _int_str_limit(0):
            want = str(13**4000 - 1)
        assert out.strip() == want

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (("find-w", "--ell", "13", "--v", "4000"), 0),
            (("find-w", "--ell", "4", "--v", "1"), 2),
            (("find-w", "--ell", "13"), 2),
        ],
        ids=["success", "refused", "usage"],
    )
    def test_int_str_limit_restored(self, capsys, argv, exit_code):
        # main lifts the limit to print huge exact values, for its own call only
        with _int_str_limit(4300):
            assert run_cli(capsys, *argv)[0] == exit_code
            assert sys.get_int_max_str_digits() == 4300

    def test_nonprime_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "find-w", "--ell", "4", "--v", "1")
        assert code == 2
        assert "not prime" in err


class TestSharpness:
    def test_t1_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharpness", "--family", "t1", "--alpha", "-1/8",
            "--d", "6", "--ell", "7", "--r", "5", "--nmax", "3",
        )
        assert code == 0
        assert out.splitlines()[0] == "0\t55615/262144\tord=2"

    def test_t2_witness_jsonl(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharpness", "--output", "jsonl", "--family", "t2",
            "--alpha", "1/13", "--ell", "5", "--r", "7", "--nmax", "3",
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "status": "witness",
            "n": 0,
            "value": "-3395395/62748517",
            "ord": 1,
        }

    def test_inconclusive_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "sharpness", "--family", "cw", "--alpha", "-1/8",
            "--d", "6", "--ell", "7", "--r", "5", "--nmax", "0",
        )
        assert code == 1
        assert out.strip() == "inconclusive"


class TestResidues:
    def test_examples(self, capsys):
        code, out, _ = run_cli(capsys, "residues", "--d", "6", "--ell", "7", "--ord", "1", "--count", "1")
        assert code == 0 and out.strip() == "5"
        code, out, _ = run_cli(capsys, "residues", "--d", "2", "--ell", "5", "--ord", "1", "--count", "1")
        assert code == 0 and out.strip() == "7"

    def test_huge_ord_refused(self, capsys):
        code, out, err = run_cli(capsys, "residues", "--d", "2", "--ell", "13", "--ord", "2000000")
        assert code == 2 and out == ""
        assert "cap" in err

    def test_count_above_max_prec_refused_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "residues", "--d", "2", "--ell", "13", "--ord", "12", "--count", "100000000"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--max-prec" in err
        code, out, _ = run_cli(capsys, "residues", "--d", "6", "--ell", "7", "--ord", "1", "--count", "3", "--max-prec", "3")
        assert code == 0 and len(out.splitlines()) == 3
        assert run_cli(capsys, "residues", "--d", "6", "--ell", "7", "--ord", "1", "--count", "4", "--max-prec", "3")[0] == 2

    def test_t3_residue(self, capsys):
        code, out, _ = run_cli(capsys, "residues", "--d", "2", "--ell", "13", "--ord", "12", "--count", "1")
        assert code == 0
        assert out.strip() == str((13**12 - 1) // 12)


def test_t1_verify_at_precision_49006_finishes():
    # the ell-adic kernel reads residues mod 7^2; the exact recurrence would run on
    # numerators of about 200,000 bits here, which P^2.9 puts at about an hour
    argv = ["verify", "--family", "t1", "--alpha", "-1/8", "--d", "6", "--ell", "7", "--r", "5", "--nmax", "1000"]
    proc = subprocess.run([sys.executable, "-m", "congruence_workbench", *argv], capture_output=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    assert json.loads(proc.stdout)["status"] == "VERIFIED_IN_RANGE"


@pytest.mark.parametrize("power", [300, 3000])
def test_t1_sharpness_mod_7_to_the_301_finishes(power):
    # sharpness reads residues mod 7^(power+1); at power 300, alpha mod 7^301 has 843 bits and
    # square-and-multiply alone would pay about 1,300 products of 1.7-Mbit ints, the binomial sum
    # for T**g a few dozen.  Both witnesses are at n = 0, which the scan reads alone first;
    # reading all 986 terms mod 7^3001 before looking takes about 35 s
    argv = ["sharpness", "--family", "t1", "--alpha", f"6+7^{power}", "--d", "6", "--ell", "7", "--r", "5", "--nmax", "20"]
    proc = subprocess.run([sys.executable, "-m", "congruence_workbench", *argv], capture_output=True, timeout=10)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout.startswith(b"0\t") and proc.stdout.endswith(f"/1\tord={power}\n".encode())


def _run_subprocess(args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "congruence_workbench", *args], capture_output=True, check=False, env=env
    )


def _run_shell(command: str):
    """Run the CLI through the shell, so that a redirection such as ``>&-`` closes a descriptor."""
    return subprocess.run(
        f"{shlex.quote(sys.executable)} -m congruence_workbench {command}", shell=True, capture_output=True
    )


# Without PYTHONUNBUFFERED, a child's stdout is block-buffered when it is not a terminal.
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_FAKE_MAIN = (
    "import atexit, sys, congruence_workbench.cli as c; atexit.register(print, 'teardown', file=sys.stderr); "
    "c.main = lambda: print('kept', end='') or {code}; c.run()"
)


# Start-up probes run with -S: without site, no .pth file imports anything before the
# program starts.  The package's parent directory is put on sys.path through PYTHONPATH.
_NO_SITE = os.environ | {"PYTHONPATH": str(Path(congruence_workbench.__file__).resolve().parents[1])}


def _imported_modules(*args):
    """The modules ``python -S -X importtime <args>`` imports, read from its report on stderr."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *args], capture_output=True, env=_NO_SITE)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }


class TestDeterminism:
    def test_seed_examples_byte_identical_across_runs(self):
        outputs = set()
        for _ in range(2):
            proc = _run_subprocess(["seed-examples"])
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_seed_examples_content(self):
        proc = _run_subprocess(["seed-examples"])
        records = [json.loads(line) for line in proc.stdout.decode().splitlines()]
        by_fixture = {r["fixture"]: r for r in records}
        assert by_fixture["p(-1/8)(5)"]["value"] == "55615/262144"
        assert by_fixture["p(1/13)(7)"]["value"] == "-3395395/62748517"
        assert by_fixture["find-w"]["w"] == 12
        assert by_fixture["t3-residue"]["r"] == (13**12 - 1) // 12
        assert by_fixture["ramanujan-mod-5"]["status"] == "VERIFIED_IN_RANGE"

    def test_start_up_imports_no_code_generation(self):
        # dataclasses pulls in inspect, ast, dis and tokenize, and builds the
        # methods of each class by exec of generated source
        unwanted = {"dataclasses", "inspect"}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, congruence_workbench.cli; print(*sys.modules)"],
            capture_output=True,
            env=_NO_SITE,
        )
        assert proc.returncode == 0, proc.stderr
        imported = set(proc.stdout.decode().split())
        assert "congruence_workbench.cli" in imported
        assert unwanted.isdisjoint(imported)
        # argument parsing: argparse pulls in gettext, whose first message loads
        # locale, and --version formatting loads textwrap
        parsing = {"argparse", "gettext", "locale", "textwrap"}
        verify = ("verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4", "--nmax", "3")
        for argv in (("--version",), verify):
            imported = _imported_modules("-m", "congruence_workbench", *argv)
            assert "congruence_workbench.cli" in imported
            assert unwanted.isdisjoint(imported)
            assert parsing.isdisjoint(imported), argv

    def test_closed_stdout_exits_2_with_one_line(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "congruence_workbench", "coeffs", "--alpha", "-1/8", "--n", "4000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"0\t1/1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err.startswith("error: cannot write to stdout") and len(err.splitlines()) == 1

    def test_stdout_closed_at_start_exits_2(self):
        # with descriptor 1 closed before start-up, sys.stdout is None
        proc = _run_shell("find-w --ell 13 --v 1 >&-")
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write to stdout: Bad file descriptor\n"

    def test_stderr_closed_at_start_exits_2(self):
        # with descriptor 2 closed, sys.stderr is None, and the refusal must not go to stdout
        proc = _run_shell("find-w --ell 1 --v 1 2>&-")
        assert proc.returncode == 2 and proc.stdout == b""

    def test_read_only_stderr_exits_2(self, tmp_path):
        # a descriptor 2 open for reading fails the write itself (EBADF)
        source = tmp_path / "input.txt"
        source.write_bytes(b"")
        with open(source, "rb") as read_only:
            proc = subprocess.run(
                [sys.executable, "-m", "congruence_workbench", "find-w", "--ell", "1", "--v", "1"],
                stdout=subprocess.PIPE,
                stderr=read_only,
            )
        assert proc.returncode == 2 and proc.stdout == b""

    def test_piped_stdout_matches_main(self, capsys, tmp_path):
        # the console entry exits without interpreter teardown, after flushing what main printed;
        # stdout is block-buffered here, so a lost flush would show as a short stdout
        argv = ["coeffs", "--alpha", "1/13", "--n", "1100"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(out) > 1_000_000
        proc = _run_subprocess(argv, _BUFFERED)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.encode("utf-8")
        target = tmp_path / "out.txt"
        proc = _run_subprocess([*argv, "--out", str(target)], _BUFFERED)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_bytes() == out.encode("utf-8")

    def test_run_flushes_then_skips_teardown(self):
        # an atexit handler runs only at interpreter teardown; "kept" sits unflushed in a block buffer
        proc = subprocess.run([sys.executable, "-c", _FAKE_MAIN.format(code=3)], capture_output=True, env=_BUFFERED)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"kept", b"")

    def test_failed_flush_falls_back_to_the_interpreter_exit(self):
        # the reader is gone before the child writes, so run()'s flush fails and teardown runs and reports
        proc = subprocess.Popen([sys.executable, "-c", _FAKE_MAIN.format(code=0)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_BUFFERED)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 120  # the interpreter's code for a stdout it could not flush at exit
        assert err.startswith("teardown\n") and "BrokenPipeError" in err

    def test_exception_escaping_main_exits_1_with_a_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import congruence_workbench.cli as c; c.main = lambda: 1/0; c.run()"],
            capture_output=True,
        )
        assert proc.returncode == 1 and proc.stdout == b""
        err = proc.stderr.decode()
        assert err.startswith("Traceback (most recent call last):")
        assert err.splitlines()[-1] == "ZeroDivisionError: division by zero"

    def test_version_names_fractions(self):
        proc = _run_subprocess(["--version"])
        assert proc.returncode == 0
        assert proc.stdout == b"congruence-workbench 0.1.0 (fractions)\n"


def test_usage_error_exits_2(capsys):
    assert main(["verify"]) == 2
    capsys.readouterr()


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


_DEEP_FLAGS = {
    "parentheses": ("coeffs", "--alpha", "(" * 1000 + "1" + ")" * 1000, "--n", "3"),
    "power-chain": ("coeffs", "--alpha", "^".join(["1"] * 1000), "--n", "3"),
    "negations": (
        "verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5",
        "--r", "-(" * 1000 + "1" + ")" * 1000,
    ),
}


@pytest.mark.parametrize("argv", _DEEP_FLAGS.values(), ids=_DEEP_FLAGS.keys())
def test_deeply_nested_expression_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "nested too deeply" in err


_LONG_BAD_FLAGS = {
    "alpha": ("coeffs", "--alpha", "1+" * 49_999 + "1x", "--n", "3"),
    "alpha-power": ("coeffs", "--alpha", "0+" * 49_998 + "9^9^9", "--n", "3"),
    "r": ("verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "1+" * 49_999 + "1/2"),
}


@pytest.mark.parametrize("argv", _LONG_BAD_FLAGS.values(), ids=_LONG_BAD_FLAGS.keys())
def test_long_bad_expression_message_is_short(capsys, argv):
    assert max(len(a) for a in argv) >= 100_000
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err.encode()) < 300
    assert "characters)" in err


def test_bad_mod_message_is_short(capsys):
    code, out, err = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "3", "--mod", "x" * 100_000)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200
    assert "(100000 characters)" in err
    code, _, err = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "3", "--mod", "5^x")
    assert code == 2
    assert err == "error: argument --mod: unexpected character 'x' in 'x'\n"


def test_short_bad_expression_message_quotes_it_whole(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--alpha", "1/(2-2)", "--n", "3")
    assert code == 2
    assert err == "error: argument --alpha: division by zero in '1/(2-2)'\n"


class TestIntegerFlags:
    def test_expression_in_any_integer_flag(self, capsys):
        code, out, _ = run_cli(capsys, "find-w", "--ell", "13", "--v", "2*3")
        assert code == 0 and out == "4826808\n"
        code, out, _ = run_cli(capsys, "eta", "--d", "1+1", "--n", "(13^1)")
        assert code == 0 and out == run_cli(capsys, "eta", "--d", "2", "--n", "13")[1]

    def test_bad_expression_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", "-1", "--n", "1/2")
        assert code == 2 and out == ""
        assert "argument --n:" in err and "non-integer 1/2" in err

    def test_psi_12_is_not_prime(self, capsys):
        # a strong pseudoprime to 2..37: below the flag bound, so is_prime must answer exactly
        code, out, err = run_cli(capsys, "find-w", "--ell", "318665857834031151167461", "--v", "1")
        assert code == 2 and out == ""
        assert err == "error: 318665857834031151167461 is not prime\n"


_REFUSED_FAST = {
    "psi-13": ("find-w", "--ell", "3317044064679887385961981", "--v", "1"),
    "mersenne-4423": ("find-w", "--ell", "2^4423-1", "--v", "1"),
    "negative": ("coeffs", "--alpha", "-1", "--n", "-10^100000"),
    "long-ell": ("find-w", "--ell", "1" + "0" * 100_000, "--v", "1"),
    "long-d": ("verify", "--family", "cw", "--alpha", "-1", "--d", "1" + "0" * 100_000, "--ell", "5", "--r", "4"),
    "max-prec": ("eta", "--d", "2", "--n", "3", "--max-prec", "10^30"),
    # below the flag bound, but above the --max-prec ceiling: the claim checks' series lists would not fit
    "max-prec-overflow": ("verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4",
                          "--nmax", "10^20", "--max-prec", "10^24"),
    "max-prec-memory": ("verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4",
                        "--nmax", "2*10^11", "--max-prec", "10^13"),
    "mod-prime": ("coeffs", "--alpha", "-1", "--n", "3", "--mod", "3317044064679887385961981"),
    "mod-exponent": ("coeffs", "--alpha", "-1", "--n", "3", "--mod", "5^" + "1" * 100_000),
    "residues-size": ("residues", "--d", "2", "--ell", "13", "--ord", "200000", "--count", "5"),
    "mod-size": ("coeffs", "--alpha", "-1/8", "--n", "10", "--mod", "7^300000"),
    # refused before the exact kernel runs, which takes minutes at this --n
    "mod-not-prime": ("coeffs", "--alpha", "-1/8", "--n", "49999", "--mod", "4"),
    "mod-divides-denominator": ("coeffs", "--alpha", "1/7", "--n", "49999", "--mod", "7"),
    # each power passes the 2^20-bit cap; together they overdraw the expression's budget
    "expression-terms": ("find-w", "--ell", "13", "--v", "1+0*(" + "+".join(["7^349000"] * 200) + ")"),
    "expression-factors": ("coeffs", "--alpha", "*".join(["(2^500000)"] * 512), "--n", "0"),
    "expression-denominators": ("coeffs", "--alpha", "1/(7^349000)+1/(11^262000)", "--n", "0"),
    # each below --max-prec; their printed values overdraw the bit^2 budget
    "eta-power-size": ("eta", "--d", "2400", "--n", "20000"),
    "eta-power-huge": ("eta", "--d", "24000", "--n", "49999"),
}


# A refusal runs in a child process with 1 GiB of address space that is killed after 2 s, so one that
# regresses into its kernel fails fast, and is not left to run for minutes at gigabytes.  The child
# prints how long main took after main's own output.
_CAPPED_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from congruence_workbench.cli import main
start = time.perf_counter()
try:
    code = main(sys.argv[1:])
finally:
    print(time.perf_counter() - start)
sys.exit(code)
"""


def _refusal(*argv):
    """(exit code, stdout, stderr, seconds in main) of the CLI on argv in a capped child process."""
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *argv], capture_output=True, timeout=2)
    out, _, seconds = proc.stdout.decode().rstrip("\n").rpartition("\n")
    return proc.returncode, out, proc.stderr.decode(), float(seconds)


@pytest.mark.parametrize("argv", _REFUSED_FAST.values(), ids=_REFUSED_FAST.keys())
def test_refused_fast_with_a_short_message(argv):
    code, out, err, seconds = _refusal(*argv)
    assert code == 2 and out == "", err
    assert seconds < 1.0
    assert len(err.encode()) < 1024
    assert "error:" in err.splitlines()[-1]


def test_max_prec_ceiling(capsys):
    argv = ("eta", "--d", "2", "--n", "3", "--max-prec")
    assert run_cli(capsys, *argv, "10^6-1")[0] == 0
    want = "error: argument --max-prec: must be below 1000000 in absolute value\n"
    assert run_cli(capsys, *argv, "10^6") == (2, "", want)


def test_printed_size_bound():
    from congruence_workbench.cli import UsageError, _check_printed_size

    # bits(2^K) is estimated as 2K: four residues of 2^19 bits cost exactly one of 2^20 bits
    _check_printed_size(4, 2, 2**18)
    with pytest.raises(UsageError, match="cap"):
        _check_printed_size(5, 2, 2**18)
    _check_printed_size(50_000, 5, 10)  # coeffs --n 49999 --mod 5^10: many small residues


# exact coeffs runs that passed every other cap: killed at 10 s (--n 2 took 7.6 s), killed at 60 s,
# 71 s and 27 MB, and about an hour by the P^2.9 fit
_EXACT_OVER_BUDGET = {
    "huge-integer": ("2^1000000", "3"),
    "half": ("1/2", "20000"),
    "huge-denominator": ("1/2^1000", "300"),
    "t1-alpha": ("-1/8", "49999"),
}


@pytest.mark.parametrize("alpha, n", _EXACT_OVER_BUDGET.values(), ids=_EXACT_OVER_BUDGET.keys())
def test_exact_coeffs_over_budget_refused_fast(alpha, n):
    code, out, err, seconds = _refusal("coeffs", "--alpha", alpha, "--n", n)
    assert code == 2 and out == "", err
    assert seconds < 1.0
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "cap" in err


def test_exact_coeffs_budget_edges():
    from congruence_workbench.cli import _check_exact_size

    # checked through the charge: the full runs take about 1.6 s and 2.0 s
    _check_exact_size(2**1000000, 2)  # coeffs --alpha 2^1000000 --n 1: one number at the cap
    _check_exact_size(Fraction(1, 3), 5001)  # coeffs --alpha 1/3 --n 5000: 17.9 MB of values
    # |p_alpha(n)| <= |alpha| * p(n): numerators of 1, 1 and 340,002 bits, not of bits(D(n))
    _check_exact_size(Fraction(1, 2**340000), 3)


_LONG = "x" * 100_000
_FIND_W = ("find-w", "--ell", "13", "--v", "1")
_PARSE_REFUSALS = {
    "unknown-command": (_LONG, "--ell", "13"),
    "unknown-flag": (*_FIND_W, "--" + _LONG),
    "unknown-flag-before-command": ("--" + _LONG, *_FIND_W),
    "flag-without-value": ("find-w", "--ell", "13", "--v", "--" + _LONG),
    "bad-family": ("verify", "--family", _LONG, "--alpha", "-1", "--d", "4", "--ell", "5", "--r", "4"),
    "bad-output": ("eta", "--d", "2", "--n", "3", "--output", _LONG),
    "missing-required": ("verify", "--alpha", _LONG, "--d", "4"),
    "abbreviation": ("eta", "--d", "2", "--n", "3", "--max=" + "9" * 100_000),
}


@pytest.mark.parametrize("argv", _PARSE_REFUSALS.values(), ids=_PARSE_REFUSALS.keys())
def test_parse_refusal_is_one_short_line(capsys, argv):
    assert max(len(a) for a in argv) >= 100_000
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200


# every flag of each command's table row: its own, then the shared ones that it reads
_SHARED = ("--output", "--out", "--max-prec")
_CLAIM_FLAGS = ("--family", "--alpha", "--d", "--ell", "--v", "--r", "--nmax")
_COMMAND_FLAGS = {
    "coeffs": ("--alpha", "--n", "--mod", *_SHARED),
    "eta": ("--d", "--n", *_SHARED),
    "verify": (*_CLAIM_FLAGS, "--out", "--max-prec"),
    "find-w": ("--ell", "--v", "--out"),
    "sharpness": (*_CLAIM_FLAGS, *_SHARED),
    "residues": ("--d", "--ell", "--ord", "--count", "--out", "--max-prec"),
    "seed-examples": ("--out",),
}
_UNREAD_SHARED = [(command, flag) for command, flags in _COMMAND_FLAGS.items() for flag in _SHARED if flag not in flags]
_T1 = ("verify", "--family", "t1", "--d", "6", "--ell", "7", "--r", "5", "--nmax", "4")


class TestParser:
    def test_equals_form_matches_separate_value(self, capsys):
        separate = run_cli(capsys, *_T1, "--alpha", "-1/8")
        assert separate[0] == 0 and '"status":"VERIFIED_IN_RANGE"' in separate[1]
        assert run_cli(capsys, *_T1, "--alpha=-1/8") == separate

    def test_dash_values(self):
        from congruence_workbench.cli import build_parser

        args = build_parser().parse_args(
            ["verify", "--family", "t3", "--alpha", "-1/8", "--ell", "13", "--v", "1", "--r", "-(13^12-1)/12"]
        )
        assert args.alpha == Fraction(-1, 8) and args.r == -(13**12 - 1) // 12 and args.v == 1
        assert args.nmax == 10 and args.max_prec == 50_000 and args.out is None and not hasattr(args, "output")

    def test_values_parsed_once_through_the_module_attributes(self, monkeypatch):
        # perfbench/tracer.py wraps cli.evaluate_rational and cli.evaluate_int, so every flag must reach them
        from congruence_workbench import cli

        seen = []

        def recording(name, original):
            def wrapper(text):
                seen.append((name, text))
                return original(text)

            return wrapper

        for name in ("evaluate_rational", "evaluate_int"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        args = cli.build_parser().parse_args(["verify", "--family", "cw", "--alpha", "-1", "--d", "4", "--ell", "5",
                                              "--r", "4", "--nmax", "3", "--max-prec", "99"])
        assert seen == [("evaluate_rational", "-1"), *(("evaluate_int", text) for text in ("4", "5", "4", "3", "99"))]
        assert (args.alpha, args.d, args.ell, args.r, args.nmax, args.max_prec) == (-1, 4, 5, 4, 3, 99)
        seen.clear()
        args = cli.build_parser().parse_args(["coeffs", "--alpha", "1/8", "--n", "3", "--mod", "7^(1+1)"])
        assert seen == [("evaluate_rational", "1/8"), ("evaluate_int", "3"), ("evaluate_int", "7"),
                        ("evaluate_int", "(1+1)")]
        assert (args.alpha, args.n, args.mod) == (Fraction(1, 8), 3, (7, 2))

    @pytest.mark.parametrize("command, flag", _UNREAD_SHARED, ids=[" ".join(pair) for pair in _UNREAD_SHARED])
    def test_shared_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        argv = (*_EVERY_COMMAND[command], flag, "jsonl" if flag == "--output" else "5")
        assert run_cli(capsys, *argv) == (2, "", f"error: unrecognized argument '{flag}'\n")

    def test_repeated_flag_keeps_last_value(self, capsys):
        code, out, _ = run_cli(capsys, *_T1, "--alpha", "-1/8", "--nmax", "9", "--nmax", "3")
        assert code == 0 and json.loads(out)["n_max"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("coeffs", "--alpha", "1", "--out", "--n", "3"),
            (*_T1[:-2], "--alpha", "-1/8", "--n", "5"),  # --n abbreviated --nmax
            ("eta", "--d", "2", "--n", "3", "--max-p", "5"),
            ("find-w", "--ell", "13", "--v", "1", "--", "-h"),
            ("--vers",),
        ],
        ids=["flag-as-value", "abbreviated-nmax", "abbreviated-max-prec", "after-double-dash", "abbreviated-version"],
    )
    def test_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # only an ASCII digit or "(" after "-" makes a value: the grammar reads no other script's digits
    @pytest.mark.parametrize("value", ["-\u0665", "-\uff15"])
    def test_dash_non_ascii_digit_is_not_a_value(self, capsys, value):
        code, out, err = run_cli(capsys, "coeffs", "--alpha", value, "--n", "3")
        assert (code, out, err) == (2, "", "error: argument --alpha: expected one argument\n")

    def test_missing_flags_named_together(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--alpha", "-1", "--d", "4")
        assert code == 2 and err == "error: the following arguments are required: --family, --r\n"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, capsys, flag):
        code, out, _ = run_cli(capsys, flag)
        assert code == 0
        listed = [c for c in _COMMAND_FLAGS if f"  {c} " in out]
        assert listed == ["coeffs", "eta", "verify", "find-w", "sharpness", "residues"]
        for command, flags in _COMMAND_FLAGS.items():
            code, out, err = run_cli(capsys, command, "--bogus", flag)
            assert code == 0 and err == ""
            assert out.startswith(f"usage: congruence-workbench {command} ")
            for name in (*_FLAGS, "--bogus"):
                assert (f"  {name} " in out) == (name in flags), (command, name)

    def test_family_help_names_each_familys_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-h")
        line = next(row for row in out.splitlines() if row.startswith("  --family "))
        assert code == 0
        for family, flags in (("cw", "--d --ell"), ("t1", "--d --ell"), ("t2", "--ell"), ("t3", "--ell --v"),
                              ("remark", "--d --ell")):
            assert f"{family}: {flags}" in line

    def test_version_in_process(self, capsys):
        assert run_cli(capsys, "--version") == (0, "congruence-workbench 0.1.0 (fractions)\n", "")
