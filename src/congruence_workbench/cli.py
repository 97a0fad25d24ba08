"""Command-line front end.

Subcommands: coeffs, eta, verify, find-w, sharpness, residues (plus the
hidden seed-examples, which regenerates every built-in fixture).  Exit
codes: 0 success/verified, 1 counterexample or inconclusive probe,
2 precondition or usage failure.

Integer flags accept either decimal literals or exact arithmetic
expressions such as ``(13^12-1)/12``; rational flags accept ``a/b``
or the same expression syntax.  ``--max-prec`` caps the series
precision of coeffs, eta, verify and sharpness, and the number of
residues printed.  A ``--out`` file that cannot be written is a usage
failure (exit 2).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .arith import PreconditionError, check_power_cap, format_rational
from .congruence import (
    VerificationStatus,
    build_cw_claim,
    build_remark_claim,
    build_t1_claim,
    build_t2_claim,
    build_t3_claim,
    certificate_line,
    find_residues,
    find_w,
    sharpness_probe,
    verify_claim,
)
from .forms import eta_power
from .intexpr import ExpressionError, evaluate_int, evaluate_rational
from .qseries import euler_product, frac_partition_series, series_pow_numerators, series_reduce_mod

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PRECONDITION = 2

#: the rational type, named in ``--version``
BACKEND_NAME = "fractions"
DEFAULT_MAX_PRECISION = 50_000
DEFAULT_N_MAX = 10

_VISIBLE_COMMANDS = "{coeffs,eta,verify,find-w,sharpness,residues}"


class UsageError(ValueError):
    pass


def _parse_alpha(text: str):
    try:
        return evaluate_rational(text)
    except ExpressionError as exc:
        raise UsageError(f"bad rational --alpha: {exc}")


def _parse_int_flag(name: str, text: str) -> int:
    try:
        return evaluate_int(text)
    except ExpressionError as exc:
        raise UsageError(f"bad integer {name}: {exc}")


def _parse_mod(text: str) -> tuple[int, int]:
    base, sep, exp = text.partition("^")
    try:
        ell = int(base)
        k = int(exp) if sep else 1
    except ValueError:
        raise UsageError(f"--mod expects L or L^K, got {text!r}")
    if k < 1:
        raise UsageError("--mod exponent must be >= 1")
    check_power_cap(ell, k, "--mod")
    return ell, k


class _Output:
    """Where a command's lines go: stdout, or ``--out FILE`` opened once, on first use."""

    def __init__(self, path: str | None):
        self.path = path
        self.file = None

    def emit(self, line: str):
        if self.path is None:
            print(line)
            return
        try:
            if self.file is None:
                self.file = open(self.path, "a", encoding="utf-8")
            self.file.write(line + "\n")
        except OSError as exc:
            raise self._unwritable(exc) from None

    def close(self):
        if self.file is not None:
            try:
                self.file.close()
            except OSError as exc:
                raise self._unwritable(exc) from None

    def _unwritable(self, exc: OSError) -> UsageError:
        return UsageError(f"cannot write the --out file: {exc.strerror or exc}")


def _emit_values(args, items, fmt):
    for n, c in items:
        if args.output == "jsonl":
            args.emit(json.dumps({"n": n, "value": fmt(c)}, separators=(",", ":")))
        else:
            args.emit(f"{n}\t{fmt(c)}")


def _series_prec(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    prec = args.n + 1
    if prec > args.max_prec:
        raise UsageError(f"--n {args.n} needs series precision {prec}, above the cap {args.max_prec}")
    return prec


def _build_claim(args):
    alpha = _parse_alpha(args.alpha)
    family = args.family
    r = _parse_int_flag("--r", args.r)
    if family == "cw":
        return build_cw_claim(alpha, _require(args, "d"), _require(args, "ell"), r)
    if family == "t1":
        return build_t1_claim(alpha, _require(args, "d"), _require(args, "ell"), r)
    if family == "t2":
        return build_t2_claim(alpha, _require(args, "ell"), r)
    if family == "t3":
        return build_t3_claim(alpha, _require(args, "ell"), _require(args, "v"), r)
    if family == "remark":
        return build_remark_claim(alpha, _require(args, "d"), _require(args, "ell"), r)
    raise UsageError(f"unknown family {family!r}")


def _require(args, name: str) -> int:
    value = getattr(args, name, None)
    if value is None:
        raise UsageError(f"--{name} is required for --family {args.family}")
    return value


def cmd_coeffs(args) -> int:
    alpha = _parse_alpha(args.alpha)
    prec = _series_prec(args)
    if args.mod is None:
        _emit_values(args, enumerate(frac_partition_series(alpha, prec).coeffs), format_rational)
        return EXIT_OK
    # residues N(n) * D^-1 mod L^K straight from the kernel's int numerators
    ell, k = _parse_mod(args.mod)
    numerators, denominator = series_pow_numerators(euler_product(1, prec), alpha)
    _emit_values(args, enumerate(series_reduce_mod(numerators, ell, k, denominator).coeffs), str)
    return EXIT_OK


def cmd_eta(args) -> int:
    _emit_values(args, eta_power(args.d, _series_prec(args)).nonzero_items(), format_rational)
    return EXIT_OK


def cmd_verify(args) -> int:
    claim = _build_claim(args)
    n_max = args.nmax if args.nmax is not None else DEFAULT_N_MAX
    report = verify_claim(claim, n_max, max_precision=args.max_prec)
    args.emit(certificate_line(report))
    if report.status is VerificationStatus.VERIFIED_IN_RANGE:
        return EXIT_OK
    if report.status is VerificationStatus.COUNTEREXAMPLE:
        return EXIT_NEGATIVE
    return EXIT_PRECONDITION


def cmd_find_w(args) -> int:
    args.emit(str(find_w(args.ell, args.v)))
    return EXIT_OK


def cmd_sharpness(args) -> int:
    claim = _build_claim(args)
    n_max = args.nmax if args.nmax is not None else DEFAULT_N_MAX
    witness = sharpness_probe(claim, n_max, max_precision=args.max_prec)
    if witness is None:
        if args.output == "jsonl":
            args.emit(json.dumps({"status": "inconclusive"}, separators=(",", ":")))
        else:
            args.emit("inconclusive")
        return EXIT_NEGATIVE
    if args.output == "jsonl":
        args.emit(
            json.dumps(
                {
                    "status": "witness",
                    "n": witness.n,
                    "value": format_rational(witness.value),
                    "ord": claim.modulus_power,
                },
                separators=(",", ":"),
            )
        )
    else:
        args.emit(f"{witness.n}\t{format_rational(witness.value)}\tord={claim.modulus_power}")
    return EXIT_OK


def cmd_residues(args) -> int:
    if args.count > args.max_prec:
        raise UsageError(f"--count {args.count} is above the cap {args.max_prec} (--max-prec)")
    for r in find_residues(args.d, args.ell, args.ord, args.count):
        args.emit(str(r))
    return EXIT_OK


def _seed_example_records():
    """Fixture reproduction: one record per built-in example, in a fixed order."""
    for label, alpha_text, n in (("p(-1/8)(5)", "-1/8", 5), ("p(1/13)(7)", "1/13", 7)):
        value = frac_partition_series(evaluate_rational(alpha_text), n + 1).coeff(n)
        yield {"fixture": label, "n": n, "value": format_rational(value)}
    claims = (
        ("t1-example", build_t1_claim(evaluate_rational("-1/8"), 6, 7, 5), 10),
        ("t2-example", build_t2_claim(evaluate_rational("1/13"), 5, 7), 10),
        ("ramanujan-mod-5", build_cw_claim(-1, 4, 5, 4), 100),
    )
    for label, claim, n_max in claims:
        report = verify_claim(claim, n_max, max_precision=DEFAULT_MAX_PRECISION)
        yield json.loads(certificate_line(report)) | {"fixture": label}
    yield {"fixture": "find-w", "ell": 13, "v": 1, "w": find_w(13, 1)}
    yield {"fixture": "t3-residue", "d": 2, "ell": 13, "ord": 12, "r": find_residues(2, 13, 12, 1)[0]}


def cmd_seed_examples(args) -> int:
    for record in _seed_example_records():
        args.emit(json.dumps(record, separators=(",", ":")))
    return EXIT_OK


# Values like "-1/8" or "-(13^12-1)/12" start with a dash; every option here
# is --long-style, so widen what argparse treats as a negative-number value.
_DASH_VALUE = re.compile(r"^-[\d(]")


def _new_parser(factory, *args, **kwargs) -> argparse.ArgumentParser:
    parser = factory(*args, **kwargs)
    parser._negative_number_matcher = _DASH_VALUE
    return parser


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("table", "jsonl"), default="table", help="value formatting mode"
    )
    common.add_argument("--out", metavar="FILE", help="append output lines to FILE instead of stdout")
    common.add_argument(
        "--max-prec",
        type=int,
        default=DEFAULT_MAX_PRECISION,
        help="refuse runs needing more series precision, or printing more residues, than this",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    # Shared flags are attached to each subcommand; argparse subparsers parse
    # into a fresh namespace, so top-level duplicates would be clobbered.
    common = _common_flags()
    parser = _new_parser(
        argparse.ArgumentParser,
        prog="congruence-workbench",
        description="Exact fractional-partition coefficients, eta powers, and congruence certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__} ({BACKEND_NAME})")
    sub = parser.add_subparsers(dest="command", metavar=_VISIBLE_COMMANDS, required=True)

    p = _new_parser(sub.add_parser, "coeffs", parents=[common], help="print p_alpha(0..N)")
    p.add_argument("--alpha", required=True, help="rational exponent, e.g. -1/8")
    p.add_argument("--n", type=int, required=True, help="largest index printed")
    p.add_argument("--mod", help="reduce mod L^K (L prime)")
    p.set_defaults(handler=cmd_coeffs)

    p = _new_parser(sub.add_parser, "eta", parents=[common], help="print nonzero eta-power coefficients a_D(0..N)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_eta)

    for name, handler in (("verify", cmd_verify), ("sharpness", cmd_sharpness)):
        p = _new_parser(
            sub.add_parser,
            name,
            parents=[common],
            help="emit a certificate line" if name == "verify" else "search for a sharpness witness",
        )
        p.add_argument("--family", required=True, choices=("cw", "t1", "t2", "t3", "remark"))
        p.add_argument("--alpha", required=True)
        p.add_argument("--d", type=int)
        p.add_argument("--ell", type=int)
        p.add_argument("--v", type=int, help="modulus exponent for --family t3")
        p.add_argument("--r", required=True, help="residue (literal or expression)")
        p.add_argument("--nmax", type=int, help=f"range bound (default {DEFAULT_N_MAX})")
        p.set_defaults(handler=handler)

    p = _new_parser(sub.add_parser, "find-w", parents=[common], help="smallest w with a_2(ell^w) == 0 mod ell^v")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(handler=cmd_find_w)

    p = _new_parser(sub.add_parser, "residues", parents=[common], help="smallest residues with prescribed exact ord")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--ord", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(handler=cmd_residues)

    p = _new_parser(sub.add_parser, "seed-examples", parents=[common])
    p.set_defaults(handler=cmd_seed_examples)

    return parser


def main(argv=None) -> int:
    # Exact values may pass Python's default 4300-digit limit on int-to-str
    # conversion; --max-prec and MAX_POWER_BITS already bound their size.
    # The limit is lifted for this call only and restored on the way out.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        output = _Output(args.out)
        args.emit = output.emit
        try:
            return args.handler(args)
        finally:
            output.close()
    except (UsageError, PreconditionError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
