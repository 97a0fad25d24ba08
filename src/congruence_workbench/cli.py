"""Command-line front end.

Subcommands: coeffs, eta, verify, find-w, sharpness, residues (plus the
hidden seed-examples, which regenerates every built-in fixture).  Exit
codes: 0 success/verified, 1 counterexample or inconclusive probe,
2 precondition or usage failure.

Each flag value is parsed once, by its kind in _FLAGS, before a handler
runs, and a command takes only the flags it reads.  Integer flags accept
decimal literals or exact arithmetic expressions such as
``(13^12-1)/12``; rational flags accept ``a/b`` or the same expression
syntax; ``--mod L^K`` is split at its first ``^`` into two integer flags.
Integer flags but ``--r`` must be below ``arith.PRIME_TEST_BOUND`` in
absolute value, so every primality answer is exact, and ``--max-prec``
below MAX_PRECISION_CEILING.  ``--max-prec`` caps the series precision
of coeffs, eta, verify and sharpness, and the number of residues
printed.  Their printed size is capped too: residues, eta values and
exact coeffs values are each charged bits^2 per printed number, and a
run whose charge passes MAX_POWER_BITS^2 is refused before it prints.
A ``--out`` file or a stdout that cannot be written is a usage failure
(exit 2).
"""

from __future__ import annotations

import errno
import json
import os
import sys
from math import isqrt
from types import SimpleNamespace

from . import __version__
from .arith import MAX_POWER_BITS, PRIME_TEST_BOUND, PreconditionError, check_power_cap, format_rational
from .congruence import (  # every build_<family>_claim stays bound here: _build_claim and perfbench/tracer.py
    FAMILY_PARAMS,
    ClaimFamily,
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
from .forms import EtaPowerSpec, eta_power
from .intexpr import ExpressionError, _quote, evaluate_int, evaluate_rational
from .qseries import (
    _multiplier,
    _refuse_non_integral,
    euler_product,
    frac_partition_series,
    series_pow_numerators,
    series_pow_pairs,
    series_reduce_mod,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PRECONDITION = 2

#: the rational type, named in ``--version``
BACKEND_NAME = "fractions"
DEFAULT_MAX_PRECISION = 50_000
#: --max-prec must be below this, so no series kernel allocates lists of more entries
MAX_PRECISION_CEILING = 10**6
DEFAULT_N_MAX = 10
PROG = "congruence-workbench"
DESCRIPTION = "Exact fractional-partition coefficients, eta powers, and congruence certificates."


class UsageError(ValueError):
    pass


def _int_flag(text: str, bound: int = PRIME_TEST_BOUND) -> int:
    """Kind of the integer flags: an exact expression below bound in absolute value."""
    value = evaluate_int(text)  # looked up at call time, so a wrapper installed on the module attribute runs
    if abs(value) >= bound:
        raise UsageError(f"must be below {bound} in absolute value")
    return value


def _mod_flag(text: str) -> tuple[int, int]:
    """Kind of --mod: L or L^K, split at the first ^, with L and K integer flags, K >= 1 and L^K under the power cap."""
    base, sep, exp = text.partition("^")
    ell, k = _int_flag(base), _int_flag(exp) if sep else 1
    if k < 1:
        raise UsageError(f"exponent K must be >= 1, got {k}")
    check_power_cap(ell, k, "--mod")
    return ell, k


def _charge(cost: int, what: str):
    """Refuse printing what when its estimate, cost bit^2, passes MAX_POWER_BITS^2: the one printed-size refusal.

    Decimal conversion is quadratic in a number's size, so each printed number is charged its
    bits squared, and the budget is one number of MAX_POWER_BITS bits, the largest the power cap admits.
    """
    if cost > MAX_POWER_BITS**2:
        raise UsageError(f"{what} is charged {cost} bit^2, above the cap {MAX_POWER_BITS}^2")


def _check_printed_size(count: int, ell: int, k: int):
    """Charge printing count residues mod ell^k at bits(ell^k)^2 each, with bits(ell^k) <= k * bits(ell)."""
    bits = k * ell.bit_length()
    _charge(count * bits * bits, f"printing {count} residues mod {ell}^{k} at {bits} bits each")


def _check_exact_size(alpha, prec: int):
    """Charge printing p_alpha(0..prec-1) exactly at bits(num)^2 + bits(den)^2 per lowest-terms pair.

    In lowest terms p_alpha(n) has the denominator D(n) = b^n * prod_{p | b} p^ord_p(n!) for
    alpha = a/b, built here one _multiplier(n, b) at a time.  With x = max(ceil(|alpha|), 1),
    |p_alpha(n)| <= p_{-x}(n) <= min(x^n * p(n), exp(pi * sqrt(2xn/3))), so log2 |p_alpha(n)| is at
    most n*bits(x - 1) + sqrt(13.7*n) and at most sqrt(13.7*x*n).  For |alpha| <= 1 and n >= 1,
    |p_alpha(n)| <= |alpha| * p(n), which takes bits(b) - bits(a) - 1 off bits(num).  Pair n is
    charged with bits(num) <= bits(D(n)) + log2 |p_alpha(n)| + 1, and the running sum goes to
    _charge after each pair, so the run is refused as soon as it passes the budget.
    """
    b = alpha.denominator
    x = max(-(-abs(alpha.numerator) // b), 1)
    small = max(b.bit_length() - abs(alpha.numerator).bit_length() - 1, 0) if x == 1 else 0
    what = f"printing p_alpha(0..{prec - 1}) exactly"
    den, cost = 1, 0
    for n in range(prec):
        if n:
            den *= _multiplier(n, b)
        value = isqrt(137 * n // 10) + 1 + n * (x - 1).bit_length()
        if 137 * x * n < 10 * value * value:  # the exp bound is the smaller one
            value = isqrt(137 * x * n // 10) + 1
        den_bits = den.bit_length()
        cost += (den_bits + value + 1 - (small if n else 0)) ** 2 + den_bits**2
        _charge(cost, what)


class _Output:
    """Where a command's lines go: stdout, or ``--out FILE`` opened once, on first use.

    Either failing to take a line is a usage failure (exit 2).
    """

    def __init__(self, path: str | None):
        self.path = path
        self.file = None

    def emit(self, line: str):
        try:
            if self.file is None:
                self.file = sys.stdout if self.path is None else open(self.path, "a", encoding="utf-8")
            if self.file is None:  # descriptor 1 was closed before the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            self.file.write(line + "\n")
        except OSError as exc:
            raise self._unwritable(exc) from None

    def close(self):
        """Close the file, or flush stdout so that a closed pipe fails here, not at interpreter exit."""
        if self.file is not None:
            try:
                self.file.flush() if self.path is None else self.file.close()
            except OSError as exc:
                raise self._unwritable(exc) from None

    def _unwritable(self, exc: OSError) -> UsageError:
        if self.path is not None:
            return UsageError(f"cannot write the --out file: {exc.strerror or exc}")
        _to_devnull(sys.stdout)
        return UsageError(f"cannot write to stdout: {exc.strerror or exc}")


def _to_devnull(stream):
    """Point an unwritable stream at devnull: the interpreter flushes it again on exit, and that flush cannot fail too."""
    if stream is not None:  # None when its descriptor was closed before the interpreter started
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


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
    """Build the --family claim from the flags FAMILY_PARAMS gives it, refusing a missing or an unused one."""
    params = FAMILY_PARAMS[ClaimFamily(args.family)]
    for name in _CLAIM_PARAMS:
        given = getattr(args, name) is not None
        if given != (name in params):
            raise UsageError(f"--{name} is {'not used' if given else 'required'} for --family {args.family}")
    # looked up at call time, so a wrapper installed on the module attribute runs
    return globals()[f"build_{args.family}_claim"](args.alpha, *(getattr(args, name) for name in params), args.r)


def cmd_coeffs(args) -> int:
    alpha, prec = args.alpha, _series_prec(args)
    if args.mod is None:
        _check_exact_size(alpha, prec)
        # lowest-terms pairs as they stream, with no Fraction and no gcd of two big ints
        _emit_values(args, enumerate(series_pow_pairs(euler_product(1, prec), alpha)), "%d/%d".__mod__)
        return EXIT_OK
    # residues N(n) * D^-1 mod L^K straight from the kernel's int numerators
    ell, k = args.mod
    _check_printed_size(prec, ell, k)
    _refuse_non_integral(alpha.denominator, ell, prec)  # before the kernel runs
    numerators, denominator = series_pow_numerators(euler_product(1, prec), alpha)
    _emit_values(args, enumerate(series_reduce_mod(numerators, ell, k, denominator).coeffs), str)
    return EXIT_OK


def cmd_eta(args) -> int:
    """Charge the values a_d(0..n) to _charge, then print the nonzero ones.

    a_d(M*n + t) = p_d(n) for the P = ceil((prec - t) / M) indices n < P below prec, and
    |p_d(n)| <= p_{-d}(n) <= exp(pi * sqrt(2*d*n/3)), so bits(p_d(n))^2 <= 13.7*d*n.
    Charged at 14*d*n each, they cost 7*d*P*(P - 1) bit^2.
    """
    prec = _series_prec(args)
    spec = EtaPowerSpec.for_power(args.d)
    terms = max(-(-(prec - spec.t) // spec.M), 0)
    _charge(7 * args.d * terms * (terms - 1), f"printing eta power {args.d} to n = {args.n}")
    _emit_values(args, eta_power(args.d, prec).nonzero_items(), format_rational)
    return EXIT_OK


def cmd_verify(args) -> int:
    claim = _build_claim(args)
    report = verify_claim(claim, args.nmax, max_precision=args.max_prec)
    args.emit(certificate_line(report))
    return EXIT_OK if report.status is VerificationStatus.VERIFIED_IN_RANGE else EXIT_NEGATIVE


def cmd_find_w(args) -> int:
    args.emit(str(find_w(args.ell, args.v)))
    return EXIT_OK


def cmd_sharpness(args) -> int:
    claim = _build_claim(args)
    witness = sharpness_probe(claim, args.nmax, max_precision=args.max_prec)
    if witness is None:
        record, line = {"status": "inconclusive"}, "inconclusive"
    else:
        value = format_rational(witness.value)
        record = {"status": "witness", "n": witness.n, "value": value, "ord": claim.modulus_power}
        line = f"{witness.n}\t{value}\tord={claim.modulus_power}"
    args.emit(json.dumps(record, separators=(",", ":")) if args.output == "jsonl" else line)
    return EXIT_NEGATIVE if witness is None else EXIT_OK


def cmd_residues(args) -> int:
    if args.count > args.max_prec:
        raise UsageError(f"--count {args.count} is above the cap {args.max_prec} (--max-prec)")
    _check_printed_size(args.count, args.ell, args.ord)
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


_REQUIRED = object()  # the default of a flag that must be given
_FAMILY_FLAGS = {f.value: " ".join(f"--{name}" for name in params) for f, params in FAMILY_PARAMS.items()}

# The command table.  _FLAGS gives each flag's kind (a function from the text to the value a handler reads,
# or a tuple of choices), metavar (None: the choices) and help line; the lambdas look evaluate_* up at call
# time, as _int_flag does.  COMMANDS gives each command's handler, help line (None: unlisted) and the
# defaults of the flags it reads, and no others.
_FLAGS = {
    "--alpha": (lambda text: evaluate_rational(text), "RATIONAL", "rational exponent, e.g. -1/8"),
    "--n": (_int_flag, "INT", "largest index printed"),
    "--mod": (_mod_flag, "L^K", "reduce mod L^K (L prime, K >= 1)"),
    "--d": (_int_flag, "INT", "eta power"),
    "--ell": (_int_flag, "INT", "prime ell"),
    "--v": (_int_flag, "INT", "modulus exponent v"),
    "--ord": (_int_flag, "INT", "exact ord of each residue"),
    "--count": (_int_flag, "INT", "how many residues"),
    "--family": (tuple(_FAMILY_FLAGS), None,
                 "claim family (" + "; ".join(f"{f}: {flags}" for f, flags in _FAMILY_FLAGS.items()) + ")"),
    "--r": (lambda text: evaluate_int(text), "INT", "residue (any size)"),
    "--nmax": (_int_flag, "INT", "range bound"),
    "--output": (("table", "jsonl"), None, "value formatting mode"),
    "--out": (str, "FILE", "append output lines to this file instead of stdout"),
    "--max-prec": (lambda text: _int_flag(text, MAX_PRECISION_CEILING), "INT",
                   "refuse runs needing more series precision, or printing more residues"),
}
_OUT = {"--out": None}  # main reads it, so every command takes it
_CAPPED = _OUT | {"--max-prec": DEFAULT_MAX_PRECISION}
_FORMATTED = {"--output": "table"} | _CAPPED
_CLAIM_PARAMS = tuple(dict.fromkeys(name for params in FAMILY_PARAMS.values() for name in params))  # d, ell, v
_CLAIM = {"--family": _REQUIRED, "--alpha": _REQUIRED, **dict.fromkeys(f"--{name}" for name in _CLAIM_PARAMS),
          "--r": _REQUIRED, "--nmax": DEFAULT_N_MAX}
COMMANDS = {
    "coeffs": (cmd_coeffs, "print p_alpha(0..N)", {"--alpha": _REQUIRED, "--n": _REQUIRED, "--mod": None} | _FORMATTED),
    "eta": (cmd_eta, "print nonzero eta-power coefficients a_D(0..N)",
            {"--d": _REQUIRED, "--n": _REQUIRED} | _FORMATTED),
    "verify": (cmd_verify, "emit a certificate line", _CLAIM | _CAPPED),
    "find-w": (cmd_find_w, "smallest w with a_2(ell^w) == 0 mod ell^v", {"--ell": _REQUIRED, "--v": _REQUIRED} | _OUT),
    "sharpness": (cmd_sharpness, "search for a sharpness witness", _CLAIM | _FORMATTED),
    "residues": (cmd_residues, "smallest residues with prescribed exact ord",
                 {"--d": _REQUIRED, "--ell": _REQUIRED, "--ord": _REQUIRED, "--count": 1} | _CAPPED),
    "seed-examples": (cmd_seed_examples, None, _OUT),
}
_LISTING = "choose from " + ", ".join(name for name, (_, text, _) in COMMANDS.items() if text)


def _is_value(token: str) -> bool:
    """A token is a value unless it starts with "-" and a character other than an ASCII digit or "(" follows."""
    return not token.startswith("-") or token == "-" or token[1] in "0123456789("


def cmd_print(args) -> int:
    args.emit(args.text)
    return EXIT_OK


class CommandParser:
    """Parses argv against COMMANDS: full flag names, ``--flag value`` or ``--flag=value``, last repeat wins."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        command, values, unknown = None, {}, []  # unknown flags are refused once -h had its chance
        tokens = iter(sys.argv[1:] if argv is None else argv)
        for token in tokens:
            if token in ("-h", "--help") or (token == "--version" and command is None):
                text = f"{PROG} {__version__} ({BACKEND_NAME})" if token == "--version" else self.help(command)
                return SimpleNamespace(handler=cmd_print, text=text, out=None)
            if command is None and (token == "--" or _is_value(token)):
                if token not in COMMANDS:
                    raise UsageError(f"invalid command {_quote(token)} ({_LISTING})")
                command, values = token, dict(COMMANDS[token][2])
                continue
            if token == "--":  # the rest is positional, and no command takes any
                raise UsageError("unrecognized argument '--'")
            name, eq, value = token.partition("=")
            if name not in values:
                unknown.append(token)
                continue
            if not eq:
                value = next(tokens, None)
                if value is None or not _is_value(value):
                    raise UsageError(f"argument {name}: expected one argument")
            kind = _FLAGS[name][0]
            try:
                if isinstance(kind, tuple) and value not in kind:
                    raise UsageError(f"invalid choice {_quote(value)} (choose from {', '.join(kind)})")
                values[name] = value if isinstance(kind, tuple) else kind(value)
            except (UsageError, ExpressionError) as exc:
                raise UsageError(f"argument {name}: {exc}") from None
        if command is None:
            raise UsageError(f"a command is required ({_LISTING})")
        missing = ", ".join(name for name, value in values.items() if value is _REQUIRED)
        if missing:
            raise UsageError(f"the following arguments are required: {missing}")
        if unknown:
            raise UsageError(f"unrecognized argument {_quote(unknown[0])}")
        return SimpleNamespace(handler=COMMANDS[command][0], **{n[2:].replace("-", "_"): v for n, v in values.items()})

    def help(self, command=None) -> str:
        """The listing of the commands, or of one command's flags, built from COMMANDS."""
        if command is None:
            rows = [f"  {name:<10} {text}" for name, (_, text, _) in COMMANDS.items() if text]
            return "\n".join([f"usage: {PROG} COMMAND [flags]", DESCRIPTION, *rows, "  --version  print the version"])
        rows = [f"usage: {PROG} {command} [flags]", *filter(None, [COMMANDS[command][1]])]
        for name, default in COMMANDS[command][2].items():
            kind, metavar, text = _FLAGS[name]
            metavar = metavar or "{" + ",".join(kind) + "}"
            note = " (required)" if default is _REQUIRED else "" if default is None else f" (default {default})"
            rows.append(f"  {name} {metavar}: {text}{note}")
        return "\n".join(rows)


def build_parser() -> CommandParser:
    return CommandParser()


def main(argv=None) -> int:
    # Exact values may pass Python's default 4300-digit limit on int-to-str
    # conversion; --max-prec and MAX_POWER_BITS already bound their size.
    # The limit is lifted for this call only and restored on the way out.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        output = _Output(args.out)
        args.emit = output.emit
        try:
            return args.handler(args)
        finally:
            output.close()
    except (UsageError, PreconditionError, ExpressionError) as exc:
        try:  # with stderr closed (None) or unwritable, the exit code is the only report
            if sys.stderr is not None:
                print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            _to_devnull(sys.stderr)
        return EXIT_PRECONDITION
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run():
    """The console entry: main(), then a flush of stdout and stderr and os._exit, skipping interpreter teardown.

    main() has closed --out or flushed stdout, so teardown would only finalize modules (6-9 ms a
    run on a 2-core x86-64 VM).  If the flush fails, sys.exit runs the interpreter's exit and its report.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its descriptor was closed before the interpreter started
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
