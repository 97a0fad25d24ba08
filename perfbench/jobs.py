"""Workload job lists and the checks every job's output must pass.

A job is one CLI invocation: the argv handed to ``python -m
congruence_workbench`` plus what the benchmark knows about the right
answer.  The seed picks each claim's alpha from a fixed pool and fixes
the job order; the program only ever sees argv.

Alpha pools share one denominator.  The denominator fixes the size of
every exact coefficient (D(n) = b^n * prod_{p|b} p^ord_p(n!)), so every
pick does the same work.  Numerators have equal bit length within each
pool, except that the canonical alpha named by the roadmap (-1/8, 1/13)
is kept although no valid alpha shares its one-bit numerator.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Exit codes of the CLI.
EXIT_OK = 0
EXIT_PRECONDITION = 2

# Pools of valid alphas, one per claim.  Every member satisfies the claim's
# hypotheses and, for sharpness, has a witness in range.
T1_POOL = ("-1/8", "97/8", "-99/8")  # d=6, ell=7: ord_7(alpha - 6) = 2
T2_POOL = ("1/13", "51/13", "-49/13")  # ell=5: ord_5(alpha - 2) = 2
T3_POOL = ("29/2", "-21/2")  # ell=5, v=1, w=1: ord_5(alpha - 2) = 2
REMARK_POOL = ("67/3", "92/3")  # d=14, ell=5: ord_5(alpha - 14) = 2
RAMANUJAN_POOL = ("-1",)  # p(5n+4) == 0 (mod 5)

# One Chan-Wang tuple per d: (d, ell, r, alpha pool).
CW_TUPLES = (
    (1, 5, 3, ("-4", "6")),
    (3, 5, 2, ("-2", "3")),
    (4, 5, 4, ("-11", "14")),
    (6, 7, 5, ("-8", "13")),
    (8, 5, 3, ("-2", "3")),
    (10, 7, 6, ("-11", "10")),
    (14, 5, 4, ("-11", "14")),
    (26, 11, 9, ("-7", "4")),
)
SMALL_ALPHA_POOL = ("-1/8", "1/8")
LARGE_ALPHA_POOL = ("1/13", "-1/13")

JOB_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Job:
    """One CLI run and the facts its output is checked against."""

    argv: tuple[str, ...]
    kind: str  # verify, sharpness, refusal, coeffs, eta, find-w, residues, seed-examples
    expect: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _ord(x: Fraction, ell: int) -> int:
    if x == 0:
        raise ValueError("valuation of zero")
    k = 0
    num, den = x.numerator, x.denominator
    while num % ell == 0:
        num //= ell
        k += 1
    while den % ell == 0:
        den //= ell
        k -= 1
    return k


def _claim_job(command: str, family: str, alpha: str, nmax: int, power: int, **params) -> Job:
    argv = [command, "--family", family, "--alpha", alpha]
    for name in ("d", "ell", "v", "r"):
        if name in params:
            argv += [f"--{name}", str(params[name])]
    argv += ["--nmax", str(nmax)]
    expect = {"family": family, "alpha": alpha, "ell": params["ell"], "n_max": nmax,
              "modulus_power": power}
    return Job(tuple(argv), command, expect)


def t1_job(command: str, alpha: str, nmax: int) -> Job:
    power = _ord(Fraction(alpha) - 6, 7)
    return _claim_job(command, "t1", alpha, nmax, power, d=6, ell=7, r=5)


def t2_job(command: str, alpha: str, nmax: int) -> Job:
    power = _ord(Fraction(alpha) - 2, 5) - 1
    return _claim_job(command, "t2", alpha, nmax, power, ell=5, r=7)


def t3_job(alpha: str, nmax: int) -> Job:
    return _claim_job("verify", "t3", alpha, nmax, 1, ell=5, v=1, r=7)


def remark_job(alpha: str, nmax: int) -> Job:
    power = _ord(Fraction(alpha) - 14, 5) - 1
    return _claim_job("verify", "remark", alpha, nmax, power, d=14, ell=5, r=4)


def cw_job(alpha: str, d: int, ell: int, r: int, nmax: int) -> Job:
    return _claim_job("verify", "cw", alpha, nmax, 1, d=d, ell=ell, r=r)


def refusal(*argv: str) -> Job:
    return Job(tuple(argv), "refusal")


def coeffs_job(alpha: str, n: int, mod: str | None = None) -> Job:
    argv = ["coeffs", "--alpha", alpha, "--n", str(n)]
    if mod is not None:
        argv += ["--mod", mod]
    return Job(tuple(argv), "coeffs", {"n": n, "mod": mod})


def eta_job(d: int, n: int) -> Job:
    return Job(("eta", "--d", str(d), "--n", str(n)), "eta", {"n": n})


def find_w_job(ell: int, v: int) -> Job:
    return Job(("find-w", "--ell", str(ell), "--v", str(v)), "find-w")


def residues_job(d: int, ell: int, order: int, count: int) -> Job:
    argv = ("residues", "--d", str(d), "--ell", str(ell), "--ord", str(order), "--count", str(count))
    return Job(argv, "residues", {"count": count})


# Each builder takes a pick function (a pool -> one member) and returns the
# workload's jobs in canonical order.  Passing every member instead of one
# enumerates the whole pool, which is what the recordings cover.


def claim_deep(pick) -> list[Job]:
    jobs = []
    for alpha in pick(T1_POOL):
        jobs += [t1_job("verify", alpha, 20), t1_job("sharpness", alpha, 20)]
    for alpha in pick(T2_POOL):
        jobs += [t2_job("verify", alpha, 40), t2_job("sharpness", alpha, 40)]
    jobs += [t3_job(alpha, 40) for alpha in pick(T3_POOL)]
    jobs += [remark_job(alpha, 40) for alpha in pick(REMARK_POOL)]
    jobs += [cw_job(alpha, 4, 5, 4, 200) for alpha in pick(RAMANUJAN_POOL)]
    return jobs


def cli_short(pick) -> list[Job]:
    jobs = []
    for d, ell, r, pool in CW_TUPLES:
        jobs += [cw_job(alpha, d, ell, r, 50) for alpha in pick(pool)]
    jobs += [t1_job("verify", alpha, 2) for alpha in pick(T1_POOL)]
    jobs += [t2_job("verify", alpha, 4) for alpha in pick(T2_POOL)]
    jobs += [find_w_job(13, 1), find_w_job(7, 2), residues_job(2, 13, 12, 1)]
    jobs += [coeffs_job(alpha, 5) for alpha in pick(SMALL_ALPHA_POOL)]
    jobs += [coeffs_job("-1", 9, "5^1"), eta_job(2, 13), eta_job(10, 100)]
    jobs.append(Job(("seed-examples",), "seed-examples"))
    jobs += [
        # hypothesis alpha_ord_positive: ord_7(1/8 - 6) = 0
        refusal("verify", "--family", "t1", "--alpha", "1/8", "--d", "6", "--ell", "7", "--r", "5", "--nmax", "2"),
        # hypothesis d_in_family_list
        refusal("verify", "--family", "cw", "--alpha", "-1", "--d", "5", "--ell", "5", "--r", "4"),
        # precision cap: the README t3 example needs precision about 13^13
        refusal("verify", "--family", "t3", "--alpha", "2/(13^13+1)", "--ell", "13", "--v", "1",
                "--r", "(13^12-1)/12", "--nmax", "0"),
        # expression error: division by zero
        refusal("coeffs", "--alpha", "1/0", "--n", "3"),
    ]
    return jobs


def exact_series(pick) -> list[Job]:
    jobs = [coeffs_job(alpha, 1100) for alpha in pick(LARGE_ALPHA_POOL)]
    jobs += [coeffs_job(alpha, 600) for alpha in pick(SMALL_ALPHA_POOL)]
    jobs += [coeffs_job(alpha, 1000, "7^3") for alpha in pick(SMALL_ALPHA_POOL)]
    jobs += [eta_job(26, 20000), eta_job(14, 20000), find_w_job(13, 6)]
    return jobs


WORKLOADS = {"claim-deep": claim_deep, "cli-short": cli_short, "exact-series": exact_series}


def workload_jobs(name: str, seed: int) -> list[Job]:
    """The seeded job list: one pick per pool, then a seeded shuffle."""
    rng = random.Random(f"{name}:{seed}")
    jobs = WORKLOADS[name](lambda pool: [rng.choice(pool)])
    rng.shuffle(jobs)
    return jobs


def pool_jobs(name: str) -> list[Job]:
    """Every job any seed can produce for the workload (duplicates removed)."""
    seen = {}
    for job in WORKLOADS[name](lambda pool: list(pool)):
        seen.setdefault(job.key, job)
    return list(seen.values())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_verify(job: Job, code: int, lines: list[str]) -> str | None:
    if code != EXIT_OK:
        return f"exit {code}, expected {EXIT_OK}"
    if len(lines) != 1:
        return f"{len(lines)} certificate lines"
    cert = json.loads(lines[0])
    if cert.get("status") != "VERIFIED_IN_RANGE":
        return f"status {cert.get('status')}"
    exp = job.expect
    alpha = Fraction(exp["alpha"])
    want = {
        "family": exp["family"],
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
        "ell": exp["ell"],
        "n_max": exp["n_max"],
        "modulus_power": exp["modulus_power"],
    }
    for name, value in want.items():
        if cert.get(name) != value:
            return f"certificate {name} = {cert.get(name)!r}, expected {value!r}"
    return None


def _check_sharpness(job: Job, code: int, lines: list[str]) -> str | None:
    if code != EXIT_OK:
        return f"exit {code}, expected a witness"
    if len(lines) != 1:
        return f"{len(lines)} witness lines"
    n, value, order = lines[0].split("\t")
    power = job.expect["modulus_power"]
    if order != f"ord={power}":
        return f"printed {order}, expected ord={power}"
    if not 0 <= int(n) <= job.expect["n_max"]:
        return f"witness n = {n} out of range"
    if _ord(Fraction(value), job.expect["ell"]) != power:
        return f"witness value has valuation {_ord(Fraction(value), job.expect['ell'])}, not {power}"
    return None


def _check_coeffs(job: Job, code: int, lines: list[str]) -> str | None:
    if code != EXIT_OK:
        return f"exit {code}"
    if len(lines) != job.expect["n"] + 1:
        return f"{len(lines)} lines, expected {job.expect['n'] + 1}"
    mod = job.expect["mod"]
    bound = None
    if mod is not None:
        ell, _, k = mod.partition("^")
        bound = int(ell) ** int(k)
    for i, line in enumerate(lines):
        idx, value = line.split("\t")
        if int(idx) != i:
            return f"line {i} has index {idx}"
        if bound is not None and not 0 <= int(value) < bound:
            return f"residue {value} outside [0, {bound})"
    if lines[0] != ("0\t1" if bound is not None else "0\t1/1"):
        return f"constant term line {lines[0]!r}"
    return None


def _check_eta(job: Job, code: int, lines: list[str]) -> str | None:
    if code != EXIT_OK:
        return f"exit {code}"
    last = -1
    for line in lines:
        idx = int(line.split("\t")[0])
        if not last < idx <= job.expect["n"]:
            return f"index {idx} out of order or range"
        last = idx
    return None if lines else "no coefficients"


def _check_ints(job: Job, code: int, lines: list[str]) -> str | None:
    if code != EXIT_OK:
        return f"exit {code}"
    want = job.expect.get("count", 1)
    if len(lines) != want or not all(line.isdigit() and int(line) >= 0 for line in lines):
        return f"expected {want} nonnegative integers, got {lines!r}"
    return None


def _check_seed_examples(job: Job, code: int, lines: list[str]) -> str | None:
    if code != EXIT_OK:
        return f"exit {code}"
    records = [json.loads(line) for line in lines]
    if len(records) != 7 or not all("fixture" in rec for rec in records):
        return "expected 7 fixture records"
    return None


def _check_refusal(job: Job, code: int, lines: list[str], stderr: str) -> str | None:
    if code != EXIT_PRECONDITION:
        return f"exit {code}, expected {EXIT_PRECONDITION}"
    if lines:
        return "refusal printed to stdout"
    if not stderr.startswith("error: "):
        return f"stderr {stderr[:60]!r} does not name the error"
    return None


_CHECKS = {
    "verify": _check_verify,
    "sharpness": _check_sharpness,
    "coeffs": _check_coeffs,
    "eta": _check_eta,
    "find-w": _check_ints,
    "residues": _check_ints,
    "seed-examples": _check_seed_examples,
}


def check(job: Job, code: int, stdout: bytes, stderr: bytes, expected: dict) -> str | None:
    """None when the job's output is right, else the reason it is not.

    Two kinds of check: facts the benchmark derives itself (status,
    witness valuation, refusal shape, line structure), then the exit code
    and stdout digest recorded at the seed commit.
    """
    lines = stdout.decode("utf-8", "replace").splitlines()
    try:
        if job.kind == "refusal":
            reason = _check_refusal(job, code, lines, stderr.decode("utf-8", "replace"))
        else:
            reason = _CHECKS[job.kind](job, code, lines)
    except (ValueError, KeyError) as exc:
        reason = f"unparsable output: {exc}"
    if reason is not None:
        return reason
    record = expected.get(job.key)
    if record is None:
        return "no recorded output for this job"
    if record["exit"] != code:
        return f"exit {code}, recorded {record['exit']}"
    if record["sha256"] != digest(stdout):
        return "stdout digest differs from the recording"
    return None
