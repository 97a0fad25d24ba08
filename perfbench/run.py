#!/usr/bin/env python3
"""The workbench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload claim-deep --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` runs the workload's job list as a closed loop with one
client: one ``python -m congruence_workbench <argv>`` subprocess at a
time, so every timing includes interpreter start and import.  The list
is repeated until ``--seconds`` would be exceeded and the end-to-end
metrics are medians over the repetitions.

``--trace 1`` replays the same argv lists in-process through
``cli.main``, alternating untraced and traced passes, and reports the
per-layer metrics (see NOTES.md).  The spans are written to
``perfbench/out/`` when the run ends.

Every job's output is checked.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` runs every job any seed can produce once and stores its exit
code and stdout digest in ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from jobs import JOB_TIMEOUT_S, WORKLOADS, check, digest, pool_jobs, workload_jobs
from tracer import Tracer, span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "congruence_workbench" / "__init__.py"
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"

PROGRAM = [sys.executable, "-m", "congruence_workbench"]
# Started in a fresh interpreter: reports the parser build time on stdout,
# and -X importtime reports the import times on stderr.
PARSER_PROBE = (
    "import time\n"
    "import congruence_workbench.cli as cli\n"
    "t = time.perf_counter()\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)
SETUP_SAMPLES_PER_PASS = 14
# A run must end within 180 s even if jobs hang: no job starts after
# RUN_LIMIT_S, and the one running then adds at most JOB_TIMEOUT_S.
RUN_LIMIT_S = 120
TRACE_SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics read from span totals: (metric, unit, statistic, span name).
SPAN_METRICS = [
    ("qseries.pow_rational.calls", "count", "calls", "qseries.pow_rational"),
    ("qseries.pow_rational.s", "s", "total", "qseries.pow_rational"),
    ("qseries.pow_rational.self_s", "s", "self", "qseries.pow_rational"),
    ("qseries.mul.calls", "count", "calls", "qseries.mul"),
    ("qseries.mul.s", "s", "total", "qseries.mul"),
    ("qseries.euler.s", "s", "total", "qseries.euler"),
    ("qseries.extract.s", "s", "total", "qseries.extract"),
    ("qseries.reduce_mod.s", "s", "total", "qseries.reduce_mod"),
    ("congruence.build.calls", "count", "calls", "congruence.build"),
    ("congruence.build.s", "s", "total", "congruence.build"),
    ("congruence.verify.self_s", "s", "self", "congruence.verify"),
    ("congruence.sharpness.self_s", "s", "self", "congruence.sharpness"),
    ("congruence.find_w.s", "s", "total", "congruence.find_w"),
    ("congruence.find_residues.s", "s", "total", "congruence.find_residues"),
    ("forms.eta_power.calls", "count", "calls", "forms.eta_power"),
    ("forms.eta_power.self_s", "s", "self", "forms.eta_power"),
    ("arith.padic_ord.calls", "count", "calls", "arith.padic_ord"),
    ("arith.padic_ord.s", "s", "total", "arith.padic_ord"),
    ("arith.reduce_mod.calls", "count", "calls", "arith.reduce_mod"),
    ("arith.reduce_mod.s", "s", "total", "arith.reduce_mod"),
    ("intexpr.calls", "count", "calls", "intexpr"),
    ("intexpr.s", "s", "total", "intexpr"),
    ("cli.calls", "count", "calls", "cli"),
    ("cli.self_s", "s", "self", "cli"),
]
# Counts the wrappers keep: (metric, unit).
COUNT_METRICS = [
    ("qseries.pow_rational.terms", "count"),
    ("qseries.max_coeff_bits", "bits"),
    ("congruence.find_w.steps", "count"),
    ("congruence.terms_checked", "count"),
]
DERIVED_UNITS = {
    "qseries.pow_rational.self_frac": "ratio",
    "congruence.useful_frac": "ratio",
    "cli.out_bytes": "bytes",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "setup.parser_s": "s",
    "trace.overhead_frac": "ratio",
}
# Per-layer metrics that must repeat exactly between runs of one seed.
EXACT = [name for name, unit, stat, _ in SPAN_METRICS if stat == "calls"]
EXACT += [name for name, _ in COUNT_METRICS] + ["congruence.useful_frac", "cli.out_bytes"]


class JobTimeout(BaseException):
    """Raised by the alarm when an in-process job runs past its timeout."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(cmd, timeout: float = JOB_TIMEOUT_S):
    """Run one child to completion: (exit code or None on timeout, stdout, stderr, wall, cpu)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=program_env(), cwd=ROOT
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return code, out, err, wall, cpu


def version_sample() -> tuple[float, str | None]:
    """Wall time of ``--version`` in a fresh interpreter, and the backend it names."""
    code, out, _err, wall, _cpu = run_process(PROGRAM + ["--version"])
    text = out.decode("utf-8", "replace").strip()
    if code != 0 or not text.startswith("congruence-workbench "):
        return wall, None
    return wall, text.rsplit("(", 1)[-1].rstrip(")")


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, backend) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- untraced subprocess run ----------------------------------------------


def timed_run(jobs, seconds: float, expected: dict):
    """Repeat the job list as subprocesses; return (metrics, detail, attempted, failed, ok)."""
    _wall, backend = version_sample()  # untimed warm-up: fills the bytecode caches
    setup_ok = backend is not None
    passes, setup, records = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    cut_short = False
    while True:
        pass_wall = pass_cpu = 0.0
        for index, job in enumerate(jobs):
            if time.perf_counter() - start > RUN_LIMIT_S:
                cut_short = True
                break
            code, out, err, wall, cpu = run_process(PROGRAM + list(job.argv))
            reason = "timeout" if code is None else check(job, code, out, err, expected)
            attempted += 1
            failed += reason is not None
            pass_wall += wall
            pass_cpu += cpu
            records.append({"pass": len(passes), "job": job.key, "exit": code,
                            "wall_s": wall, "cpu_s": cpu, "failure": reason})
            # Spread SETUP_SAMPLES_PER_PASS set-up samples evenly over the pass.
            while len(setup) < (len(passes) * len(jobs) + index + 1) * SETUP_SAMPLES_PER_PASS / len(jobs):
                sample, name = version_sample()
                setup.append(sample)
                setup_ok = setup_ok and name == backend
        if cut_short and passes:
            break
        passes.append((pass_wall, pass_cpu))
        elapsed = time.perf_counter() - start
        if cut_short or elapsed + elapsed / len(passes) > seconds:
            break
    walls = [w for w, _ in passes]
    cpus = [c for _, c in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    detail = {
        "backend": backend,
        "passes": len(passes),
        "cut_short": cut_short,
        "wall_s_quartiles": quartiles(walls),
        "cpu_s_quartiles": quartiles(cpus),
        "setup_s_quartiles": quartiles(setup),
        "setup_samples": len(setup),
        "jobs": records,
    }
    return metrics, detail, attempted, failed, setup_ok and not cut_short


# -- traced in-process run ------------------------------------------------


def import_program() -> dict:
    sys.path.insert(0, str(SRC))
    import congruence_workbench
    from congruence_workbench import cli, congruence, forms, qseries

    if Path(congruence_workbench.__file__).resolve() != PACKAGE_INIT.resolve():
        raise RuntimeError(f"imported {congruence_workbench.__file__}, not {PACKAGE_INIT}")
    return {"cli": cli, "congruence": congruence, "forms": forms, "qseries": qseries}


def _alarm(_signum, _frame):
    raise JobTimeout()


def replay(jobs, modules, expected, tracer, pass_index, deadline):
    """Run the job list through cli.main once; return (wall, failures, out_bytes, jobs run).

    No job starts after ``deadline`` (a perf_counter value).
    """
    cli = modules["cli"]
    total = 0.0
    failures = []
    out_bytes = 0
    for index, job in enumerate(jobs):
        if time.perf_counter() > deadline:
            return total, failures, out_bytes, index
        if tracer is not None:
            tracer.job = f"{pass_index}:{index}"
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        start = time.perf_counter()
        reason = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(job.argv))
        except JobTimeout:
            reason = "timeout"
        except Exception as exc:  # the replay must go on; the job counts as failed
            reason = f"raised {exc!r}"
        finally:
            total += time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end_job()
        stdout = out.getvalue().encode("utf-8")
        out_bytes += len(stdout)
        if reason is None:
            reason = check(job, code, stdout, err.getvalue().encode("utf-8"), expected)
        if reason is not None:
            failures.append({"pass": pass_index, "job": job.key, "failure": reason})
    return total, failures, out_bytes, len(jobs)


def layer_values(spans, counts, out_bytes) -> dict:
    calls, total, self_time = span_totals(spans)
    stats = {"calls": calls, "total": total, "self": self_time}
    values = {}
    for name, _unit, stat, span in SPAN_METRICS:
        values[name] = stats[stat].get(span, 0 if stat == "calls" else 0.0)
    for name, _unit in COUNT_METRICS:
        values[name] = counts.get(name, 0)
    series_terms = counts.get("congruence.series_terms", 0)
    values["congruence.useful_frac"] = (
        counts.get("congruence.terms_checked", 0) / series_terms if series_terms else 0.0
    )
    in_process = total.get("cli", 0.0)
    values["qseries.pow_rational.self_frac"] = (
        self_time.get("qseries.pow_rational", 0.0) / in_process if in_process else 0.0
    )
    values["cli.out_bytes"] = out_bytes
    return values


def setup_layers() -> tuple[dict, bool]:
    """Fresh-interpreter samples: bare start, import (-X importtime), parser build."""
    interp, imports, parser = [], [], []
    ok = True
    for _ in range(TRACE_SETUP_SAMPLES):
        code, _out, _err, wall, _cpu = run_process([sys.executable, "-c", "pass"])
        ok = ok and code == 0
        interp.append(wall)
        code, out, err, _wall, _cpu = run_process(
            [sys.executable, "-X", "importtime", "-c", PARSER_PROBE]
        )
        ok = ok and code == 0
        if code == 0:
            parser.append(float(out.decode().strip()))
            imports.append(_import_seconds(err.decode("utf-8", "replace")))
    samples = {"setup.interpreter_s": interp, "setup.import_s": imports, "setup.parser_s": parser}
    return {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}, ok


def _import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the program's top-level imports, in seconds.

    -X importtime prints ``import time: self | cumulative | name`` with the
    name indented by nesting depth; depth 0 has exactly one space.
    """
    total_us = 0
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        name = parts[2]
        if name.startswith(" congruence_workbench") and not name.startswith("  "):
            total_us += int(parts[1])
    return total_us / 1e6


def traced_run(jobs, seconds: float, expected: dict):
    """Alternate untraced and traced in-process passes; return per-layer metrics."""
    modules = import_program()
    tracer = Tracer()
    plain, traced, layer_passes, all_spans, failures = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    cut_short = False
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        pair = 0
        while not cut_short:
            for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
                pass_index = 2 * pair + with_trace
                if with_trace:
                    tracer.install(modules)
                try:
                    wall, failed, out_bytes, ran = replay(
                        jobs, modules, expected, tracer if with_trace else None, pass_index,
                        start + RUN_LIMIT_S,
                    )
                finally:
                    tracer.uninstall()
                cut_short = cut_short or ran < len(jobs)
                attempted += ran
                failures += failed
                if with_trace:
                    spans, counts = tracer.take()
                    all_spans += spans
                    layer_passes.append(layer_values(spans, counts, out_bytes))
                    traced.append(wall)
                else:
                    plain.append(wall)
            pair += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / pair > seconds:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)
    setup, setup_ok = setup_layers()
    first = layer_passes[0]
    repeatable = all(p[name] == first[name] for p in layer_passes for name in EXACT)
    metrics = {}
    for name in first:
        if name in EXACT:
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(p[name] for p in layer_passes)
    metrics.update(setup)
    # Each traced pass runs next to an untraced one, so the pair's ratio
    # cancels most of the machine's speed drift.
    ratios = [t / p for t, p in zip(traced, plain) if t and p]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1 if ratios else 0.0
    detail = {
        "backend": modules["cli"].BACKEND_NAME,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "untraced_wall_s": plain,
        "traced_wall_s": traced,
        "counts_repeat_exactly": repeatable,
        "cut_short": cut_short,
        "failures": failures,
    }
    ok = setup_ok and repeatable and not cut_short
    return metrics, detail, attempted, len(failures), ok, all_spans


def units(trace: bool) -> dict:
    if not trace:
        return END_TO_END_UNITS
    table = {name: unit for name, unit, _stat, _span in SPAN_METRICS}
    table.update(dict(COUNT_METRICS))
    table.update(DERIVED_UNITS)
    return table


def write_out(name: str, payload: dict):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_spans(name: str, spans):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        for span_name, start, end, parent, job in spans:
            fh.write(json.dumps({"name": span_name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")


def record() -> int:
    """Run every pool job once; store exit codes and stdout digests."""
    recorded, bad = {}, 0
    for workload in WORKLOADS:
        for job in pool_jobs(workload):
            code, out, err, wall, _cpu = run_process(PROGRAM + list(job.argv))
            recorded[job.key] = {"exit": code, "sha256": digest(out)}
            reason = "timeout" if code is None else check(job, code, out, err, recorded)
            bad += reason is not None
            print(f"{wall:7.3f}s exit {code} {job.key}" + (f"  FAILED: {reason}" if reason else ""))
    if bad:
        print(f"{bad} jobs failed their checks; nothing recorded", file=sys.stderr)
        return 1
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(recorded.items())), fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    args = parser.parse_args(argv)
    if not PACKAGE_INIT.is_file():
        print(f"error: the program is missing ({PACKAGE_INIT} not found)", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    expected = load_expected()
    jobs = workload_jobs(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail, attempted, failed, ok, spans = traced_run(jobs, args.seconds, expected)
        write_spans(f"{stem}.spans.jsonl", spans)
    else:
        metrics, detail, attempted, failed, ok = timed_run(jobs, args.seconds, expected)
    meta = metadata(args, detail.pop("backend"))
    table = units(bool(args.trace))
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name]} for name in table},
    }
    write_out(f"{stem}.json", {"meta": meta, "detail": detail, **result})
    for key, value in meta.items():
        print(f"# {key}: {value}")
    print(f"{'fail_frac':<34} {failed / attempted:<14.6g} ratio ({failed} of {attempted} jobs)")
    for name, entry in result["metrics"].items():
        print(f"{name:<34} {entry['value']:<14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
