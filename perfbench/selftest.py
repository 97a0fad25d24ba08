#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Shows three things and exits 0 only if all hold:

1. every job any seed can produce passes its checks;
2. two traced runs of one seed give exactly the same counts;
3. a corrupted expected digest is counted as a failed job.

Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import sys

import run
from jobs import WORKLOADS, check, pool_jobs, workload_jobs

SEED = 0


def every_pool_job_passes(expected) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for job in pool_jobs(workload):
            code, out, err, _wall, _cpu = run.run_process(run.PROGRAM + list(job.argv))
            reason = "timeout" if code is None else check(job, code, out, err, expected)
            if reason is not None:
                problems.append(f"{workload}: {job.key}: {reason}")
    return problems


def traced_counts_repeat(expected) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        jobs = workload_jobs(workload, SEED)
        first, second = (run.traced_run(jobs, 0, expected)[0] for _ in range(2))
        for name in run.EXACT:
            if first[name] != second[name]:
                problems.append(f"{workload}: {name} = {first[name]} then {second[name]}")
    return problems


def corrupted_digest_fails(expected) -> list[str]:
    jobs = workload_jobs("cli-short", SEED)
    victim = jobs[0].key
    corrupted = dict(expected)
    corrupted[victim] = dict(expected[victim], sha256="0" * 64)
    _metrics, detail, attempted, failed, _ok = run.timed_run(jobs, 0, corrupted)
    failures = [r for r in detail["jobs"] if r["failure"] is not None]
    if attempted != len(jobs) or failed != 1 or failures[0]["job"] != victim:
        return [f"expected 1 failure of {len(jobs)} ({victim}), got {failed} of {attempted}"]
    print(f"  fail_frac = {failed}/{attempted}: {failures[0]['failure']}")
    return []


def main() -> int:
    if not run.PACKAGE_INIT.is_file():
        print(f"error: the program is missing ({run.PACKAGE_INIT} not found)", file=sys.stderr)
        return 2
    expected = run.load_expected()
    ok = True
    for name, test in (
        ("every pool job passes its checks", every_pool_job_passes),
        ("two traced runs give the same counts", traced_counts_repeat),
        ("a corrupted digest counts in fail_frac", corrupted_digest_fails),
    ):
        problems = test(expected)
        print(f"{'PASS' if not problems else 'FAIL'}: {name}")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
