#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a checkout. For each workload (all by default) it
runs run.py twice for one second: once as is, which must exit 0 with no
failure, and once with --corrupt-expected, which feeds the checks a wrong
expected answer and must report failures (failed > 0, correct false) and
exit non-zero. Exits non-zero if any expectation does not hold.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["la_dense", "tuple_relational", "service_mix", "durable_graph"]


def run(workload, corrupt):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt-expected")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    ok = True
    for workload in sys.argv[1:] or WORKLOADS:
        rc, res = run(workload, corrupt=False)
        clean = rc == 0 and res is not None and res["correct"] and res["failed"] == 0
        rc_bad, bad = run(workload, corrupt=True)
        caught = (rc_bad != 0 and bad is not None and not bad["correct"]
                  and bad["failed"] > 0)
        print(f"{workload}: clean run {'ok' if clean else 'FAILED'}, "
              f"wrong answer {'caught' if caught else 'MISSED'}"
              + (f" ({bad['failed']}/{bad['attempted']} failed)" if bad else ""))
        ok = ok and clean and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
