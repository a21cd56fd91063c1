"""Self-test of the benchmark's tracing and checks.

    python3 perfbench/selftest.py

Runs one traced `suite_cold` pass and checks that every op's output
matches `expected.json`, that the wrappers saw the exact call counts of
the seed (a wrapper missing a namespace that holds the function would
see fewer), and that the pass yields every per-layer metric listed in
BENCHMARK.json.  A pinned function that no longer exists is reported as
absent rather than as a failure.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import run

PINNED_CALLS = {
    "verifycli.run_case": 22,
    "classsets.class_set_for": 5,
    "classsets.genus_theta": 9,
    "classsets.automorphism_count": 6,
    "heckedeg.r_prime": 7360,
}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "expected.json")) as fh:
        expected = json.load(fh)["suite_cold"]
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK)
    try:
        args = ["--workload", "suite_cold", "--out-dir", os.path.join(work, "out"),
                "--cache-dir", os.path.join(work, "cache"), "--trace", "1"]
        _setup, _wall, result = run.spawn(args, time.perf_counter() + run.RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        sys.exit("selftest: the traced pass did not complete")

    problems = []
    failed = run.count_failures("suite_cold", expected, result)
    if failed:
        problems.append("%d of %d ops failed their output check" % (failed, len(expected)))
    trace = result["trace"]
    for name, want in PINNED_CALLS.items():
        if name in trace["absent"]:
            print("selftest: %s is absent at this commit" % name)
            continue
        got = trace["spans"].get(name, [0])[0]
        print("selftest: %s calls %d (pinned %d)" % (name, got, want))
        if got != want:
            problems.append("%s: %d calls, pinned %d" % (name, got, want))
    produced = set(run.layer_metrics(trace)) | {"trace.overhead_s"}
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in produced]
    if missing:
        problems.append("per-layer metrics not produced: %s" % ", ".join(missing))
    for problem in problems:
        print("selftest: FAIL %s" % problem)
    if problems:
        sys.exit(1)
    print("selftest: ok")


if __name__ == "__main__":
    main()
