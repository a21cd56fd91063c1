"""The quatmatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Run from a checkout: the package is imported from the checkout's `src/`.
A run spawns one fresh interpreter per pass (`child.py`), one at a time,
and keeps starting passes while the next one is expected to end within
`--seconds`.  Every op's output is checked against `expected.json`.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
the median child set-up time, the median run time of a pass and the
median peak RSS.  With `--trace 1` untraced and traced passes alternate,
and the run reports the per-layer metrics (medians over traced passes)
and the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The seed shuffles the op order of `local_grid`.  The verify workloads
ignore it: `run_suite` sorts its cases itself.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import child

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("suite_cold", "local_grid")
SETUP_PROBES = 5
# A run must end within 180 s; stop starting passes well before that.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result (e.g. the package is missing)."""


def spawn(args, deadline):
    """Run child.py once; returns (setup_s, wall_s, result dict or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")] + args,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("pass %r did not finish within the run limit" % (args,))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n":
        raise BenchError("child could not import quatmatch from %s"
                         % os.path.join(ROOT, "src"))
    wall = time.perf_counter() - start
    lines = rest.splitlines()
    if proc.returncode != 0 or not lines:
        return setup, wall, None
    return setup, wall, json.loads(lines[-1])


def count_failures(workload, expected, result):
    """Ops whose exit code or output differs from the recorded one."""
    observed = result["observed"] if result else {}
    failed = 0
    for op, want in expected.items():
        got = observed.get(op)
        if got is None or got[0] != 0 or got[1] != want:
            failed += 1
            print("%s: op %s failed: got %r" % (workload, op, got), file=sys.stderr)
    return failed


def layer_metrics(trace):
    """Per-layer metric values of one traced pass, zero for unseen spans."""
    names = [name for _m, _a, name in child.TRACED]
    names += ["heckedeg.oracle_local_orbits." + p for p in ("split", "level", "ramified")]
    out = {}
    for name in names:
        calls, incl, self_s = trace["spans"].get(name, (0, 0.0, 0.0))
        out.update({name + ".calls": calls, name + ".s": incl, name + ".self_s": self_s})
    out.update(trace["counters"])
    loads = out["classsets.cache.load.calls"]
    out["classsets.cache.hit_ratio"] = out["classsets.cache.hits"] / loads if loads else 0.0
    return out


def run_workload(workload, seed, seconds, trace, expected):
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        base = ["--workload", workload, "--seed", str(seed)]
        setups = [spawn(base + ["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
        passes = []  # (traced, wall_s, result)
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            i = len(passes)
            traced = bool(trace) and i % 2 == 1
            args = base + ["--out-dir", os.path.join(work, "out-%d" % i),
                           "--cache-dir", os.path.join(work, "cache-%d" % i),
                           "--trace", str(int(traced))]
            setup, wall, result = spawn(args, deadline)
            setups.append(setup)
            passes.append((traced, wall, result))
            attempted += len(expected)
            failed += count_failures(workload, expected, result)
            now = time.perf_counter()
            est = statistics.median(w for _t, w, _r in passes)
            if (len(passes) >= (2 if trace else 1)
                    and (now - start + est > seconds or now + est > deadline)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for t, _w, r in passes if r is not None and not t]
    traced = [r for t, _w, r in passes if r is not None and t]
    if not plain or (trace and not traced):
        raise BenchError("%s: no pass of the run completed" % workload)
    metrics = {"setup_s": statistics.median(setups),
               "run_s": statistics.median(r["run_s"] for r in plain),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    if traced:
        per_pass = [layer_metrics(r["trace"]) for r in traced]
        for name in per_pass[0]:
            metrics[name] = statistics.median(m[name] for m in per_pass)
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - metrics["run_s"])
        absent = traced[0]["trace"]["absent"]
        if absent:
            print("%s: absent at this commit: %s" % (workload, ", ".join(absent)),
                  file=sys.stderr)
    return attempted, failed, len(passes), metrics


def main():
    parser = argparse.ArgumentParser(description="quatmatch benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        attempted, failed, npasses, measured = run_workload(
            workload, args.seed, seconds, args.trace, expected[workload])
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in listed}
        shown = ", ".join("%s %.4g %s" % (k, v["value"], v["unit"])
                          for k, v in metrics.items() if args.trace == 0)
        print("%s: %s%sfail_frac %.4g (%d of %d ops failed), %d passes"
              % (workload, shown, ", " if shown else "", failed / attempted,
                 failed, attempted, npasses))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        sys.stdout.flush()


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
