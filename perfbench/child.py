"""One timed pass of a perfbench workload, run in a fresh interpreter.

The parent (`run.py`) starts this script once per pass.  It imports
`quatmatch` from the `src/` tree of the checkout it lives in, writes
`ready` to stdout, runs the workload's ops through the package's public
API with the package's own printing captured, and writes one JSON line:
the ops' wall time, the peak resident set size, one observation per op
and, with `--trace 1`, the per-layer span totals.  The parent checks the
observations; this script only records them.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The `verify --theorem all` grid as of the commit that added this benchmark,
# written out so that a change to `default_suite_cases()` is not mistaken
# for a change in speed.
# (theorem, D, p, q, N, m_max)
SUITE_CASES = [
    ("1.1", 1, 2, 3, 1, 50),
    ("1.4", 2, 3, None, 1, 50),
    ("1.4", 3, 2, None, 1, 50),
    ("1.5", 6, 5, None, 1, 30),
    ("1.3", 2, 3, 5, 1, 100),
    ("1.3", 2, 3, 5, 7, 100),
    ("1.3", 2, 3, 7, 1, 100),
    ("1.3", 2, 3, 7, 5, 100),
    ("1.3", 2, 5, 7, 1, 100),
    ("1.3", 2, 5, 7, 3, 100),
    ("1.3", 3, 2, 5, 1, 100),
    ("1.3", 3, 2, 5, 7, 100),
    ("1.3", 3, 2, 7, 1, 100),
    ("1.3", 3, 2, 7, 5, 100),
    ("1.3", 3, 5, 7, 1, 100),
    ("1.3", 3, 5, 7, 2, 100),
    ("1.3", 5, 2, 3, 1, 100),
    ("1.3", 5, 2, 3, 7, 100),
    ("1.3", 5, 2, 7, 1, 100),
    ("1.3", 5, 2, 7, 3, 100),
    ("1.3", 5, 3, 7, 1, 100),
    ("1.3", 5, 3, 7, 2, 100),
]


def local_grid_ops(seed):
    """`local --p P` and the criterion-05 oracle grid, shuffled by `seed`."""
    ops = [["local", "--p", str(p)] for p in (2, 3, 5, 7)]
    for pattern in ("split", "level", "ramified"):
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                for M in (k + 2, k + 3):
                    ops.append(["certify", "--pattern", pattern, "--p", str(p),
                                "--k", str(k), "--M", str(M)])
    random.Random(seed).shuffle(ops)
    return ops


def op_name(argv):
    return "-".join(a for a in argv if not a.startswith("--"))


# ---------------------------------------------------------------------------
# per-layer spans, recorded by wrapping coarse public functions

# (module, attribute, span name).  Only coarse functions: wrapping the
# inner-loop helpers of exactnum, matrices, quatalg or heckedeg would
# dominate the time being measured.
TRACED = [
    ("orders", "maximal_order", "orders.maximal_order"),
    ("orders", "eichler_order", "orders.eichler_order"),
    ("classsets", "class_set_for", "classsets.class_set_for"),
    ("classsets", "ideal_class_set", "classsets.ideal_class_set"),
    ("classsets", "p_neighbors", "classsets.p_neighbors"),
    ("classsets", "ideals_equivalent", "classsets.ideals_equivalent"),
    ("classsets", "unit_weight", "classsets.unit_weight"),
    ("classsets", "genus_theta", "classsets.genus_theta"),
    ("classsets", "automorphism_count", "classsets.automorphism_count"),
    ("classsets", "isometric", "classsets.isometric"),
    ("classsets", "lll_reduce_qgram", "classsets.lll_reduce_qgram"),
    ("classsets", "theta_counts", "classsets.theta_counts"),
    ("classsets", "count_vectors", "classsets.count_vectors"),
    ("classsets", "list_vectors", "classsets.list_vectors"),
    ("classsets", "pair_q_gram", "classsets.pair_q_gram"),
    ("classsets", "ClassSetCache.load", "classsets.cache.load"),
    ("classsets", "ClassSetCache.store", "classsets.cache.store"),
    ("heckedeg", "r_prime", "heckedeg.r_prime"),
    ("heckedeg", "oracle_local_orbits", "heckedeg.oracle_local_orbits"),
    ("weilmatch", "lambda_table_text", "weilmatch.lambda_table_text"),
    ("weilmatch", "match_coefficients", "weilmatch.match_coefficients"),
    ("weilmatch", "verify_prop_3_1", "weilmatch.verify_prop_3_1"),
    ("weilmatch", "lambda_eval", "weilmatch.lambda_eval"),
    ("verifycli", "run_suite", "verifycli.run_suite"),
    ("verifycli", "run_case", "verifycli.run_case"),
    ("verifycli", "VerificationReport.render", "verifycli.report_render"),
]


class Tracer:
    """Span totals per name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    through a wrapped function is not counted twice.  Self time is a
    span's duration minus the durations of its direct child spans.
    """

    def __init__(self):
        self.totals = {}
        self.counters = {"classsets.cache.hits": 0, "classsets.cache.misses": 0,
                         "classsets.cache.rejects": 0}
        self.absent = []
        self._stack = []
        self._depth = {}

    def span(self, name, fn, extra=None):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self._depth[name] = depth
                if self._stack:
                    self._stack[-1][0] += dur
                self._add(name, dur if depth == 0 else 0.0, dur - frame[0])
                if extra is not None:
                    self._add("%s.%s" % (name, extra(*args, **kwargs)),
                              dur if depth == 0 else 0.0, dur - frame[0])
        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, name, incl, self_s):
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += incl
        entry[2] += self_s

    def cache_load(self, fn):
        """Classify each ClassSetCache.load as a hit, a miss or a reject."""
        def load(cache, order, *args, **kwargs):
            path_of = getattr(cache, "_path", None)
            existed = path_of is not None and os.path.exists(path_of(*order.level))
            result = fn(cache, order, *args, **kwargs)
            if result is not None:
                self.counters["classsets.cache.hits"] += 1
            elif existed:
                self.counters["classsets.cache.rejects"] += 1
            else:
                self.counters["classsets.cache.misses"] += 1
            return result
        return load

    def install(self):
        """Rebind every traced function in each quatmatch module holding it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "quatmatch" or n.startswith("quatmatch."))]
        for modname, attr, name in TRACED:
            owner = sys.modules.get("quatmatch." + modname)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            fn = original
            if name == "classsets.cache.load":
                fn = self.cache_load(fn)
            extra = None
            if name == "heckedeg.oracle_local_orbits":
                def extra(pattern, *_a, **_k):
                    return pattern
            wrapped = self.span(name, fn, extra)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def result(self):
        return {"spans": self.totals, "counters": self.counters,
                "absent": self.absent}


# ---------------------------------------------------------------------------
# ops

def suite_config(vc, cases, out_dir, cache_dir):
    kwargs = {"cases": cases, "out_dir": out_dir}
    # A cache that a later commit removes is simply not passed.
    if "cache_dir" in getattr(vc.SuiteConfig, "__dataclass_fields__", {}):
        kwargs["cache_dir"] = cache_dir
    return vc.SuiteConfig(**kwargs)


def observe_reports(cases, reports, out_dir):
    """{case key: (0 if the case passed else 1, digest of its report file)}."""
    passed = {r.case.key(): r.all_pass for r in reports}
    out = {}
    for case in cases:
        path = os.path.join(out_dir, "report_%s.txt" % case.key())
        if case.key() in passed and os.path.exists(path):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[case.key()] = (0 if passed[case.key()] else 1, digest)
    return out


def observe_cli(argv, code, text):
    """What the parent checks of a `local` or `certify` op's output."""
    if argv[0] == "local":
        kept = [ln for ln in text.splitlines()
                if ln.startswith(("prop-3.1", "  coset"))]
        return code, hashlib.sha256("\n".join(kept).encode()).hexdigest()
    return code, text.strip()


def run_ops(workload, seed, out_dir, cache_dir):
    """Run the workload's ops; returns (their wall seconds, observations)."""
    import quatmatch.verifycli as vc

    if workload == "suite_cold":
        cases = [vc.TheoremCase(t, D=D, p=p, q=q, N=N, m_max=mm)
                 for t, D, p, q, N, mm in SUITE_CASES]
        config = suite_config(vc, cases, out_dir, cache_dir)
        reports = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                _code, reports = vc.run_suite(config)
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        return elapsed, observe_reports(cases, reports, out_dir)

    raw = []
    start = time.perf_counter()
    for argv in local_grid_ops(seed):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = vc.main(argv)
        except (Exception, SystemExit):  # argparse exits on a rejected flag
            traceback.print_exc()
            continue
        raw.append((argv, code, buf.getvalue()))
    elapsed = time.perf_counter() - start
    return elapsed, {op_name(argv): observe_cli(argv, code, text)
                     for argv, code, text in raw}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir")
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true",
                        help="import the package, report ready and exit")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import quatmatch
    tree = os.path.join(SRC, "quatmatch") + os.sep
    if not os.path.abspath(quatmatch.__file__).startswith(tree):
        raise SystemExit("quatmatch imported from %s, not from %s"
                         % (quatmatch.__file__, tree))
    import quatmatch.verifycli  # noqa: F401  (part of setup: the CLI module)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        return

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    elapsed, observed = run_ops(args.workload, args.seed, args.out_dir,
                                args.cache_dir)
    result = {
        "run_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "observed": observed,
    }
    if tracer is not None:
        result["trace"] = tracer.result()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
