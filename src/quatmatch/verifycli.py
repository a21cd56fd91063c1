"""Identity verification harness and command-line interface.

`run_case` computes both sides of one identity exactly, row by row over
1 <= m <= m_max, and records (m, lhs, rhs, pass).  A report is pure data:
re-running it is byte-identical (timings are kept out of report files).

The identities, where w(p), W(p) are the local matching coefficients (char(L_ram)
matches w(p) char(L0) + W(p) char(L1)) that `weilmatch.matching_weights` solves:

    1.1  w(q) r_{Dp,N}(m)  + W(q) r_{Dp,Nq}(m)  =  w(p) r_{Dq,N}(m)  + W(p) r_{Dq,Np}(m)
    1.3  w(q) r'_{Dp,N}(m) + W(q) r'_{Dp,Nq}(m) =  w(p) r'_{Dq,N}(m) + W(p) r'_{Dq,Np}(m)
    1.4  r'_{Dp,N}(m)  =  w(p) r_{D,N}(m)  + W(p) r_{D,Np}(m)
    1.5  r_{Dp,N}(m)   =  w(p) r'_{D,N}(m) + W(p) r'_{D,Np}(m)

where r is the genus-averaged representation number (definite side) and r'
the normalised correspondence degree (indefinite side).  IDENTITIES is the
single definition of the four; `run_case` and `TheoremCase.validate` read it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import heckedeg, weilmatch
from .classsets import class_set_for, genus_theta
from .exactnum import is_prime, is_squarefree, prime_factors


class Identity(NamedTuple):
    primes: tuple  # the primes a case names, in order
    m_max: int     # default m_max of a single case on the command line
    lhs: tuple     # terms (weight, side, D', N'); side "r" or "r'"
    rhs: tuple


IDENTITIES = {
    "1.1": Identity(("p", "q"), 50,
                    (("w(q)", "r", "Dp", "N"), ("W(q)", "r", "Dp", "Nq")),
                    (("w(p)", "r", "Dq", "N"), ("W(p)", "r", "Dq", "Np"))),
    "1.3": Identity(("p", "q"), 100,
                    (("w(q)", "r'", "Dp", "N"), ("W(q)", "r'", "Dp", "Nq")),
                    (("w(p)", "r'", "Dq", "N"), ("W(p)", "r'", "Dq", "Np"))),
    "1.4": Identity(("p",), 50,
                    (("1", "r'", "Dp", "N"),),
                    (("w(p)", "r", "D", "N"), ("W(p)", "r", "D", "Np"))),
    "1.5": Identity(("p",), 30,
                    (("1", "r", "Dp", "N"),),
                    (("w(p)", "r'", "D", "N"), ("W(p)", "r'", "D", "Np"))),
}


@dataclass(frozen=True)
class TheoremCase:
    theorem: str
    D: int
    N: int
    p: int | None = None
    q: int | None = None
    m_max: int = 50
    pins: tuple = field(default=(), compare=False)  # ((m, expected lhs), ...)

    def validate(self):
        if self.theorem not in IDENTITIES:
            raise ValueError("unknown theorem %r" % (self.theorem,))
        if self.D < 1 or not is_squarefree(self.D):
            raise ValueError("D must be a squarefree positive integer")
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")
        for m, _value in self.pins:
            if not 1 <= m <= self.m_max:
                raise ValueError("pin m=%d is outside 1..m_max=%d" % (m, self.m_max))
            if [n for n, _ in self.pins].count(m) > 1:
                raise ValueError("pin m=%d is given more than once" % m)
        identity = IDENTITIES[self.theorem]
        names = identity.primes
        if [n for n in ("p", "q") if getattr(self, n) is not None] != list(names):
            raise ValueError("theorem %s takes exactly these primes: %s"
                             % (self.theorem, ", ".join(names)))
        for r in (getattr(self, n) for n in names):
            if not is_prime(r):
                raise ValueError("%r is not prime" % (r,))
        if self.p == self.q:
            raise ValueError("p and q must be distinct primes")
        # a term reads the Eichler order of level N' in the algebra of
        # discriminant D': definite for r; indefinite for r', whose level
        # factors exist for squarefree N' only
        for _weight, side, d, n in identity.lhs + identity.rhs:
            D, N = self._product(d), self._product(n)
            needs = "theorem %s: %s_{%d,%d} needs" % (self.theorem, side, D, N)
            if not is_squarefree(D) or math.gcd(D, N) != 1:
                raise ValueError("%s a squarefree D' coprime to N'" % needs)
            odd = len(prime_factors(D)) % 2
            if side == "r" and not odd:
                raise ValueError("%s D' with an odd number of primes" % needs)
            if side == "r'" and (D == 1 or odd or not is_squarefree(N)):
                raise ValueError("%s D' > 1 with an even number of primes and a "
                                 "squarefree N'" % needs)

    def _product(self, text):  # "D", "Dp", "Nq", ...: a product of fields
        return math.prod(getattr(self, c) for c in text)

    def terms(self):
        """(lhs, rhs): lists of the (weight, side, D', N') terms in numbers;
        w(r) and W(r) are `weilmatch.matching_weights(r)`."""
        identity = IDENTITIES[self.theorem]
        weights = {n: weilmatch.matching_weights(getattr(self, n))
                   for n in identity.primes}
        def weight(text):  # "1", "w(r)" or "W(r)"
            return Fraction(1) if text == "1" else weights[text[2]][text[0] == "W"]
        return tuple([(weight(w), side, self._product(d), self._product(n))
                      for w, side, d, n in terms]
                     for terms in (identity.lhs, identity.rhs))

    def key(self) -> str:
        fields = (("theorem", self.theorem.replace(".", "")), ("D", self.D),
                  ("p", self.p), ("q", self.q), ("N", self.N), ("mmax", self.m_max))
        return "_".join("%s%s" % kv for kv in fields if kv[1] is not None)

    def describe(self) -> str:
        out = "theorem %s, D=%d, N=%d" % (self.theorem, self.D, self.N)
        if self.p is not None:
            out += ", p=%d" % self.p
        if self.q is not None:
            out += ", q=%d" % self.q
        return out + ", m<=%d" % self.m_max


@dataclass
class VerificationReport:
    case: TheoremCase
    rows: list  # (m, lhs: Fraction, rhs: Fraction, ok: bool)
    seconds: float = 0.0  # informational; never serialized

    @property
    def all_pass(self) -> bool:
        return all(ok for _m, _l, _r, ok in self.rows)

    def to_table(self) -> str:
        lines = ["# quatmatch verification report v1",
                 "case %s" % self.case.describe(),
                 "m lhs rhs pass"]
        for m, lhs, rhs, ok in self.rows:
            lines.append("%d %s %s %d" % (m, lhs, rhs, int(ok)))
        lines.append("verdict %s" % ("PASS" if self.all_pass else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["m,lhs,rhs,pass"]
        for m, lhs, rhs, ok in self.rows:
            lines.append("%d,%s,%s,%d" % (m, lhs, rhs, int(ok)))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "case": self.case.describe(),
            "rows": [[m, str(lhs), str(rhs), bool(ok)]
                     for m, lhs, rhs, ok in self.rows],
            "all_pass": self.all_pass,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "table":
            return self.to_table()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError("unknown format %r" % (fmt,))


class ClassSetPool:
    """In-memory pool of definite class sets and of indefinite degree
    columns, each built once per run for its (D, N)."""

    def __init__(self):
        self._memo = {}
        self._degrees = {}

    def get(self, D: int, N: int):
        key = (D, N)
        if key not in self._memo:
            self._memo[key] = class_set_for(D, N)
        return self._memo[key]

    def degrees(self, D: int, N: int, m_max: int):
        """`heckedeg.degree_column` of (D, N) at the largest m_max so far."""
        if len(self._degrees.get((D, N), ())) <= m_max:
            self._degrees[(D, N)] = heckedeg.degree_column(D, N, m_max)
        return self._degrees[(D, N)]


def _column(side, D, N, m_max: int, pool: ClassSetPool):
    """The values of r or r' at (D, N) for m = 1 .. m_max, as integer
    numerators over one positive denominator: (numerators, denominator)."""
    if side == "r":
        values = genus_theta(pool.get(D, N), m_max)[1:]
        den = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den
    # r' = 2*deg_T/vol = 2*vol.den*deg_T / vol.num, and the volume is negative
    vol = heckedeg.volume(D, N)
    degrees = pool.degrees(D, N, m_max)[1:m_max + 1]
    return [-2 * vol.denominator * d for d in degrees], -vol.numerator


def _side(terms, m_max: int, pool: ClassSetPool):
    """sum(weight * value) over the terms at m = 1 .. m_max: each term's
    weighted column as integers over one denominator, summed over their lcm."""
    columns = []
    for weight, side, D, N in terms:
        nums, den = _column(side, D, N, m_max, pool)
        columns.append(([weight.numerator * n for n in nums],
                        weight.denominator * den))
    den = math.lcm(*(d for _nums, d in columns))
    scaled = [[n * (den // d) for n in nums] for nums, d in columns]
    return [Fraction(sum(row), den) for row in zip(*scaled)]


def run_case(case: TheoremCase, pool: ClassSetPool) -> VerificationReport:
    """Both sides of the case's identity, row by row over 1 <= m <= m_max:
    each side summed in integers by `_side`, then one Fraction per side per
    row.  A row passes when the sides agree and the pin at m, if any, holds."""
    case.validate()
    started = time.monotonic()
    lhs, rhs = (_side(terms, case.m_max, pool) for terms in case.terms())
    pins = {m: Fraction(value) for m, value in case.pins}
    rows = [(m, left, right, left == right and (m not in pins or pins[m] == left))
            for m, left, right in zip(range(1, case.m_max + 1), lhs, rhs)]
    return VerificationReport(case, rows, time.monotonic() - started)


def default_suite_cases():
    """The standard verification grid covering every branch of the pipeline."""
    cases = [
        TheoremCase("1.1", D=1, p=2, q=3, N=1, m_max=50),
        TheoremCase("1.4", D=2, p=3, N=1, m_max=50),
        TheoremCase("1.4", D=3, p=2, N=1, m_max=50),
        TheoremCase("1.5", D=6, p=5, N=1, m_max=30),
        # class sets that take two or more p-neighbor layers
        TheoremCase("1.4", D=23, p=2, N=1, m_max=50),
        TheoremCase("1.5", D=6, p=23, N=1, m_max=30),
    ]
    for D in (2, 3, 5):
        others = [r for r in (2, 3, 5, 7) if D % r]
        for i, p in enumerate(others):
            for q in others[i + 1:]:
                small = next(n for n in (2, 3, 5, 7, 11)
                             if math.gcd(n, D * p * q) == 1)
                for N in (1, small):
                    cases.append(TheoremCase("1.3", D=D, p=p, q=q, N=N, m_max=100))
    return cases


@dataclass
class SuiteConfig:
    cases: list
    out_dir: str | None = None
    fmt: str = "table"


def run_suite(config: SuiteConfig):
    """Run all configured cases; returns (exit_code, reports)."""
    if not config.cases:
        print("warning: empty case list; nothing to verify")
        return 0, []
    pool = ClassSetPool()
    reports = []
    for case in sorted(config.cases, key=lambda c: c.key()):
        report = run_case(case, pool)
        reports.append(report)
        status = "PASS" if report.all_pass else "FAIL"
        print("%-4s %s  (%.2fs)" % (status, case.describe(), report.seconds))
        if not report.all_pass:
            m, lhs, rhs, _ok = next(row for row in report.rows if not row[3])
            print("     first failing row: m=%d lhs=%s rhs=%s" % (m, lhs, rhs))
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        summary = {"cases": [], "all_pass": all(r.all_pass for r in reports)}
        for report in reports:
            name = "report_%s.%s" % (report.case.key(),
                                     "txt" if config.fmt == "table" else config.fmt)
            path = os.path.join(config.out_dir, name)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(report.render(config.fmt))
            summary["cases"].append({"case": report.case.describe(),
                                     "file": name,
                                     "pass": report.all_pass})
        with open(os.path.join(config.out_dir, "summary.json"), "w",
                  encoding="ascii") as fh:
            json.dump(summary, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return (0 if all(r.all_pass for r in reports) else 1), reports


# ---------------------------------------------------------------------------
# command line

def _parse_pins(pin_args):
    pins = []
    for text in pin_args or ():
        m_text, _, val_text = text.partition(":")
        try:
            pins.append((int(m_text), Fraction(val_text)))
        except ZeroDivisionError:
            raise ValueError("pin %r has a zero denominator" % (text,)) from None
        except ValueError:
            raise ValueError("pin %r is not M:VALUE" % (text,)) from None
    return tuple(pins)


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quatmatch",
        description="exact verification of quaternionic counting identities")
    sub = parser.add_subparsers(dest="command", required=True)

    # a usage that fits one line, as argparse's own list of nine flags does not
    pv = sub.add_parser("verify", help="verify one identity family or the full grid",
                        usage="%(prog)s --theorem THEOREM [options]")
    pv.add_argument("--theorem", required=True,
                    choices=list(IDENTITIES) + ["all"])
    pv.add_argument("--D", type=int, default=None)
    pv.add_argument("--N", type=int, default=None, help="default 1")
    pv.add_argument("--p", type=int, default=None)
    pv.add_argument("--q", type=int, default=None)
    pv.add_argument("--m-max", type=int, default=None)
    pv.add_argument("--out-dir", default=None)
    pv.add_argument("--format", default="table", choices=("table", "json", "csv"))
    pv.add_argument("--pin", action="append", default=None,
                    metavar="M:VALUE", help="assert lhs(M) == VALUE (harness sanity)")

    pc = sub.add_parser("classset", help="print class-set data for (D, N)")
    pc.add_argument("--D", type=int, required=True)
    pc.add_argument("--N", type=int, default=1)

    pl = sub.add_parser("local", help="print local matching tables at a prime")
    pl.add_argument("--p", type=int, required=True)

    pd = sub.add_parser("degree", help="print correspondence degree data")
    pd.add_argument("--D", type=int, required=True)
    pd.add_argument("--N", type=int, default=1)
    pd.add_argument("--m", type=int, required=True)

    po = sub.add_parser("certify", help="run a local orbit-counting oracle")
    po.add_argument("--pattern", required=True,
                    choices=("split", "level", "ramified"))
    po.add_argument("--p", type=int, required=True)
    po.add_argument("--k", type=int, required=True)
    po.add_argument("--M", type=int, required=True)
    return parser


def _verify_config(args) -> SuiteConfig:
    """The suite a `verify` invocation asks for; ValueError on invalid input."""
    if args.theorem == "all":
        given = [name for name in ("D", "N", "p", "q", "m_max", "pin")
                 if getattr(args, name) is not None]
        if given:
            raise ValueError("--theorem all runs the default grid and takes no "
                             "per-case input, got %s" % ", ".join(given))
        return SuiteConfig(default_suite_cases(), args.out_dir, args.format)
    if args.D is None:
        raise ValueError("--D is required for a single theorem case")
    m_max = IDENTITIES[args.theorem].m_max if args.m_max is None else args.m_max
    case = TheoremCase(args.theorem, D=args.D, N=1 if args.N is None else args.N,
                       p=args.p, q=args.q, m_max=m_max, pins=_parse_pins(args.pin))
    case.validate()
    return SuiteConfig([case], args.out_dir, args.format)


def _cmd_verify(args, parser) -> int:
    try:
        config = _verify_config(args)
        if config.out_dir:
            # an unusable directory is a usage error before any case runs
            os.makedirs(config.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    code, reports = run_suite(config)
    if args.theorem != "all" and not config.out_dir:
        sys.stdout.write(reports[0].render(config.fmt))
    return code


def _cmd_classset(args, parser) -> int:
    try:
        cs = class_set_for(args.D, args.N)
    except ValueError as exc:
        parser.error("D=%d, N=%d: %s" % (args.D, args.N, exc))
    print("class set for D=%d, N=%d" % (cs.D, cs.N))
    print("mass = %s  (class number %d)" % (cs.mass, cs.class_number))
    for idx, (ideal, w) in enumerate(zip(cs.representatives, cs.weights)):
        print("class %d: nrd=%s weight=%d lattice=[%s]"
              % (idx, ideal.nrd, w, ideal.lattice.to_text()))
    print("genus theta (m<=6) = [%s]"
          % ", ".join(str(x) for x in genus_theta(cs, 6)))
    return 0


def _cmd_local(args, parser) -> int:
    if not is_prime(args.p):
        parser.error("--p must be prime, got %d" % args.p)
    print(weilmatch.lambda_table_text(args.p))
    return 0


def _cmd_degree(args, parser) -> int:
    try:
        deg = heckedeg.deg_T(args.D, args.N, args.m)
        vol = heckedeg.volume(args.D, args.N)
    except ValueError as exc:
        parser.error("D=%d, N=%d, m=%d: %s" % (args.D, args.N, args.m, exc))
    print("deg_T(D=%d, N=%d, m=%d) = %d" % (args.D, args.N, args.m, deg))
    print("volume = %s" % vol)
    print("r_prime = %s" % (Fraction(2 * deg) / vol))
    return 0


def _cmd_certify(args, parser) -> int:
    try:
        count = heckedeg.oracle_local_orbits(args.pattern, args.p, args.k, args.M)
    except ValueError as exc:
        parser.error("--p %d --k %d --M %d: %s" % (args.p, args.k, args.M, exc))
    closed = heckedeg.local_degree(args.pattern, args.p, args.k)
    print("oracle orbits: %d, closed form: %d, %s"
          % (count, closed, "AGREE" if count == closed else "MISMATCH"))
    return 0 if count == closed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "classset": _cmd_classset,
        "local": _cmd_local,
        "degree": _cmd_degree,
        "certify": _cmd_certify,
    }
    try:
        return handlers[args.command](args, parser)
    except ArithmeticError as exc:
        # a certificate that failed inside the computation, not bad input
        print("quatmatch %s: internal failure: %s" % (args.command, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
