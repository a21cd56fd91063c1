"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything here is exact arithmetic; there are no
tolerances anywhere.
"""

import os
import time
from fractions import Fraction

from quatmatch import verifycli as vc
from quatmatch.classsets import genus_theta, mass_formula
from quatmatch.heckedeg import (
    local_degree,
    oracle_local_orbits,
    volume,
)
from quatmatch.quatalg import ramified_model
from quatmatch.weilmatch import match_coefficients, verify_prop_3_1

from weil_reference import verify_basis_lemma


def _report(number, label, started, passed):
    print("criterion %2d %s (%.2fs): %s"
          % (number, "PASS" if passed else "FAIL", time.monotonic() - started,
             label))
    assert passed


def test_criterion_01_local_matching():
    started = time.monotonic()
    ok = all(verify_prop_3_1(p) for p in (2, 3, 5, 7, 11))
    _report(1, "local matching identities at p in {2,3,5,7,11}", started, ok)


def test_criterion_02_basis_lemma_and_coefficients():
    started = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7):
        ok = ok and verify_basis_lemma(p)
        model = ramified_model(p)
        for k in range(p):
            for l in range(p):
                if (k, l) == (0, 0):
                    continue
                coeffs = match_coefficients(p, k, l)  # checked DFT matrix A, A x = t
                d = model.d_value(k, l) % p
                ok = ok and coeffs[d] == -1
                ok = ok and sum(1 for c in coeffs if c) == 1
    _report(2, "basis lemma and matching coefficients at p in {2,3,5,7}",
            started, ok)


def test_criterion_03_classical_cross_check(pool):
    started = time.monotonic()
    theta = genus_theta(pool.get(2, 1), 100)

    def sigma_odd(m):
        return sum(d for d in range(1, m + 1) if m % d == 0 and d % 2)

    ok = all(theta[m] == 24 * sigma_odd(m) for m in range(1, 101))
    _report(3, "r_{2,1}(m) = 24 * sigma_odd(m) for m <= 100", started, ok)


def test_criterion_04_mass_certificates(pool):
    started = time.monotonic()
    grid = [(2, 1), (3, 1), (2, 3), (3, 2), (5, 1), (2, 5), (30, 1)]
    ok = True
    for D, N in grid:
        cs = pool.get(D, N)
        ok = ok and sum(Fraction(1, w) for w in cs.weights) == mass_formula(D, N)
    _report(4, "mass certificates on the (D, N) grid", started, ok)


def test_criterion_05_degree_certification():
    started = time.monotonic()
    ok = True
    for pattern in ("split", "level", "ramified"):
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                want = local_degree(pattern, p, k)
                got = oracle_local_orbits(pattern, p, k, k + 2)
                again = oracle_local_orbits(pattern, p, k, k + 3)
                ok = ok and got == again == want
    _report(5, "local degree rules match orbit oracles (stable at M, M+1)",
            started, ok)


def test_criterion_06_theorem_1_1(pool):
    started = time.monotonic()
    report = vc.run_case(vc.TheoremCase("1.1", D=1, p=2, q=3, N=1, m_max=50),
                         pool)
    _report(6, "theorem family 1.1 at (D,p,q,N) = (1,2,3,1), m <= 50",
            started, report.all_pass)


def test_criterion_07_theorem_1_4(pool):
    started = time.monotonic()
    ok = volume(6, 1) == Fraction(-1, 6)
    for D, p in ((2, 3), (3, 2)):
        report = vc.run_case(vc.TheoremCase("1.4", D=D, p=p, N=1, m_max=50),
                             pool)
        ok = ok and report.all_pass
    _report(7, "theorem family 1.4 at (2,3,1) and (3,2,1), m <= 50 "
               "(volume(6,1) = -1/6)", started, ok)


def test_criterion_08_theorem_1_5(pool):
    started = time.monotonic()
    report = vc.run_case(vc.TheoremCase("1.5", D=6, p=5, N=1, m_max=30), pool)
    ok = report.all_pass
    # the m = 1 value is pinned by the volume computation on the other side
    lhs_m1 = report.rows[0][1]
    ok = ok and lhs_m1 == genus_theta(pool.get(30, 1), 1)[1]
    ok = ok and lhs_m1 == Fraction(-1, 2) * (-12) + Fraction(3, 2) * (-2)
    _report(8, "theorem family 1.5 at (6,5,1), m <= 30 (weighted averaging)",
            started, ok)


def test_criterion_09_theorem_1_3_sweeps():
    started = time.monotonic()
    ok = True
    for case in vc.default_suite_cases():
        if case.theorem != "1.3":
            continue
        report = vc.run_case(case, vc.ClassSetPool())
        ok = ok and report.all_pass
    _report(9, "theorem family 1.3 sweeps, m <= 100", started, ok)


def test_criterion_10_determinism(tmp_path):
    started = time.monotonic()
    cases = vc.default_suite_cases()
    dirs = {}
    for tag in ("cold_a", "cold_b"):
        out = tmp_path / ("out_" + tag)
        code, _ = vc.run_suite(vc.SuiteConfig(list(cases), out_dir=str(out)))
        assert code == 0
        dirs[tag] = out
    ok = True
    names = sorted(os.listdir(dirs["cold_a"]))
    ok = ok and names == sorted(os.listdir(dirs["cold_b"]))
    for name in names:
        with open(dirs["cold_a"] / name, "rb") as fh:
            blob_a = fh.read()
        with open(dirs["cold_b"] / name, "rb") as fh:
            blob_b = fh.read()
        ok = ok and blob_a == blob_b
    _report(10, "byte-identical reports across two cold runs", started, ok)
