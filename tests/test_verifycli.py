import ast
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quatmatch import heckedeg, verifycli as vc
from quatmatch.classsets import genus_theta
from quatmatch.exactnum import is_prime, is_squarefree, prime_factors


def test_case_validation_errors():
    with pytest.raises(ValueError):
        vc.TheoremCase("1.5", D=1, p=2, N=1).validate()
    with pytest.raises(ValueError):
        vc.TheoremCase("1.1", D=2, p=3, q=5, N=1).validate()  # odd prime count
    with pytest.raises(ValueError):
        vc.TheoremCase("1.4", D=6, p=5, N=1).validate()  # even prime count
    with pytest.raises(ValueError):
        vc.TheoremCase("1.1", D=1, p=3, q=3, N=1).validate()  # p == q
    with pytest.raises(ValueError):
        vc.TheoremCase("1.1", D=1, p=2, q=3, N=6).validate()  # N not coprime
    with pytest.raises(ValueError, match="squarefree D'"):
        vc.TheoremCase("1.4", D=3, p=3, N=1).validate()  # p | D
    with pytest.raises(ValueError):
        vc.TheoremCase("1.4", D=3, p=4, N=1).validate()  # p not prime
    with pytest.raises(ValueError):
        vc.TheoremCase("2.1", D=3, p=2, N=1).validate()
    with pytest.raises(ValueError):
        vc.TheoremCase("1.3", D=2, p=3, q=5, N=49, m_max=10).validate()  # N not squarefree
    with pytest.raises(ValueError):
        vc.TheoremCase("1.4", D=2, p=3, N=25).validate()  # N not squarefree
    with pytest.raises(ValueError):
        vc.TheoremCase("1.5", D=6, p=5, N=49).validate()  # N not squarefree
    with pytest.raises(ValueError):
        vc.TheoremCase("1.4", D=2, p=3, q=5, N=1).validate()  # 1.4 takes p only
    with pytest.raises(ValueError):
        vc.TheoremCase("1.4", D=2, p=3, q=2, N=1).validate()  # and q | D
    with pytest.raises(ValueError):
        vc.TheoremCase("1.3", D=2, p=3, N=1).validate()  # 1.3 needs q
    for pins in (((1, 5), (1, -12)), ((1, -12), (1, 5))):
        with pytest.raises(ValueError, match="pin m=1 is given more than once"):
            vc.TheoremCase("1.4", D=2, p=3, N=1, m_max=2, pins=pins).validate()
    vc.TheoremCase("1.3", D=2, p=3, q=5, N=7, m_max=10).validate()


def test_single_case_report(pool):
    case = vc.TheoremCase("1.4", D=2, p=3, N=1, m_max=8)
    report = vc.run_case(case, pool)
    assert report.all_pass
    assert report.rows[0] == (1, Fraction(-12), Fraction(-12), True)
    table = report.to_table()
    assert "verdict PASS" in table
    csv = report.to_csv()
    assert csv.splitlines()[0] == "m,lhs,rhs,pass"
    payload = json.loads(report.to_json())
    assert payload["all_pass"] is True


def test_theorem_13_formula_side():
    case = vc.TheoremCase("1.3", D=2, p=3, q=5, N=1, m_max=60)
    report = vc.run_case(case, vc.ClassSetPool())
    assert report.all_pass
    # m = 1 row reduces to an identity among volumes
    m, lhs, rhs, ok = report.rows[0]
    assert (m, ok) == (1, True)
    assert lhs == rhs == Fraction(3)


def test_pins_catch_corruption(pool, tmp_path):
    good = vc.TheoremCase("1.4", D=2, p=3, N=1, m_max=3,
                          pins=((1, Fraction(-12)),))
    code, reports = vc.run_suite(vc.SuiteConfig([good], str(tmp_path / "a")))
    assert code == 0 and reports[0].all_pass
    bad = vc.TheoremCase("1.4", D=2, p=3, N=1, m_max=3,
                         pins=((1, Fraction(-6)),))
    code, reports = vc.run_suite(vc.SuiteConfig([bad], str(tmp_path / "b")))
    assert code == 1
    assert not reports[0].rows[0][3]


def test_empty_suite_is_ok(capsys):
    code, reports = vc.run_suite(vc.SuiteConfig([]))
    assert code == 0 and reports == []
    assert "empty case list" in capsys.readouterr().out


def test_suite_writes_reports(tmp_path, pool):
    out = tmp_path / "reports"
    cases = [vc.TheoremCase("1.3", D=2, p=3, q=5, N=1, m_max=5)]
    code, _ = vc.run_suite(vc.SuiteConfig(cases, str(out)))
    assert code == 0
    files = sorted(os.listdir(out))
    assert "summary.json" in files
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"] is True
    report_file = [f for f in files if f.startswith("report_")][0]
    assert "verdict PASS" in (out / report_file).read_text()


def test_cli_verify_single(tmp_path, capsys):
    # the table default comes from argparse; each format names its own file
    for fmt, ext in ((None, "txt"), ("json", "json"), ("csv", "csv")):
        out = tmp_path / ext
        code = vc.main(["verify", "--theorem", "1.3", "--D", "2", "--p", "3",
                        "--q", "5", "--N", "1", "--m-max", "4",
                        "--out-dir", str(out)]
                       + (["--format", fmt] if fmt else []))
        assert code == 0
        name = "report_theorem13_D2_p3_q5_N1_mmax4.%s" % ext
        assert sorted(os.listdir(out)) == [name, "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert [c["file"] for c in summary["cases"]] == [name]
        assert summary["all_pass"] is True


def test_cli_degree_and_certify(capsys):
    assert vc.main(["degree", "--D", "6", "--N", "1", "--m", "5"]) == 0
    out = capsys.readouterr().out
    assert "deg_T(D=6, N=1, m=5) = 6" in out
    assert "volume = -1/6" in out
    assert vc.main(["certify", "--pattern", "level", "--p", "2",
                    "--k", "1", "--M", "3"]) == 0
    assert "AGREE" in capsys.readouterr().out


def test_cli_local_and_classset(capsys):
    assert vc.main(["local", "--p", "2"]) == 0
    assert "prop-3.1 matchings hold: True" in capsys.readouterr().out
    assert vc.main(["classset", "--D", "2", "--N", "1"]) == 0
    out = capsys.readouterr().out
    assert "mass = 1/12" in out and "class number 1" in out
    assert "genus theta (m<=6) = [1, 24, 24, 96, 24, 144, 96]" in out


def test_cli_parser_is_reused_across_calls(capsys):
    # main() builds its parser once per process; each call, also after a
    # usage error, prints what the same command prints in a fresh process
    src = os.path.dirname(os.path.dirname(os.path.abspath(vc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["certify", "--pattern", "level", "--p", "3", "--k", "1",
                  "--M", "3"],
                 ["local", "--p", "4"],
                 ["degree", "--D", "6", "--N", "5", "--m", "25"]):
        fresh = subprocess.run([sys.executable, "-m", "quatmatch"] + argv,
                               capture_output=True, text=True, env=env,
                               timeout=60)
        try:
            code = vc.main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert vc._build_parser() is vc._build_parser()


@pytest.mark.parametrize("argv", [
    ["local", "--p", "4"],
    ["local", "--p", "1"],
    ["local", "--p", "0"],
    ["certify", "--pattern", "split", "--p", "4", "--k", "1", "--M", "3"],
    ["certify", "--pattern", "ramified", "--p", "3", "--k", "-1", "--M", "2"],
    ["certify", "--pattern", "level", "--p", "3", "--k", "2", "--M", "1"],
], ids=" ".join)
def test_cli_rejects_bad_local_input(argv, capsys):
    # a usage error (exit 2), distinct from certify's MISMATCH (exit 1)
    with pytest.raises(SystemExit) as exc:
        vc.main(argv)
    assert exc.value.code == 2
    assert "error: --" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "--pattern", pattern, "--p", "257", "--k", "1", "--M", "3"]
    for pattern in ("split", "level", "ramified")
], ids=" ".join)
def test_cli_certifies_past_p_255(argv, capsys):
    # the residue counts are closed forms, so no table bounds p
    assert vc.main(argv) == 0
    assert capsys.readouterr().out.endswith(", AGREE\n")


@pytest.mark.parametrize("argv, config", [
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--N", "0"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "0"], None),
    (["verify", "--theorem", "1.4", "--D", "4", "--p", "3"], None),
    (["verify", "--theorem", "1.4", "--p", "3"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--q", "5"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--q", "2"], None),
    (["verify", "--theorem", "1.1", "--D", "1", "--p", "3", "--q", "3"], None),
    (["verify", "--theorem", "1.3", "--D", "2", "--p", "3", "--q", "3"], None),
    (["verify", "--theorem", "all", "--D", "999", "--m-max", "3", "--pin", "1:5"],
     None),
    (["verify", "--theorem", "all", "--N", "5"], None),
    (["verify", "--theorem", "all", "--p", "3"], None),
    (["verify", "--theorem", "all", "--q", "5"], None),
    (["verify", "--theorem", "all", "--m-max", "3"], None),
    (["verify", "--theorem", "all", "--pin", "1:5"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "2",
      "--pin", "1:1/0"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "2",
      "--pin", "7:1"], None),
    # a repeated m, whichever of its pins is the true one (lhs(1) = -12)
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "2",
      "--pin", "1:5", "--pin", "1:-12"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "2",
      "--pin", "1:-12", "--pin", "1:5"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--format", "xml"], None),
    (["verify", "--theorem", "all", "--format", "xml"], None),
    # a config file that the command once accepted: verify reads flags only
    (["verify", "--theorem", "1.4"], "D=2\np=3\nm_max=2\npin=1:-12\n"),
    (["classset", "--D", "6"], None),
    (["classset", "--D", "4"], None),
    (["classset", "--D", "2", "--N", "2"], None),
    (["degree", "--D", "2", "--N", "1", "--m", "5"], None),
    (["degree", "--D", "6", "--N", "4", "--m", "5"], None),
    (["degree", "--D", "6", "--N", "1", "--m", "0"], None),
], ids=lambda v: (" ".join(v) if isinstance(v, list)
                  else "config " + v.strip().replace("\n", ";") if v else "no-config"))
def test_cli_rejects_bad_verify_input(argv, config, tmp_path, capsys):
    # rejected before any computing, as one usage line and one error line
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        vc.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 2 and "error: " in err.splitlines()[1]


@pytest.mark.parametrize("theorem, D", [("1.1", 1), ("1.3", 2)])
def test_equal_p_and_q_are_named(theorem, D, capsys):
    # named before any term, whose own check would blame D' and N'
    with pytest.raises(SystemExit):
        vc.main(["verify", "--theorem", theorem, "--D", str(D),
                 "--p", "3", "--q", "3"])
    err_line = capsys.readouterr().err.splitlines()[-1]
    assert err_line.endswith("error: p and q must be distinct primes")


def test_one_degree_column_per_level(monkeypatch):
    # the default grid reads 26 r' levels, each column built once: its 1.3
    # cases (m_max 100) sort before the 1.4 and 1.5 cases that share their
    # levels at a smaller m_max
    calls = []
    original = heckedeg.degree_column
    def counted(D, N, m_max):
        calls.append((D, N))
        return original(D, N, m_max)
    monkeypatch.setattr(heckedeg, "degree_column", counted)
    pool = vc.ClassSetPool()
    for case in sorted(vc.default_suite_cases(), key=lambda c: c.key()):
        vc.run_case(case, pool)
    assert len(calls) == 26 and len(set(calls)) == 26


def test_degree_column_is_extended_for_a_larger_m_max():
    pool = vc.ClassSetPool()
    short = pool.degrees(6, 5, 10)
    assert pool.degrees(6, 5, 4) is short
    longer = pool.degrees(6, 5, 30)
    assert len(longer) == 31 and longer[:11] == short
    assert pool.degrees(6, 5, 20) is longer


@pytest.mark.parametrize("pin", ["1", "x:1"])
def test_cli_malformed_pin_is_named(pin, capsys):
    with pytest.raises(SystemExit) as exc:
        vc.main(["verify", "--theorem", "1.4", "--D", "2", "--p", "3",
                 "--m-max", "2", "--pin", pin])
    assert exc.value.code == 2
    err_line = capsys.readouterr().err.splitlines()[-1]
    assert "pin %r is not M:VALUE" % pin in err_line


def test_cli_unusable_out_dir_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # an --out-dir that is an existing file stops the run before any case
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(vc, "run_case", lambda *a: pytest.fail("a case ran"))
    for theorem in (["1.4", "--D", "2", "--p", "3", "--m-max", "2"], ["all"]):
        with pytest.raises(SystemExit) as exc:
            vc.main(["verify", "--theorem"] + theorem + ["--out-dir", str(blocker)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 2


def test_cli_internal_failure_exits_3(monkeypatch, capsys):
    # a failed orbit certificate is one stderr line and exit 3, not a traceback
    original = heckedeg._candidates
    monkeypatch.setattr(heckedeg, "_candidates", lambda *a: original(*a)[:-1])
    assert vc.main(["certify", "--pattern", "split", "--p", "2",
                    "--k", "1", "--M", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "internal failure" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("case", [
    vc.TheoremCase("1.4", D=5, p=2, N=1, m_max=15),
    vc.TheoremCase("1.4", D=2, p=3, N=5, m_max=10),  # composite level 15
    vc.TheoremCase("1.5", D=10, p=3, N=1, m_max=12),
    vc.TheoremCase("1.1", D=1, p=2, q=5, N=1, m_max=12),
], ids=lambda c: c.key())
def test_identities_off_the_main_grid(case, pool):
    # unequal unit weights, multi-class genera and multi-prime levels all
    # appear in these cases
    assert vc.run_case(case, pool).all_pass


@pytest.mark.parametrize("case", vc.default_suite_cases() + [
    vc.TheoremCase("1.4", D=2, p=13, N=1, m_max=20),  # weights -1/6 and 7/6
], ids=lambda c: c.key())
def test_rows_are_the_fraction_sums(case, pool):
    # run_case sums each side in integers over one denominator; summing
    # weight * value term by term in Fraction must give the same rows
    def value(side, D, N, m):
        if side == "r":
            return genus_theta(pool.get(D, N), case.m_max)[m]
        return Fraction(2 * heckedeg.deg_T(D, N, m)) / heckedeg.volume(D, N)
    lhs, rhs = case.terms()
    report = vc.run_case(case, pool)
    assert [m for m, *_ in report.rows] == list(range(1, case.m_max + 1))
    for m, left, right, _ok in report.rows:
        for terms, got in ((lhs, left), (rhs, right)):
            want = sum((w * value(side, D, N, m) for w, side, D, N in terms),
                       Fraction(0))
            assert type(got) is Fraction and got == want, (m, terms)


def _hand_written_rules(case):
    """The per-theorem validation rules as they were written out by hand
    before the identity table; False where they reject the case."""
    if case.theorem not in ("1.1", "1.3", "1.4", "1.5"):
        return False
    if case.D < 1 or not is_squarefree(case.D) or case.N < 1 or case.m_max < 1:
        return False
    if case.theorem in ("1.3", "1.4", "1.5") and not is_squarefree(case.N):
        return False
    nprimes = len(prime_factors(case.D))
    needs_q = case.theorem in ("1.1", "1.3")
    if case.p is None or (needs_q and case.q is None):
        return False
    primes = [case.p] + ([case.q] if needs_q else [])
    if any(not is_prime(r) or case.D % r == 0 for r in primes):
        return False
    if needs_q and case.p == case.q:
        return False
    if case.theorem == "1.1" and nprimes % 2:
        return False
    if case.theorem in ("1.3", "1.4") and nprimes % 2 == 0:
        return False
    if case.theorem == "1.5" and (case.D == 1 or nprimes % 2):
        return False
    return math.gcd(case.N, case.D * math.prod(primes)) == 1


def _accepts(case):
    try:
        case.validate()
    except ValueError:
        return False
    return True


def test_validation_matches_hand_written_rules():
    # the table-derived rules accept exactly what the hand-written ones did,
    # except a q that the theorem does not take, which is now rejected
    accepted = 0
    for theorem in ("1.1", "1.3", "1.4", "1.5"):
        for D in filter(is_squarefree, range(1, 43)):
            for p in (2, 3, 5, 7):
                for q in (None, 2, 3, 5, 7):
                    for N in range(1, 8):
                        case = vc.TheoremCase(theorem, D=D, N=N, p=p, q=q)
                        got = _accepts(case)
                        if q is not None and theorem in ("1.4", "1.5"):
                            assert not got, case
                        else:
                            assert got == _hand_written_rules(case), case
                        accepted += got
    assert accepted > 500


# the identities as the module docstring prints them, with
# w(p) = -2/(p-1) and W(p) = (p+1)/(p-1) worked out by hand
@pytest.mark.parametrize("case, lhs, rhs", [
    # 1.1  w(q) r_{Dp,N} + W(q) r_{Dp,Nq} = w(p) r_{Dq,N} + W(p) r_{Dq,Np}
    (vc.TheoremCase("1.1", D=1, p=2, q=5, N=3),
     [(Fraction(-1, 2), "r", 2, 3), (Fraction(3, 2), "r", 2, 15)],
     [(Fraction(-2), "r", 5, 3), (Fraction(3), "r", 5, 6)]),
    # 1.3  w(q) r'_{Dp,N} + W(q) r'_{Dp,Nq} = w(p) r'_{Dq,N} + W(p) r'_{Dq,Np}
    (vc.TheoremCase("1.3", D=7, p=2, q=3, N=5),
     [(Fraction(-1), "r'", 14, 5), (Fraction(2), "r'", 14, 15)],
     [(Fraction(-2), "r'", 21, 5), (Fraction(3), "r'", 21, 10)]),
    # 1.4  r'_{Dp,N} = w(p) r_{D,N} + W(p) r_{D,Np}
    (vc.TheoremCase("1.4", D=5, p=3, N=2),
     [(Fraction(1), "r'", 15, 2)],
     [(Fraction(-1), "r", 5, 2), (Fraction(2), "r", 5, 6)]),
    # 1.5  r_{Dp,N} = w(p) r'_{D,N} + W(p) r'_{D,Np}
    (vc.TheoremCase("1.5", D=10, p=7, N=3),
     [(Fraction(1), "r", 70, 3)],
     [(Fraction(-1, 3), "r'", 10, 3), (Fraction(4, 3), "r'", 10, 21)]),
], ids=["1.1", "1.3", "1.4", "1.5"])
def test_identity_terms_as_printed(case, lhs, rhs):
    case.validate()
    assert case.terms() == (lhs, rhs)


def test_package_root_is_bare():
    # the root exports only __version__: library use imports the submodules
    src = os.path.dirname(os.path.dirname(os.path.abspath(vc.__file__)))
    probe = ("import json, sys, quatmatch\n"
             "print(json.dumps([sorted(n for n in sys.modules"
             " if n.startswith('quatmatch')), sorted(vars(quatmatch))]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=60, check=True).stdout
    loaded, names = json.loads(out)
    assert loaded == ["quatmatch"]
    module_attrs = {"__builtins__", "__cached__", "__doc__", "__file__",
                    "__loader__", "__name__", "__package__", "__path__",
                    "__spec__"}
    assert set(names) - module_attrs == {"__version__"}


def _src_trees():
    """(file name, AST) for every module of the package."""
    package = os.path.dirname(os.path.abspath(vc.__file__))
    trees = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                trees.append((name, ast.parse(fh.read(), name)))
    assert trees
    return trees


def test_src_imports_stdlib_only():
    checked = 0
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names, (name, top)
                checked += 1
    assert checked > 0


def test_src_has_no_assert():
    # `python -O` strips asserts, so no certificate may rest on one
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), (name, node.lineno)


def test_src_has_no_cyclotomic_field():
    # the package computes over Q: values of Q(zeta_p) live in the tests'
    # reference, and no module defines or imports the field or its roots
    banned = {"CyclotomicNumber", "zeta"}
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                found = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found = {part for alias in node.names
                         for part in (alias.name.rpartition(".")[2], alias.asname)}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = {t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)}
            else:
                continue
            assert not found & banned, (name, node.lineno, found & banned)


# Commands that between them enter every function of the package: the
# default grid, one case through every `verify` flag (its reports as csv),
# the two other report formats, and each other subcommand, `certify` once
# per pattern.
_REACH_COMMANDS = [
    ["verify", "--theorem", "all"],
    ["verify", "--theorem", "1.3", "--D", "2", "--p", "3", "--q", "5",
     "--N", "1", "--m-max", "10", "--pin", "1:3", "--format", "csv",
     "--out-dir", "OUT"],
    ["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "20"],
    ["verify", "--theorem", "1.5", "--D", "10", "--p", "3", "--m-max", "12",
     "--format", "json"],
    ["classset", "--D", "5", "--N", "12"],
    ["local", "--p", "5"],
    ["degree", "--D", "6", "--N", "5", "--m", "12"],
] + [["certify", "--pattern", pattern, "--p", "3", "--k", "2", "--M", "4"]
     for pattern in ("split", "level", "ramified")]

# runs the commands under sys.setprofile in a fresh interpreter, so that no
# cache another test filled hides a call, and prints the exit codes and the
# (file, first line) of every code object entered
_REACH_PROBE = """
import contextlib, io, json, sys
from quatmatch import verifycli
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

codes = []
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(verifycli.main(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted(entered)]))
"""


def test_every_src_function_is_entered(tmp_path):
    # A function of the package that none of the commands enters is dead,
    # or wants a command above that reaches it (an error path too); there
    # is no allowlist.  Required are the functions and lambdas written in
    # the package, each named by its file and the first line of its code,
    # which for a decorated def is its first decorator's.  So the members
    # a dataclass or NamedTuple generates (__init__, __repr__, __eq__,
    # __new__, ...) are exempt: they have no def in the source, and their
    # code, compiled from a string, names no file of the package.
    package = os.path.dirname(os.path.abspath(vc.__file__))
    argv = [[str(tmp_path) if a == "OUT" else a for a in cmd]
            for cmd in _REACH_COMMANDS]
    src = os.path.dirname(package)
    out = subprocess.run([sys.executable, "-c", _REACH_PROBE, json.dumps(argv)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         timeout=60, check=True).stdout
    codes, entered = json.loads(out)
    assert codes == [0] * len(argv)
    entered = {tuple(key) for key in entered}
    required, missed = 0, []
    for name, tree in _src_trees():
        path = os.path.join(package, name)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            required += 1
            if (path, first) not in entered:
                missed.append((name, node.lineno,
                               getattr(node, "name", "<lambda>")))
    assert required > 100
    assert not missed
