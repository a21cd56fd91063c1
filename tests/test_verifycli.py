import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quatmatch import heckedeg, verifycli as vc


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
    with pytest.raises(ValueError):
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
    report = vc.check_theorem_1_3(case)
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


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theorem=1.3\nD=2\np=3\nq=5\nN=1\nm_max=4\n"
                   "pin=1:3\n# comment\nformat=csv\n")
    parsed = vc._read_config(str(cfg))
    assert parsed["D"] == "2" and parsed["pin"] == ["1:3"]
    assert parsed["format"] == "csv"


def test_cli_verify_single(tmp_path, capsys):
    out = tmp_path / "o"
    code = vc.main(["verify", "--theorem", "1.3", "--D", "2", "--p", "3",
                    "--q", "5", "--N", "1", "--m-max", "4",
                    "--out-dir", str(out)])
    assert code == 0
    assert (out / "summary.json").exists()


def test_cli_verify_with_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("D=2\np=3\nq=5\nm_max=4\n")
    code = vc.main(["verify", "--theorem", "1.3", "--config", str(cfg)])
    assert code == 0


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


@pytest.mark.parametrize("argv, config", [
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--N", "0"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "0"], None),
    (["verify", "--theorem", "1.4", "--D", "4", "--p", "3"], None),
    (["verify", "--theorem", "1.4", "--p", "3"], None),
    (["verify", "--theorem", "1.4"], "D=2\np=3\nformat=xml\n"),
    (["verify", "--theorem", "1.4"], "D=2\np=3\ncache_dir=cache\n"),
    (["verify", "--theorem", "1.4"], "theorem=1.3\nD=2\np=3\nq=5\n"),
    (["verify", "--theorem", "all"], "format=xml\n"),
    (["verify", "--theorem", "all", "--D", "999", "--m-max", "3", "--pin", "1:5"],
     None),
    (["verify", "--theorem", "all", "--N", "5"], None),
    (["verify", "--theorem", "all", "--p", "3"], None),
    (["verify", "--theorem", "all", "--q", "5"], None),
    (["verify", "--theorem", "all", "--m-max", "3"], None),
    (["verify", "--theorem", "all", "--pin", "1:5"], None),
    (["verify", "--theorem", "all"], "D=2\n"),
    (["verify", "--theorem", "all"], "m_max=3\npin=1:5\n"),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "2",
      "--pin", "1:1/0"], None),
    (["verify", "--theorem", "1.4", "--D", "2", "--p", "3", "--m-max", "2",
      "--pin", "7:1"], None),
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
