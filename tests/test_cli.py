"""CLI surface: arguments, files, manifests, exit codes."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsdmt
from dsdmt import cli, lemma_verify


def run_cli(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(argv)


class TestCurve:
    def test_writes_curve_files(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["curve", "--triple", "2,2,2"], tmp_path, monkeypatch)
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["0,3", "1,1", "2,0"]
        csv = (tmp_path / "dmt_curve.csv").read_text()
        assert csv == "k,d\n0,3\n1,1\n2,0\n"
        info = json.loads((tmp_path / "dmt_curve.json").read_text())
        assert info["ordered"] == {"m": 2, "n": 2, "l": 2, "delta": 0}
        assert info["rayleigh_equivalent"] is False
        assert info["max_diversity"] == {"value": 3, "upper_bound": 4, "attained": False}
        manifest = json.loads((tmp_path / "dmt_curve.manifest.json").read_text())
        assert manifest["version"]
        assert "dmt_curve.csv" in manifest["outputs"]

    def test_single_antenna_curve_shape(self, tmp_path, monkeypatch, capsys):
        assert run_cli(["curve", "--triple", "1,4,4"], tmp_path, monkeypatch) == 0
        assert capsys.readouterr().out.splitlines() == ["0,4", "1,0"]

    def test_invalid_triple_is_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["curve", "--triple", "0,1,1"], tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 2


class TestCrosscheck:
    def test_small_sweep_passes(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["crosscheck", "--max-dim", "3"], tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("0 mismatches / 63 cases")
        report = json.loads((tmp_path / "dmt_crosscheck.json").read_text())
        assert report == {"max_dim": 3, "fractional": False, "cases": 63, "mismatches": []}
        # the LP counts go to the manifest: the triples whose shapes share a coefficient
        # pair share a solve, so 14 LPs are solved
        manifest = json.loads((tmp_path / "dmt_crosscheck.manifest.json").read_text())
        assert manifest["lp"] == cli.run_crosscheck(3, False)["lp"]
        assert manifest["lp"] == {"cold_solves": 14, "pivots": 51, "pieces": 34, "max_bits": 3}

    def test_max_dim_one(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["crosscheck", "--max-dim", "1"], tmp_path, monkeypatch)
        assert code == 0
        assert "/ 2 cases" in capsys.readouterr().out  # r = 0 and r = 1

    def test_injected_fault_exits_3(self, tmp_path, monkeypatch, capsys):
        # flip the floor correction sign: the LP/greedy must catch it
        from fractions import Fraction

        from dsdmt.dmt_core import dmt_at, dmt_curve, order_triple

        def faulty_closed_form(t, r):
            o = order_triple(t)
            k = int(r)
            plus = max(o.m_small - o.delta - k, 0)
            wrong = (o.m_small - k) * (o.n_mid - k) + (plus * plus) // 4
            return Fraction(wrong) if r == k else dmt_at(dmt_curve(t), r)

        monkeypatch.setattr(cli, "dmt_curve", dmt_curve)
        original = cli.run_crosscheck

        def patched(max_dim, fractional):
            return original(max_dim, fractional, closed_form=faulty_closed_form)

        monkeypatch.setattr(cli, "run_crosscheck", patched)
        code = run_cli(["crosscheck", "--max-dim", "2"], tmp_path, monkeypatch)
        err = capsys.readouterr()
        assert code == 3
        assert "counterexample" in err.err

    def test_injected_lp_fault_exits_3(self, tmp_path, monkeypatch, capsys):
        # an LP route that is wrong at r = 1/2 of (2,1,2) only
        from fractions import Fraction

        def faulty_lp(m, n, l, r, warm):
            value = cli.dmt_via_lp(m, n, l, r, warm)
            return value + 1 if (m, n, l, r) == (2, 1, 2, Fraction(1, 2)) else value

        report = cli.run_crosscheck(2, True, lp=faulty_lp)
        assert [(d["m"], d["n"], d["l"], d["r"]) for d in report["mismatches"]] == [
            (2, 1, 2, "1/2")]
        assert (report["mismatches"][0]["closed_form"], report["mismatches"][0]["lp"]) == ("1", "2")
        original = cli.run_crosscheck
        monkeypatch.setattr(cli, "run_crosscheck",
                            lambda max_dim, fractional: original(max_dim, fractional, lp=faulty_lp))
        assert run_cli(["crosscheck", "--max-dim", "2", "--fractional"], tmp_path, monkeypatch) == 3
        assert "'r': '1/2'" in capsys.readouterr().err

    def test_bad_dim_usage_error(self, tmp_path, monkeypatch, capsys):
        assert run_cli(["crosscheck", "--max-dim", "0"], tmp_path, monkeypatch) == 2
        capsys.readouterr()


SIM_ARGV = ["sim", "--triple", "1,1,1", "--r", "0.5", "--snr-db", "10:15:5"]


class TestSim:
    def test_files_and_determinism(self, tmp_path, monkeypatch, capsys):
        args = ["sim", "--triple", "1,1,1", "--r", "0.5", "--snr-db", "10:20:5",
                "--trials", "20000", "--seed", "7"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert run_cli(args, a, monkeypatch) == 0
        assert run_cli(args, b, monkeypatch) == 0
        capsys.readouterr()
        assert (a / "dmt_sim.csv").read_bytes() == (b / "dmt_sim.csv").read_bytes()
        payload = json.loads((a / "dmt_sim.json").read_text())
        assert payload["points_used"] == 3
        assert len(payload["estimates"]) == 3

    def test_worker_count_does_not_change_counts(self, tmp_path, monkeypatch, capsys):
        base = ["sim", "--triple", "1,1,1", "--r", "0.5", "--snr-db", "10:15:5",
                "--trials", "12000", "--seed", "9"]
        a = tmp_path / "w1"
        b = tmp_path / "w2"
        a.mkdir()
        b.mkdir()
        assert run_cli(base + ["--workers", "1"], a, monkeypatch) == 0
        assert run_cli(base + ["--workers", "2"], b, monkeypatch) == 0
        capsys.readouterr()
        assert (a / "dmt_sim.csv").read_bytes() == (b / "dmt_sim.csv").read_bytes()

    def test_insufficient_tail_data_exit_4(self, tmp_path, monkeypatch, capsys):
        # (1,1,1) at high SNR and tiny trial count: nothing reaches 20 events
        code = run_cli(["sim", "--triple", "1,1,1", "--r", "0.1", "--snr-db", "35:40:5",
                        "--trials", "300", "--seed", "3"], tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 4
        assert "insufficient tail data" in err
        # the CSV and manifest still exist for post-mortem
        assert (tmp_path / "dmt_sim.csv").exists()
        assert (tmp_path / "dmt_sim.manifest.json").exists()

    def test_correlated_run(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["sim", "--triple", "2,2,2", "--r", "1", "--snr-db", "10:20:5",
                        "--trials", "5000", "--seed", "4", "--corr", "exp:0.5"],
                       tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 0

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DMT_SEED", "123")
        args = ["sim", "--triple", "1,1,1", "--r", "0.5", "--snr-db", "10:15:5",
                "--trials", "4000"]
        assert run_cli(args, tmp_path, monkeypatch) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "dmt_sim.manifest.json").read_text())
        assert manifest["seed"] == 123

    def test_config_file_merges_under_flags(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"trials": 4000, "seed": 55, "r": 0.5}))
        args = ["sim", "--triple", "1,1,1", "--snr-db", "10:15:5",
                "--trials", "6000", "--config", str(cfg)]
        assert run_cli(args, tmp_path, monkeypatch) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "dmt_sim.manifest.json").read_text())
        assert manifest["config"]["trials"] == 6000  # explicit flag wins
        assert manifest["seed"] == 55  # config fills the rest

    @pytest.mark.parametrize("cfg,argv,flag,parsed", [
        ({"trials": "5"}, SIM_ARGV, "--trials", 5),
        ({"r": "0.5"}, ["sim", "--triple", "1,1,1", "--snr-db", "10:15:5", "--trials", "5"],
         "--r", 0.5),
        ({"digits": "60"}, ["verify", "--suite", "lemma4", "--trials", "10"], "--digits", 60),
        ({"max_dim": 2.5}, ["crosscheck"], "--max-dim", None),
        ({"trials": 5.5}, SIM_ARGV, "--trials", None),
        ({"trials": "five"}, SIM_ARGV, "--trials", None),
        ({"snr_db": "10:30:nan"}, ["sim", "--triple", "1,1,1", "--r", "0.5"], "--snr-db", None),
        ({"max-dim": [1, 2]}, ["crosscheck"], "--max-dim", None),
        ({"fractional": "yes"}, ["crosscheck", "--max-dim", "1"], "--fractional", None),
    ], ids=["str-int", "str-float", "str-digits", "float-int", "fraction-int", "word-int",
            "nan-grid", "list-int", "str-switch"])
    def test_config_value_goes_through_its_flag(self, cfg, argv, flag, parsed,
                                                 tmp_path, monkeypatch, capsys):
        # a config value is read as the same text after its flag: the string
        # forms parse, a value the flag's parser rejects exits 2 naming it
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(argv + ["--config", str(path)], tmp_path, monkeypatch)
        err = capsys.readouterr().err
        if parsed is None:
            assert code == 2
            assert flag in err and "Traceback" not in err
        else:
            assert code in (0, 4)  # 4: the five-trial sim has no tail data
            manifest = json.loads(next(tmp_path.glob("*.manifest.json")).read_text())
            assert manifest["config"][flag[2:].replace("-", "_")] == parsed

    @pytest.mark.parametrize("setup,named", [
        ("env-seed", "DMT_SEED"),
        ("missing-file", "missing.json"),
        ("malformed-json", "bad.json"),
        ("json-list", "list.json"),
    ])
    def test_bad_config_or_seed_usage_error(self, setup, named, tmp_path, monkeypatch, capsys):
        # read before any command runs: each exits 2 with one error line
        # naming the variable or the file, never a traceback
        argv = SIM_ARGV + ["--trials", "5"]
        if setup == "env-seed":
            monkeypatch.setenv("DMT_SEED", "abc")
        else:
            (tmp_path / "bad.json").write_text('{"trials": ')
            (tmp_path / "list.json").write_text("[5]")
            argv += ["--config", str(tmp_path / named)]
        code = run_cli(argv, tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and named in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.manifest.json"))

    def test_bad_grid_usage_error(self, tmp_path, monkeypatch, capsys):
        # a descending grid, a non-finite step or end, then r non-finite or
        # outside [0, min(triple)] = [0, 1], then grids of ~1e12 points;
        # without the finiteness check the nan step gives one point and the
        # inf end never returns, so nan goes first.  Then a linear SNR that
        # overflows, one that underflows to 0, and a step under 1e-6 dB
        # (points 1e-9 dB apart would rerun one point's RNG streams)
        for grid, r in (("20:10:5", "0.5"), ("10:30:nan", "0.5"), ("10:inf:5", "0.5"),
                        ("10:10:5", "nan"), ("10:10:5", "inf"), ("10:10:5", "5"),
                        ("10:15:1e-12", "0.5"), ("10:1e300:1", "0.5"),
                        ("4000:4000:1", "0.5"), ("-4000:-3990:5", "0.5"),
                        ("50:50.000000003:0.000000001", "0.9")):
            code = run_cli(["sim", "--triple", "1,1,1", "--r", r, f"--snr-db={grid}",
                            "--trials", "100"], tmp_path, monkeypatch)
            err = capsys.readouterr().err
            assert code == 2, (grid, r)
            assert "error" in err and "Traceback" not in err, (grid, r)
            assert "math domain" not in err, (grid, r)

    def test_snr_ceiling(self, tmp_path, monkeypatch, capsys):
        # above 1000 dB the (2,2,2) kernel overflowed and counted no outage;
        # such a grid exits 2 and writes nothing, while 1000 dB still runs
        argv = ["sim", "--triple", "2,2,2", "--r", "2", "--trials", "2000", "--seed", "1"]
        assert run_cli(argv + ["--snr-db", "3000:3000:1"], tmp_path, monkeypatch) == 2
        assert "1000.0 dB" in capsys.readouterr().err
        assert not list(tmp_path.glob("dmt_sim*"))
        assert run_cli(argv + ["--snr-db", "1000:1000:1"], tmp_path, monkeypatch) == 4
        capsys.readouterr()
        assert (tmp_path / "dmt_sim.csv").read_text().splitlines()[1].split(",")[3] == "1904"

    def test_grid_point_bound(self):
        top = cli.MAX_SNR_POINTS
        assert len(cli._parse_snr_grid(f"0:{top - 1}:1")) == top
        for grid in (f"0:{top}:1", "0:1:1e-4", "1e17:1e17:1"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli._parse_snr_grid(grid)

    def test_bad_corr_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["sim", "--triple", "1,1,1", "--r", "0.5", "--snr-db", "10:10:5",
                        "--trials", "100", "--corr", "nonsense"], tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_corr_file_usage_error(self, bad, tmp_path, monkeypatch, capsys):
        path = tmp_path / "corr.txt"
        path.write_text(f"2\n1,0 {bad},0 {bad},0 1,0\n")
        code = run_cli(["sim", "--triple", "2,2,2", "--r", "1", "--snr-db", "10:30:10",
                        "--trials", "20000", "--corr", f"file:{path}"], tmp_path, monkeypatch)
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "dmt_sim.csv").exists()


@pytest.mark.parametrize("source", ["--seed", "--config", "DMT_SEED"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--trials", "5"],
    ["verify", "--suite", "lemma1", "--trials", "5"],
    SIM_ARGV + ["--trials", "5"],
], ids=["verify-all", "verify-lemma1", "sim"])
def test_negative_seed_usage_error(argv, source, tmp_path, monkeypatch, capsys):
    # rejected before any suite or trial runs, naming where the seed came from
    if source == "--seed":
        argv = argv + ["--seed", "-3"]
    elif source == "--config":
        (tmp_path / "run.json").write_text(json.dumps({"seed": -3}))
        argv = argv + ["--config", str(tmp_path / "run.json")]
    else:
        monkeypatch.setenv("DMT_SEED", "-3")
    code = run_cli(argv, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and source in err and "Traceback" not in err
    assert list(tmp_path.glob("dmt_*")) == []


class TestVerify:
    def test_lemma4_suite(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["verify", "--suite", "lemma4", "--trials", "200", "--seed", "1"],
                       tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert code == 0
        assert "lemma4: ok" in out
        report = json.loads((tmp_path / "dmt_verify.json").read_text())
        assert report["lemma4"]["violations"] == []
        manifest = json.loads((tmp_path / "dmt_verify.manifest.json").read_text())
        assert list(manifest["suite_s"]) == ["lemma4"]
        assert manifest["suite_s"]["lemma4"] > 0
        assert "suite_s" not in report["lemma4"] and "margin" not in report["lemma4"]
        # the suite's smallest margin to the slack goes to the manifest, not the report
        assert manifest["ineq_margin"] == {
            "lemma4": lemma_verify.SUITES["lemma4"](200, 60, 1)["margin"]}
        assert manifest["ineq_margin"]["lemma4"] > lemma_verify.INEQ_SLACK

    def test_manifest_times_every_suite(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["verify", "--suite", "all", "--trials", "50"], tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 0
        manifest = json.loads((tmp_path / "dmt_verify.manifest.json").read_text())
        assert list(manifest["suite_s"]) == list(cli.VERIFY_SUITES)
        assert all(s >= 0 for s in manifest["suite_s"].values())
        assert list(manifest["ineq_margin"]) == ["lemma4", "prop1"]
        report = json.loads((tmp_path / "dmt_verify.json").read_text())
        assert list(report) == list(cli.VERIFY_SUITES)

    def test_wishart_suite(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["verify", "--suite", "wishart", "--trials", "20000", "--seed", "5"],
                       tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 0

    def test_wishart_too_few_trials_fails(self, tmp_path, monkeypatch, capsys):
        # three samples pool into no chi-square bin: no test, so no pass
        code = run_cli(["verify", "--suite", "wishart", "--trials", "3"], tmp_path, monkeypatch)
        captured = capsys.readouterr()
        assert code == 5
        assert "wishart: FAIL" in captured.out
        text = (tmp_path / "dmt_verify.json").read_text()
        assert "NaN" not in text
        report = json.loads(text)["wishart"]
        assert len(report["violations"]) == 3
        assert all("pooled bins" in v for v in report["violations"])
        for fit in report["results"].values():
            assert fit["bins"] == 0 and fit["p_value"] is None and fit["statistic"] is None

    @pytest.mark.parametrize("suite,trials", [("wishart", "0"), ("lemma4", "-5"), ("all", "0")])
    def test_trials_below_one_usage_error(self, suite, trials, tmp_path, monkeypatch, capsys):
        code = run_cli(["verify", "--suite", suite, "--trials", trials], tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2
        assert "--trials must be >= 1" in err
        assert not (tmp_path / "dmt_verify.json").exists()

    @pytest.mark.parametrize("digits", ["0", "-3", "12"])
    def test_digits_at_the_guard_usage_error(self, digits, tmp_path, monkeypatch, capsys):
        code = run_cli(["verify", "--suite", "lemma1", "--digits", digits], tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2
        assert "--digits must be >= 13" in err
        assert not (tmp_path / "dmt_verify.json").exists()

    def test_suite_names_match_the_suite_table(self):
        from dsdmt import lemma_verify

        assert list(cli.VERIFY_SUITES) == list(lemma_verify.SUITES)

    def test_precision_error_exits_5(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["verify", "--suite", "lemma1", "--digits", "30"],
                       tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 5
        assert "precision" in err.lower()


def checked(argv):
    """The run that main's check phase builds for argv; its work is not started."""
    parser = cli.build_parser()
    return cli._check(cli._merge_config(parser, parser.parse_args(argv), argv))


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any command starts its work."""
    from dsdmt import lemma_verify, outage_sim

    def fail(*args, **kwargs):
        raise AssertionError("the command's work started")

    monkeypatch.setattr(outage_sim, "run_simulation", fail)
    monkeypatch.setattr(cli, "run_crosscheck", fail)
    monkeypatch.setattr(cli, "dmt_curve", fail)
    monkeypatch.setattr(lemma_verify, "SUITES", dict.fromkeys(lemma_verify.SUITES, fail))


@pytest.mark.parametrize("argv", [
    ["curve", "--triple", "2,2,2"],
    ["crosscheck", "--max-dim", "2"],
    SIM_ARGV + ["--trials", "5"],
    ["verify", "--suite", "lemma4", "--trials", "5"],
], ids=["curve", "crosscheck", "sim", "verify"])
def test_missing_output_directory_exits_before_work(argv, no_work, tmp_path, monkeypatch,
                                                    capsys):
    code = run_cli(argv + ["--output", "missing/x"], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and "--output missing/x" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", ["", "out/", ".", "out/.."])
@pytest.mark.parametrize("argv", [
    ["curve", "--triple", "2,2,2"],
    ["verify", "--suite", "lemma1", "--trials", "5"],
], ids=["curve", "verify"])
def test_output_without_a_file_name_exits_before_work(argv, output, no_work, tmp_path,
                                                      monkeypatch, capsys):
    # "" and "out/" used to write hidden files: .csv, .json and .manifest.json
    (tmp_path / "out").mkdir()
    code = run_cli(argv + [f"--output={output}"], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1
    assert f"--output {output}: not a file name in an existing directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("argv,flag,cap,huge", [
    (SIM_ARGV, "--trials", cli.MAX_SIM_TRIALS, "10000000000000"),
    (["verify"], "--trials", cli.MAX_VERIFY_TRIALS, "10000000000000"),
    (["verify", "--suite", "all", "--trials", "10"], "--digits", cli.MAX_DIGITS, "100000"),
    (["crosscheck"], "--max-dim", cli.MAX_DIM, "100000"),
], ids=["sim-trials", "verify-trials", "verify-digits", "crosscheck-max-dim"])
def test_work_cap_boundary(argv, flag, cap, huge, no_work, tmp_path, monkeypatch, capsys):
    # the cap itself passes the check phase; one above it, and the huge
    # value, which ran past a 60 s timeout before the caps, exit 2 before
    # any work, naming the flag and the cap
    monkeypatch.chdir(tmp_path)
    assert callable(checked(argv + [flag, str(cap)]))
    with pytest.raises(ValueError, match=f"^{flag} must be <= {cap}, got {cap + 1}$"):
        checked(argv + [flag, str(cap + 1)])
    for value in (str(cap + 1), huge):
        assert cli.main(argv + [flag, value]) == 2
        assert f"{flag} must be <= {cap}, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sim_triple_cap_boundary(no_work, tmp_path, monkeypatch, capsys):
    # the cap itself passes the check phase; one above it on any node, and
    # 100000,1,1, whose identity correlations would ask for about 320 GB,
    # exit 2 naming --triple before any correlation matrix is built
    from dsdmt import randmat

    monkeypatch.chdir(tmp_path)
    cap, build = cli.MAX_SIM_DIM, randmat.identity_correlation

    def bounded(dim):
        assert dim <= cap, f"a {dim} x {dim} correlation matrix was built"
        return build(dim)

    monkeypatch.setattr(randmat, "identity_correlation", bounded)
    assert callable(checked(SIM_ARGV + ["--triple", f"{cap},{cap},{cap}"]))
    for triple in (f"{cap + 1},1,1", f"1,{cap + 1},1", f"1,1,{cap + 1}"):
        with pytest.raises(ValueError, match=f"^--triple dimensions must be <= {cap}, "
                                             f"got {cap + 1}$"):
            checked(SIM_ARGV + ["--triple", triple])
    assert cli.main(SIM_ARGV + ["--triple", "100000,1,1"]) == 2
    assert f"--triple dimensions must be <= {cap}, got 100000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_curve_triple_cap_boundary(no_work, tmp_path, monkeypatch, capsys):
    # the cap itself passes the check phase; one above it in any position
    # exits 2 naming --triple, and so does 10^9 in each, which ran past a
    # 20 s timeout before the cap (100000 in each wrote a 4.2 MB JSON)
    monkeypatch.chdir(tmp_path)
    cap = cli.MAX_CURVE_DIM
    assert callable(checked(["curve", "--triple", f"{cap},{cap},{cap}"]))
    for triple in (f"{cap + 1},1,1", f"1,{cap + 1},1", f"1,1,{cap + 1}"):
        with pytest.raises(ValueError, match=f"^--triple dimensions must be <= {cap}, "
                                             f"got {cap + 1}$"):
            checked(["curve", "--triple", triple])
    huge = 1_000_000_000
    assert cli.main(["curve", "--triple", f"{huge},{huge},{huge}"]) == 2
    assert f"--triple dimensions must be <= {cap}, got {huge}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,named", [
    (["--corr", "file:zero.txt"], "zero.txt: the first line must be a positive integer"),
    (["--corr", "file:negative.txt"], "negative.txt: the first line must be a positive integer"),
    (["--corr", "file:word.txt"], "word.txt: the first line must be a positive integer"),
    (["--corr", "file:missing.txt"], "--corr file:missing.txt: [Errno 2] No such file"),
    (["--corr", "exp:abc"], "--corr exp:abc"),
    (None, "missing required option(s): --snr-db"),
    (["--r", "1e308"], "--r must be a finite number in [0, 1], got 1e+308"),
    (["--workers", "0"], "--workers must be >= 1, got 0"),
], ids=["header-0", "header-negative", "header-word", "file-missing", "corr-exp-word",
        "missing-snr-db", "r-huge", "workers-0"])
def test_usage_error_names_its_source(flags, named, tmp_path, monkeypatch, capsys):
    # before, the headers printed numpy's "zero-size array ..." message,
    # "expected 1 entries, found 0" and int()'s "invalid literal ...",
    # exp:abc only float()'s message, a missing option its attribute name,
    # and --r and --workers SimConfig's field names ("r must be ...")
    for name, header in (("zero.txt", "0"), ("negative.txt", "-1"), ("word.txt", "x")):
        (tmp_path / name).write_text(f"{header}\n1,0\n")
    argv = ["sim", "--triple", "1,1,1", "--r", "0.5", "--trials", "5"]
    if flags is not None:
        argv += ["--snr-db", "10:15:5", *flags]
    code = run_cli(argv, tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and named in err and "Traceback" not in err
    assert not list(tmp_path.glob("dmt_*"))


# the flag grammar of each command: flag -> (valid values, edge values), with
# None for a bare switch and OMIT for leaving a flag out.  The flags in
# ALWAYS are given unless an edge omits them: the required ones, and those
# whose default makes a long run.  Valid counts stay small, and valid trial
# counts within one RNG block, so no run starts a process pool.
OMIT = object()
EDGES = ("nan", "inf", "-inf", "-1", "0", "")
GRAMMAR = {
    "curve": {
        "--triple": (("2,3,4", "1,1,1"), (OMIT, "0,1,1", "-1,2,2", "1,1", "nan,1,1",
                                           f"{cli.MAX_CURVE_DIM + 1},1,1",
                                           "1000000000,1000000000,1000000000") + EDGES),
        "--format": (("csv", "json", "both"), ("",)),
    },
    "crosscheck": {
        "--max-dim": (("1", "2"), (str(cli.MAX_DIM + 1), "100000") + EDGES),
        "--fractional": ((None,), ()),
    },
    "sim": {
        "--triple": (("1,1,1", "2,1,2"), (OMIT, "0,1,1", "1,1", "100000,1,1") + EDGES),
        "--r": (("0.5", "1"), (OMIT, "5", "1e308") + EDGES),
        "--snr-db": (("10:20:5", "-10:0:10"),
                     (OMIT, "20:10:5", "10:30:nan", "10:inf:5", "0:1:1e-12", "3000:3000:1",
                      "0:1e300:1", "-4000:-3990:5") + EDGES),
        "--trials": (("1", "50", "4096"), (str(cli.MAX_SIM_TRIALS + 1),) + EDGES),
        "--seed": (("1", "99999999999999999999"), EDGES),
        "--corr": (("id", "exp:0.5"),
                   ("exp:abc", "exp:nan", "exp:1", "file:../fix/id2.txt", "file:../fix/zero.txt",
                    "file:../fix/nan.txt", "file:missing.txt", "nonsense", "")),
        "--workers": (("1", "2"), ("-1", "0")),
    },
    "verify": {
        "--suite": (("lemma1", "lemma4", "prop1", "wishart"), (OMIT, "")),
        "--trials": (("1", "3", "50"), (str(cli.MAX_VERIFY_TRIALS + 1),) + EDGES),
        "--digits": (("13", "60"), ("12", str(cli.MAX_DIGITS + 1)) + EDGES),
        "--seed": (("1",), ("-3",) + EDGES),
    },
}
COMMON = {
    "--output": (("out/run", "run"), ("missing/run", "", "out/", ".", "out/..")),
    "--config": (("../fix/good.json",),
                 ("../fix/bad.json", "../fix/list.json", "missing.json")),
}
ALWAYS = {"--triple", "--r", "--snr-db", "--trials", "--max-dim", "--suite"}
FIXTURES = {
    "id2.txt": "2\n1,0 0,0 0,0 1,0\n", "zero.txt": "0\n", "nan.txt": "1\nnan,0\n",
    "good.json": '{"trials": 3, "seed": 2}', "bad.json": '{"trials": ', "list.json": "[5]",
}


def edges(command):
    """None, then every (flag, edge value) of the command's grammar."""
    grammar = {**GRAMMAR[command], **COMMON}
    return [None] + [(flag, value) for flag, (_, values) in grammar.items() for value in values]


def grammar_argv(command, edge, pick):
    """argv of the command with edge, a (flag, value) or None; every other
    flag takes pick(flag, its valid values), which may be OMIT."""
    argv = [command]
    for flag, (valid, _) in {**GRAMMAR[command], **COMMON}.items():
        value = edge[1] if edge and edge[0] == flag else pick(flag, valid)
        if value is not OMIT:
            argv.append(flag if value is None else f"{flag}={value}")
    return argv


def test_fuzz_cli_exit_codes(tmp_path, monkeypatch):
    # every edge value with the other flags at their first valid value, then
    # random argv with at most one edge value: each ends in a documented
    # exit code and no exception, and an exit of 2 writes nothing
    import scipy.stats  # noqa: F401  (the Wishart fit's lazy import, off the deadline)

    (tmp_path / "fix").mkdir()
    for name, text in FIXTURES.items():
        (tmp_path / "fix" / name).write_text(text)
    work = tmp_path / "work"
    monkeypatch.chdir(tmp_path)

    def check(argv):
        (work / "out").mkdir(parents=True)
        os.chdir(work)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(tmp_path)
        assert code in (0, 2, 3, 4, 5), argv
        if code == 2:
            assert [p.name for p in work.iterdir()] == ["out"], argv
            assert list((work / "out").iterdir()) == [], argv
        shutil.rmtree(work)

    for command in GRAMMAR:
        for edge in edges(command):
            check(grammar_argv(command, edge, lambda flag, valid: valid[0] if flag in ALWAYS
                               else OMIT))

    @settings(max_examples=60, derandomize=True, database=None, deadline=1000)
    @given(st.data())
    def run(data):
        command = data.draw(st.sampled_from(sorted(GRAMMAR)), label="command")
        edge = data.draw(st.sampled_from(edges(command)), label="edge")

        def pick(flag, valid):
            if flag in ALWAYS or data.draw(st.booleans(), label=f"give {flag}"):
                return data.draw(st.sampled_from(valid), label=flag)
            return OMIT

        check(grammar_argv(command, edge, pick))

    run()


def subprocess_env():
    """The current environment, with the imported dsdmt first on PYTHONPATH.

    A relative PYTHONPATH entry (such as `src`) resolves against the child's
    working directory, so the absolute parent of the package goes in front.
    """
    env = dict(os.environ)
    paths = [str(Path(dsdmt.__file__).resolve().parent.parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_console_script_wired():
    out = subprocess.run([sys.executable, "-m", "dsdmt.cli", "--version"],
                         capture_output=True, text=True, env=subprocess_env())
    assert out.returncode == 0
    assert out.stdout.startswith("dmt ")


def test_crosscheck_imports_no_numerics():
    # numpy, scipy and mpmath load only with the commands that use them
    code = (
        "import sys\n"
        "from dsdmt.cli import run_crosscheck\n"
        "assert not run_crosscheck(2, True)['mismatches']\n"
        "print(sorted({'numpy', 'scipy', 'mpmath'} & set(sys.modules)))\n"
        "import dsdmt.outage_sim, dsdmt.lemma_verify\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "False"]


def test_module_entrypoint_curve(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "dsdmt.cli", "curve", "--triple", "2,3,4"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["0,6", "1,2", "2,0"]
