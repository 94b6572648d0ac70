"""CLI surface: arguments, files, manifests, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsdmt
from dsdmt import cli


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
        assert report["cases"] == 63 and report["mismatches"] == []

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

    def test_bad_dim_usage_error(self, tmp_path, monkeypatch, capsys):
        assert run_cli(["crosscheck", "--max-dim", "0"], tmp_path, monkeypatch) == 2
        capsys.readouterr()


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

    def test_bad_grid_usage_error(self, tmp_path, monkeypatch, capsys):
        # a descending grid, then r non-finite or outside [0, min(triple)] = [0, 1]
        for grid, r in (("20:10:5", "0.5"), ("10:10:5", "nan"), ("10:10:5", "inf"),
                        ("10:10:5", "5")):
            code = run_cli(["sim", "--triple", "1,1,1", "--r", r, "--snr-db", grid,
                            "--trials", "100"], tmp_path, monkeypatch)
            err = capsys.readouterr().err
            assert code == 2, (grid, r)
            assert "error" in err, (grid, r)

    def test_bad_corr_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["sim", "--triple", "1,1,1", "--r", "0.5", "--snr-db", "10:10:5",
                        "--trials", "100", "--corr", "nonsense"], tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 2


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
        assert "suite_s" not in report["lemma4"]

    def test_manifest_times_every_suite(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["verify", "--suite", "all", "--trials", "50"], tmp_path, monkeypatch)
        capsys.readouterr()
        assert code == 0
        manifest = json.loads((tmp_path / "dmt_verify.manifest.json").read_text())
        assert list(manifest["suite_s"]) == list(cli.VERIFY_SUITES)
        assert all(s >= 0 for s in manifest["suite_s"].values())
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


def test_module_entrypoint_curve(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "dsdmt.cli", "curve", "--triple", "2,3,4"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["0,6", "1,2", "2,0"]
