import json

import pytest

from widefs.cli import main
from widefs.dataset import generate_gaussian_dataset, save_csv


@pytest.fixture()
def probe_csv(tmp_path):
    d = generate_gaussian_dataset(n_per_class=12, n_features=22, n_informative=4,
                                  shift=1.2, seed=5, name="probe")
    path = tmp_path / "probe.csv"
    save_csv(d, path)
    return path


class TestSampleSize:
    def test_worked_example_prints(self, capsys):
        rc = main(["samplesize", "--p1", "0.85", "--p2", "0.80", "--d", "0.68", "--alpha", "0.05"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "445.6"

    def test_independence_default_and_ceil(self, capsys):
        rc = main(["samplesize", "--p1", "0.85", "--p2", "0.80", "--ceil"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "446"

    def test_json_output(self, capsys):
        rc = main(["samplesize", "--p1", "0.85", "--p2", "0.80", "--d", "0.80", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == pytest.approx(76.83, abs=0.1)

    def test_smoothed(self, capsys):
        rc = main(["samplesize", "--smoothed", "--p1", "0.85", "--p2", "0.80",
                   "--var1", "0.04", "--var2", "0.04", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n"] == pytest.approx(52.64, abs=0.1)

    def test_curve_csv(self, capsys):
        rc = main(["samplesize", "--curve", "--p1-min", "0.6", "--p1-max", "0.7",
                   "--p1-step", "0.05", "--gap", "0.05", "--alphas", "0.05"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p1,alpha,N"
        assert len(lines) == 4

    def test_invalid_plan_exit_2(self, capsys):
        assert main(["samplesize", "--p1", "0.8", "--p2", "0.8"]) == 2

    def test_missing_p2_exit_2(self):
        assert main(["samplesize", "--p1", "0.8"]) == 2


class TestUsageErrors:
    def test_no_arguments_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--p1", "0.8", "--frobnicate"])
        assert exc.value.code == 1

    def test_malformed_workers_env_only_fails_bench(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("WIDEFS_WORKERS", "two")
        assert main(["samplesize", "--p1", "0.85", "--p2", "0.80", "--ceil"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--manifest", str(tmp_path / "m.csv"), "--out", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 1
        assert "invalid int value: 'two'" in capsys.readouterr().err


class TestDemo:
    def test_classifier_dependence_ldc_wins(self, capsys):
        rc = main(["demo", "fig3", "--mode", "ldc-wins"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "LOO(LDC)=0, LOO(1NN)=1"

    def test_nn_wins_alias_free_name(self, capsys):
        rc = main(["demo", "classifier-dependence", "--mode", "nn-wins", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"mode": "nn-wins", "loo_ldc": 1.0, "loo_1nn": 0.0}

    def test_unknown_demo(self):
        assert main(["demo", "warp-drive"]) == 2


class TestRank:
    def test_csv_shape(self, probe_csv, capsys):
        rc = main(["rank", "--data", str(probe_csv), "--ranker", "SU", "--top", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,feature_index,feature_name,score"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1" and first[1].isdigit()

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["rank", "--data", str(tmp_path / "x.csv"), "--ranker", "SU"]) == 2


class TestSelectAndEstimate:
    def test_select_budget(self, probe_csv, capsys):
        rc = main(["select", "--data", str(probe_csv), "--scheme", "EX10",
                   "--classifier", "LDC", "--ranker", "SU", "--seed", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluations"] == 1024
        assert 0.0 <= payload["criterion"] <= 1.0

    def test_select_needs_ranker(self, probe_csv):
        assert main(["select", "--data", str(probe_csv), "--scheme", "TOP3",
                     "--classifier", "LDC"]) == 2

    def test_estimate_resub(self, probe_csv, capsys):
        rc = main(["estimate", "--data", str(probe_csv), "--classifier", "NN1",
                   "--estimator", "resub", "--subset", "0,1,2", "--per-class", "5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "RESUB"
        assert payload["value"] == 0.0

    def test_estimate_rloo_reports_subset(self, probe_csv, capsys):
        rc = main(["estimate", "--data", str(probe_csv), "--classifier", "LDC",
                   "--estimator", "rloo", "--ranker", "SU", "--scheme", "TOP3",
                   "--per-class", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "RLOO"
        assert len(payload["subset"]) == 3


class TestPipeline:
    def test_bench_analyze_report_roundtrip(self, tmp_path, capsys):
        names = ("p1", "p2", "p3")
        for i, name in enumerate(names, start=1):
            d = generate_gaussian_dataset(n_per_class=6, n_features=21, n_informative=4,
                                          shift=1.2, seed=i, name=name)
            save_csv(d, tmp_path / f"{name}.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "".join(f"{name},{name}.csv,12,21\n" for name in names), encoding="utf-8"
        )
        out = tmp_path / "results.jsonl"
        rc = main(["bench", "--manifest", str(manifest), "--out", str(out),
                   "--per-class", "2", "--runs", "2", "--classifiers", "LDC,NN1",
                   "--rankers", "SU", "--selectors", "TOP3,TOP20", "--seed", "11", "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == summary["expected"] == 3 * (2 * 1 * 2 * 2 + 2 * 2)
        assert summary["failures"] == 0

        adir = tmp_path / "analysis"
        assert main(["analyze", "--in", str(out), "--out", str(adir)]) == 0
        capsys.readouterr()
        assert (adir / "selector_ranks.csv").exists()
        assert (adir / "combination_ranks.csv").exists()
        assert (adir / "friedman.json").exists()

        rdir = tmp_path / "report"
        assert main(["report", "--in", str(out), "--out", str(rdir)]) == 0
        capsys.readouterr()
        assert (rdir / "rank_table.html").exists()
        assert (rdir / "rank_table.csv").exists()
        assert (rdir / "glyph_classifiers.svg").exists()

    def test_bench_config_override(self, tmp_path, capsys):
        d1 = generate_gaussian_dataset(n_per_class=6, n_features=21, seed=1, name="p1")
        save_csv(d1, tmp_path / "p1.csv")
        (tmp_path / "manifest.csv").write_text("p1,p1.csv,12,21\n", encoding="utf-8")
        cfgfile = tmp_path / "hp.cfg"
        cfgfile.write_text("rf.n_trees = 4  # small forest\n", encoding="utf-8")
        out = tmp_path / "r.jsonl"
        rc = main(["bench", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(out),
                   "--per-class", "2", "--runs", "1", "--classifiers", "RF",
                   "--rankers", "SU", "--selectors", "TOP3", "--config", str(cfgfile), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 0

    def test_case_study_outputs(self, tmp_path, capsys, sonar_surrogate):
        from widefs.dataset import save_csv as save

        data_csv = tmp_path / "sonar.csv"
        save(sonar_surrogate, data_csv)
        out = tmp_path / "case"
        rc = main(["case-study", "sonar", "--data", str(data_csv), "--seed", "2",
                   "--out", str(out), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subsets"] == 1023
        assert (out / "bundle.json").exists()
        assert (out / "best_subsets.csv").exists()
        assert (out / "scatter.svg").exists()
        body = (out / "scatter.svg").read_text(encoding="utf-8")
        assert body.count("<circle") == 3 * 1023
