import json

import pytest

from widefs.dataset import generate_gaussian_dataset, save_csv
from widefs.harness import (
    CaseStudyBundle,
    GridConfig,
    RunRecord,
    cell_seed,
    load_manifest,
    read_records,
    run_grid,
    sonar_case_study,
)


def tiny_config(**kw):
    d1 = generate_gaussian_dataset(n_per_class=6, n_features=21, n_informative=4,
                                   shift=1.2, seed=11, name="tiny_a")
    d2 = generate_gaussian_dataset(n_per_class=6, n_features=21, n_informative=2,
                                   shift=0.8, seed=12, name="tiny_b")
    defaults = dict(
        datasets=(d1, d2), per_class=2, runs=2,
        classifiers=("LDC", "NN1"), rankers=("SU",), selectors=("TOP3", "TOP20"),
        master_seed=99,
    )
    defaults.update(kw)
    return GridConfig(**defaults)


class TestRecordCounts:
    def test_formula_small(self):
        cfg = tiny_config()
        records = run_grid(cfg)
        # |C| * |R| * |Sel| * runs + |C| * runs, per dataset
        assert len(records) == 2 * (2 * 1 * 2 * 2 + 2 * 2)
        assert len(records) == cfg.expected_records()
        keys = {r.key for r in records}
        assert len(keys) == len(records)

    def test_spec_arithmetic_42(self):
        d = generate_gaussian_dataset(n_per_class=6, n_features=21, seed=1, name="one")
        cfg = GridConfig(datasets=(d,), per_class=2, runs=3,
                         classifiers=("LDC", "NN1"), rankers=("SU", "RELIEFF"),
                         selectors=("TOP3", "TOP10", "TOP20"), master_seed=0)
        assert cfg.expected_records() == 42
        assert len(run_grid(cfg)) == 42

    def test_all_is_implicit(self):
        cfg = tiny_config(selectors=("ALL", "TOP3"))
        assert cfg.selectors == ("TOP3",)

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError, match="unknown tags"):
            tiny_config(classifiers=("LDC", "XGB"))

    def test_hyperparam_keys_validated(self):
        tiny_config(hyperparams=(("rf.n_trees", 25), ("svml.c", 2.0)))
        with pytest.raises(ValueError, match="unknown classifier prefix"):
            tiny_config(hyperparams=(("boost.depth", 3),))
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            tiny_config(hyperparams=(("rf.depth", 3),))


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tiny_config()
        run_grid(cfg, out_path=tmp_path / "a.jsonl")
        run_grid(cfg, out_path=tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_worker_count_independent(self, tmp_path):
        cfg = tiny_config()
        run_grid(cfg, out_path=tmp_path / "w1.jsonl", workers=1)
        run_grid(cfg, out_path=tmp_path / "w2.jsonl", workers=2)
        assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w2.jsonl").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        run_grid(tiny_config(), out_path=tmp_path / "a.jsonl")
        run_grid(tiny_config(master_seed=100), out_path=tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()

    def test_cell_seed_is_stable_across_releases(self):
        # resume logic depends on this derivation never changing
        assert cell_seed(0, "sonar_surrogate", 1) == 13807134886487530686

    def test_per_cell_reproducibility(self):
        cfg = tiny_config()
        full = {r.key: r for r in run_grid(cfg)}
        solo_cfg = tiny_config(runs=2)
        # recompute a single unit and compare an arbitrary cell
        from widefs.harness import _run_unit

        unit = {r.key: r for r in _run_unit(solo_cfg, 1, 2)}
        for key, record in unit.items():
            assert full[key] == record


class TestResume:
    def test_resume_completes_prefix(self, tmp_path):
        cfg = tiny_config()
        full_path = tmp_path / "full.jsonl"
        run_grid(cfg, out_path=full_path)
        full_bytes = full_path.read_bytes()
        lines = full_bytes.splitlines(keepends=True)
        part_path = tmp_path / "part.jsonl"
        cut = len(lines) // 3
        with open(part_path, "wb") as fh:
            fh.writelines(lines[:cut])
            fh.write(b'{"dataset": "tiny_a", "run"')  # torn write
        run_grid(cfg, out_path=part_path, resume=True)
        assert part_path.read_bytes() == full_bytes

    def test_resume_skips_complete_units(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "r.jsonl"
        first = run_grid(cfg, out_path=path)
        again = run_grid(cfg, out_path=path, resume=True)
        assert [r.key for r in first] == [r.key for r in again]
        assert path.read_bytes().count(b"\n") == len(first)

    def test_resume_refuses_another_configuration(self, tmp_path):
        path = tmp_path / "r.jsonl"
        run_grid(tiny_config(runs=1), out_path=path)
        before = path.read_bytes()
        other = tiny_config(runs=1, master_seed=100, hyperparams=(("ldc.ridge", 0.5),))
        with pytest.raises(ValueError, match="another grid configuration"):
            run_grid(other, out_path=path, resume=True)
        assert path.read_bytes() == before

    def test_interrupted_parallel_grid_resumes(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        fresh = tmp_path / "fresh.jsonl"
        run_grid(cfg, out_path=fresh)
        cells_per_unit = len(cfg.classifiers) * (1 + len(cfg.rankers) * len(cfg.selectors))
        to_json = RunRecord.to_json
        written = []

        def fail_after_first_unit(record):
            if len(written) == cells_per_unit:
                raise RuntimeError("interrupted")
            written.append(record)
            return to_json(record)

        monkeypatch.setattr(RunRecord, "to_json", fail_after_first_unit)
        path = tmp_path / "r.jsonl"
        with pytest.raises(RuntimeError, match="interrupted"):
            run_grid(cfg, out_path=path, workers=2)
        monkeypatch.undo()
        assert path.read_bytes().count(b"\n") == cells_per_unit
        run_grid(cfg, out_path=path, resume=True)
        assert path.read_bytes() == fresh.read_bytes()


class TestErrorRows:
    def test_failed_split_recorded_not_raised(self):
        small = generate_gaussian_dataset(n_per_class=2, n_features=21, seed=5, name="toosmall")
        cfg = GridConfig(datasets=(small,), per_class=2, runs=1,
                         classifiers=("LDC",), rankers=("SU",), selectors=("TOP3",))
        records = run_grid(cfg)
        assert len(records) == cfg.expected_records()
        assert all(r.error and "split failed" in r.error for r in records)
        assert all(r.est_error is None for r in records)

    def test_error_rows_round_trip(self, tmp_path):
        small = generate_gaussian_dataset(n_per_class=2, n_features=21, seed=5, name="toosmall")
        cfg = GridConfig(datasets=(small,), per_class=2, runs=1,
                         classifiers=("LDC",), rankers=("SU",), selectors=("TOP3",))
        path = tmp_path / "err.jsonl"
        records = run_grid(cfg, out_path=path)
        loaded = read_records(path)
        assert loaded == records


class TestRecordSchema:
    def test_jsonl_field_names(self, tmp_path):
        cfg = tiny_config(runs=1, datasets=tiny_config().datasets[:1])
        path = tmp_path / "grid.jsonl"
        run_grid(cfg, out_path=path)
        line = json.loads(path.read_text().splitlines()[0])
        assert list(line) == [
            "dataset", "run", "classifier", "ranker", "selector",
            "subset", "est_error", "true_error", "evaluations", "seed", "duration",
        ]
        assert line["duration"] == 0.0

    def test_round_trip(self):
        record = RunRecord(
            dataset="d", run=3, classifier="LDC", ranker=None, selector="ALL",
            subset=(0, 2), est_error=0.25, true_error=0.5, evaluations=1, seed=7,
        )
        assert RunRecord.from_json(record.to_json()) == record


class TestManifest:
    def test_load_and_validate(self, tmp_path):
        d = generate_gaussian_dataset(n_per_class=6, n_features=4, seed=3, name="m1")
        save_csv(d, tmp_path / "m1.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("# comment\nm1,m1.csv,12,4\n", encoding="utf-8")
        datasets = load_manifest(manifest)
        assert len(datasets) == 1 and datasets[0].name == "m1"

    def test_shape_mismatch_rejected(self, tmp_path):
        d = generate_gaussian_dataset(n_per_class=6, n_features=4, seed=3, name="m1")
        save_csv(d, tmp_path / "m1.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("m1,m1.csv,99,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="manifest says"):
            load_manifest(manifest)

    def test_shipped_manifest(self):
        from pathlib import Path

        data_dir = Path(__file__).resolve().parent.parent / "data"
        datasets = load_manifest(data_dir / "manifest.csv")
        assert [d.name for d in datasets] == ["sonar_surrogate", "gauss_wide"]


@pytest.fixture(scope="module")
def bundle(sonar_surrogate) -> CaseStudyBundle:
    return sonar_case_study(3, sonar_surrogate)


class TestCaseStudy:

    def test_exactly_1023_subsets(self, bundle):
        assert len(bundle.subsets) == 1023
        assert len(bundle.resub) == len(bundle.loo) == len(bundle.sloo) == len(bundle.true) == 1023
        assert bundle.subsets[0] == (1,)
        assert bundle.subsets[-1] == tuple(range(1, 11))

    def test_min_true_beats_all_features(self, bundle):
        assert bundle.true.min() <= bundle.all_features_true

    def test_best_rows_consistent(self, bundle):
        for label, values in (("RESUB", bundle.resub), ("LOO", bundle.loo),
                              ("SLOO", bundle.sloo), ("TRUE", bundle.true)):
            row = bundle.best[label]
            idx = bundle.subsets.index(tuple(row["positions"]))
            if label != "TRUE":
                assert row["predicted"] == values[idx]
                assert row["predicted"] == values.min()
            assert row["true_error"] == bundle.true[idx]

    def test_training_budget_accounted(self, bundle):
        # per subset: one probe fit (resub + holdout) reuse is not assumed;
        # 2 direct fits plus 20 fold fits
        assert bundle.n_trainings == 1023 * 22

    def test_fits_made_accounted(self, bundle):
        # LDC's leave-one-out is closed-form: only the two direct fits run
        assert bundle.n_fits == 1023 * 2
        assert bundle.to_json_dict()["n_fits"] == bundle.n_fits

    def test_json_dict_serializable(self, bundle):
        blob = json.dumps(bundle.to_json_dict())
        assert '"subsets"' in blob
