"""The experiment runner: presets, gating, determinism, serialization."""

import csv
import filecmp
import json
import os

import pytest

from gibbswalk.cli import PRESETS, build_objects, config_hash, load_config, main, run_experiment
from gibbswalk.spikes import CertificationError, SpikeLab


def small_config(**overrides):
    cfg = json.loads(json.dumps(PRESETS["uniform-f2"]))
    cfg["walk"]["n_paths"] = 3000
    cfg["audits"].update({"shadow_radius": 5, "shadow_integral_smax": 8,
                          "spike_radius": 4, "h2_samples": 300})
    cfg["decomposer"]["stage_cap"] = 12
    cfg["decomposer"]["target_l1"] = 5e-2
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_preset_loading(self):
        cfg = load_config(None, "uniform-f2", None)
        assert cfg["target"]["kind"] == "ones"

    def test_seed_override_changes_hash(self):
        c1 = load_config(None, "uniform-f2", 1)
        c2 = load_config(None, "uniform-f2", 2)
        assert config_hash(c1) != config_hash(c2)

    def test_file_with_preset_base(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "step-f2", "seed": 99}))
        cfg = load_config(str(path), None, None)
        assert cfg["target"]["kind"] == "step" and cfg["seed"] == 99

    def test_partial_sections_merge_into_preset(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"preset": "step-f2", "target": {"entries": {"a a": 1.5}}}))
        cfg = load_config(str(path), None, None)
        assert cfg["target"] == dict(PRESETS["step-f2"]["target"], entries={"a a": 1.5})
        ab, P, S, F = build_objects(cfg)
        assert F.depth == 2
        path = tmp_path / "audits.json"
        path.write_text(json.dumps({"preset": "step-f2", "audits": {"h2_samples": 500}}))
        cfg = load_config(str(path), None, None)
        assert cfg["audits"] == dict(PRESETS["step-f2"]["audits"], h2_samples=500)
        assert cfg["audits"]["spike_radius"] == 6

    def test_build_objects(self):
        ab, P, S, F = build_objects(load_config(None, "step-f2", None))
        assert ab.rank == 2
        assert F.integral(S.mass_array(F.depth)) == pytest.approx(1.0, abs=1e-12)

    def test_potential_entries_parsed(self):
        cfg = small_config()
        cfg["potential"]["entries"] = {"a": 0.2, "b'": -0.1}
        ab, P, S, F = build_objects(cfg)
        assert P.table[(0,)] == 0.2 and P.table[(3,)] == -0.1 and P.table[(2,)] == 0.0


class TestRunner:
    def test_full_pipeline(self, tmp_path):
        code, summary = run_experiment(small_config(), str(tmp_path))
        assert code == 0
        assert summary["pressure"]["lambda"] == pytest.approx(1.0986122886681098)
        for name in ("summary.json", "summary.txt", "stages.csv", "hitting.csv",
                     "walk_measure.json", "decay_cert.json", "h2_report.json"):
            assert (tmp_path / name).exists()
        text = (tmp_path / "summary.txt").read_text()
        assert "PASS pressure" in text and text.strip().endswith(f"version=0.1.0")

    def test_nonzero_potential_decomposes_and_walks(self, tmp_path):
        # README's example potential; certified against the Hausdorff measure
        cfg = small_config()
        cfg["potential"]["entries"] = {"a": 0.2, "b'": -0.1}
        code, summary = run_experiment(cfg, str(tmp_path), stages=("decompose", "walk"))
        assert code == 0, summary.get("error")
        assert summary["decompose"]["pass"] and summary["walk"]["pass"]

    def test_one_decay_certificate_per_run(self, tmp_path, monkeypatch):
        audit = SpikeLab.decay_audit
        calls = []

        def counted(lab):
            calls.append(lab.nu_id)
            return audit(lab)

        monkeypatch.setattr(SpikeLab, "decay_audit", counted)
        code, summary = run_experiment(small_config(), str(tmp_path),
                                       stages=("audit-spikes", "decompose"))
        assert code == 0, summary.get("error")
        assert calls == ["hausdorff"]

    def test_audits_only_writes_no_decomposition(self, tmp_path):
        code, _ = run_experiment(small_config(), str(tmp_path),
                                 stages=("pressure", "gibbs"))
        assert code == 0
        assert not (tmp_path / "stages.csv").exists()
        assert not (tmp_path / "decomposition.json").exists()
        assert (tmp_path / "gibbs_audit.csv").exists()

    def test_determinism(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, str(tmp_path / "a"))
        run_experiment(cfg, str(tmp_path / "b"))
        for name in sorted(os.listdir(tmp_path / "a")):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        # numpy scalars are written as Python floats, never as np.float64(...)
        code, _ = run_experiment(small_config(), str(tmp_path),
                                 stages=("pressure", "decompose", "walk"))
        assert code == 0
        for path in sorted(tmp_path.glob("*.csv")):
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    assert not any("np." in cell for cell in row), (path.name, row)

    def test_rows_carry_hash_and_version(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, str(tmp_path), stages=("pressure",))
        lines = (tmp_path / "pressure.csv").read_text().strip().splitlines()
        assert lines[0].endswith("config_hash,version")
        for line in lines[1:]:
            assert config_hash(cfg) in line and "0.1.0" in line

    def test_main_entrypoint(self, tmp_path, capsys):
        code = main(["pressure", "--preset", "uniform-f2", "--out", str(tmp_path)])
        assert code == 0
        assert "PASS pressure" in capsys.readouterr().out

    def test_failing_stage_nonzero_exit(self, tmp_path):
        cfg = small_config()
        cfg["decomposer"]["ell"] = 1.0  # invalid: the config constructor rejects it
        code, summary = run_experiment(cfg, str(tmp_path), stages=("decompose",))
        assert code == 1
        assert summary["failed_stage"] == "decompose"
        assert "FAIL stage decompose" in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize("stage", ["audit-spikes", "decompose"])
    def test_decay_witness_in_summary(self, tmp_path, monkeypatch, stage):
        witness = {"preamble": "a b", "period": "b", "r": 0.5, "s": 12}

        def failing(lab):
            raise CertificationError("decay ratios still growing", witness=witness)

        monkeypatch.setattr(SpikeLab, "decay_audit", failing)
        code, summary = run_experiment(small_config(), str(tmp_path), stages=(stage,))
        assert code == 1 and summary["failed_stage"] == stage
        assert summary["witness"] == witness
        assert json.loads((tmp_path / "summary.json").read_text())["witness"] == witness

    def test_no_witness_without_one(self, tmp_path):
        cfg = small_config()
        cfg["decomposer"]["ell"] = 1.0
        _, failed = run_experiment(cfg, str(tmp_path / "a"), stages=("decompose",))
        code, passed = run_experiment(small_config(), str(tmp_path / "b"), stages=("pressure",))
        assert code == 0
        assert "witness" not in failed and "witness" not in passed
