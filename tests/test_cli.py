"""The experiment runner: presets, gating, determinism, serialization."""

import csv
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gibbswalk import cli, stems
from gibbswalk.cli import PRESETS, build_objects, config_hash, load_config, main, run_experiment
from gibbswalk.decompose import SWEEP_RADIUS
from gibbswalk.spikes import CertificationError, SpikeLab
from gibbswalk.stems import StemTable
from gibbswalk.words import Alphabet


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

    def test_absent_size_sections_take_the_stage_defaults(self, tmp_path):
        # the benchmark's depth-2 config has no audits section; before, the
        # gibbs stage failed on it with KeyError('audits')
        cfg = {k: v for k, v in small_config().items() if k not in ("audits", "walk")}
        assert build_objects(cfg)[0].rank == 2
        code, summary = run_experiment(cfg, str(tmp_path / "out"), ("gibbs", "audit-spikes"))
        assert code == 0, summary

    def test_potential_entries_parsed(self):
        cfg = small_config()
        cfg["potential"]["entries"] = {"a": 0.2, "b'": -0.1}
        ab, P, S, F = build_objects(cfg)
        assert P.table[(0,)] == 0.2 and P.table[(3,)] == -0.1 and P.table[(2,)] == 0.0

    @pytest.mark.parametrize("key", ["a", "b b'", "a b a"])
    def test_potential_entry_that_is_no_window_is_refused(self, key):
        # before, such keys were dropped and the zero potential certified
        cfg = small_config()
        cfg["potential"] = {"depth": 2, "entries": {"a a": 0.1, key: 0.5}}
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            build_objects(cfg)

    def test_unknown_preset_in_file_is_refused(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "nope"}))
        with pytest.raises(ValueError, match=re.escape(f"'nope'; known presets: {sorted(PRESETS)}")):
            load_config(str(path), None, None)
        with pytest.raises(SystemExit) as exc:
            main(["pressure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unknown preset 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("section,message", [
        ({"target": {"entries": {"a": 2.0, "a a": 1.25}}}, "'a' and 'a a' overlap"),
        ({"potential": {"entries": {"a a": 0.3}}}, "potential entry 'a a'"),
        ({"target": {"kind": "bump"}}, "unknown target kind 'bump'"),
        ({"alphabet": {"rank": 1}}, "need free rank >= 2"),
        # before, n_paths 0 passed with an infinite stderr, shadow_integral_smax 0
        # with an infinite integral_lo, and the others failed late or empty
        ({"walk": {"n_paths": 0}}, "walk.n_paths must be an integer >= 1, not 0"),
        ({"walk": {"depth": 0}}, "walk.depth must be an integer >= 1, not 0"),
        ({"audits": {"shadow_integral_smax": 0}}, "audits.shadow_integral_smax must be"),
        ({"audits": {"spike_radius": 0}}, "audits.spike_radius must be"),
        ({"audits": {"shadow_radius": 0}}, "audits.shadow_radius must be"),
        ({"audits": {"h2_samples": 0}}, "audits.h2_samples must be"),
        ({"audits": {"spike_radius": 2.5}}, "audits.spike_radius must be an integer >= 1, not 2.5"),
        # before, these failed at the walk stage after the reports were written,
        # and stabilize 0 passed
        ({"walk": {"step_cap": 0}}, "walk.step_cap must be an integer >= 1, not 0"),
        ({"walk": {"step_cap": 2.5}}, "walk.step_cap must be an integer >= 1, not 2.5"),
        ({"walk": {"stabilize": "x"}}, "walk.stabilize must be an integer >= 1, not 'x'"),
        ({"walk": {"stabilize": 0}}, "walk.stabilize must be an integer >= 1, not 0"),
    ], ids=["overlapping-keys", "window-length", "target-kind", "rank-1", "n-paths-0",
            "walk-depth-0", "integral-smax-0", "spike-radius-0", "shadow-radius-0",
            "h2-samples-0", "spike-radius-float", "step-cap-0", "step-cap-float",
            "stabilize-str", "stabilize-0"])
    def test_refused_config_is_a_usage_error(self, tmp_path, capsys, section, message):
        # before, each ended in a traceback and left an empty report directory
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(section, preset="step-f2")))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["pressure", "--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(load_config(str(path), None, None), str(out))
        assert not out.exists()

    @pytest.mark.parametrize("entries", [{"a": 2.0, "a a": 1.25}, {"a a": 1.25, "a": 2.0}],
                             ids=["short-first", "long-first"])
    def test_overlapping_target_entries_are_refused(self, entries):
        # before, the later key overwrote the earlier one on the stems they share
        cfg = small_config()
        cfg["target"] = {"kind": "step", "depth": 2, "entries": entries}
        with pytest.raises(ValueError, match="'a' and 'a a' overlap"):
            build_objects(cfg)

    @pytest.mark.parametrize("key", ["", "a a'", "a b a"])
    def test_target_entry_outside_the_target_depth_is_refused(self, key):
        cfg = small_config()
        cfg["target"] = {"kind": "step", "depth": 2, "entries": {"a a": 1.25, key: 1.5}}
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            build_objects(cfg)


class TestModules:
    def test_a_run_loads_no_module(self):
        # every module a run needs is loaded by import and config load, and
        # no stage, validate-h2 included, loads scipy
        code = ("import sys, tempfile\n"
                "import gibbswalk.cli as cli\n"
                "cfg = cli.load_config(None, 'step-f2', None)\n"
                "with tempfile.TemporaryDirectory() as out:\n"
                "    before = set(sys.modules)\n"
                "    code, summary = cli.run_experiment(cfg, out, stages=cli.ALL_STAGES[:5])\n"
                "    assert code == 0, summary\n"
                "    new = sorted(set(sys.modules) - before)\n"
                "    assert not new, f'modules loaded by the run: {new}'\n"
                "    code, summary = cli.run_experiment(cfg, out, stages=('validate-h2',))\n"
                "    assert code == 0, summary\n"
                "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "assert not scipy, f'scipy modules loaded: {scipy}'\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


def deep_config(m, **audits):
    """uniform-f2 with a depth-m potential: its window weights from U(0, 0.9), seed 5
    (12 at m = 2, 36 at m = 3)."""
    cfg = json.loads(json.dumps(PRESETS["uniform-f2"]))
    ab = Alphabet(2)
    windows = list(ab.reduced_words(m))
    weights = np.random.default_rng(5).uniform(0.0, 0.9, len(windows))
    cfg["potential"] = {"depth": m, "suffix_rule": "average",
                        "entries": {ab.format_word(w): float(x) for w, x in zip(windows, weights)}}
    cfg["audits"].update(audits)
    return cfg


class TestRunner:
    def test_depth2_potential_passes_every_stage(self, tmp_path):
        cfg = deep_config(2, spike_radius=6, h2_samples=50)
        cfg["walk"]["n_paths"] = 2000
        code, summary = run_experiment(cfg, str(tmp_path))
        assert code == 0, summary.get("error")
        for key in ("pressure", "gibbs", "audit_spikes", "decompose", "walk", "validate_h2"):
            assert summary[key]["pass"], key
        assert summary["decompose"]["status"] == "shell_budget"

    def test_depth3_spike_constants_hold_after_the_head(self, tmp_path):
        # the per-shell maxima grow until shell 7 (12.55) and then hold; a
        # head window of m + 2 = 5 shells (11.51) refused them as growing
        cfg = deep_config(3, spike_radius=8)
        code, summary = run_experiment(cfg, str(tmp_path), stages=("audit-spikes",))
        assert code == 0, summary.get("error")
        out = summary["audit_spikes"]
        assert out["pass"] and out["head_max"] == pytest.approx(12.5454, rel=1e-5)

    @pytest.mark.parametrize("name", ["uniform-f2", "depth2"])
    def test_one_shell_build_per_lab(self, tmp_path, monkeypatch, name):
        # the spike sweep and the decomposition read the same untargeted shells
        cfg = small_config() if name == "uniform-f2" else deep_config(2, spike_radius=4)
        ab, P, S, F = build_objects(cfg)
        lab = SpikeLab(S, "hausdorff")
        builds, chunks = [], SpikeLab._spike_chunks

        def counted(self, words, F):
            builds.append((words.shape[1], F is None))
            return chunks(self, words, F)

        monkeypatch.setattr(SpikeLab, "_spike_chunks", counted)
        rep = cli.Reporter(tmp_path, cfg)
        assert cli.run_spikes(cfg, ab, S, lab, rep)["pass"]
        dec, _ = cli.run_decompose(cfg, ab, S, F, lab, rep)
        shells = set(range(1, 5)) | set(range(1, SWEEP_RADIUS + 1)) | {t.shell for t in dec.stages}
        assert sorted(builds) == [(n, True) for n in sorted(shells)]

    def test_plane_audits_imported_on_first_use(self):
        code = ("import sys, gibbswalk\n"
                "from gibbswalk import cli\n"
                "assert 'gibbswalk.hyperbolic' not in sys.modules\n"
                "assert gibbswalk.comparison_audit.__module__ == 'gibbswalk.hyperbolic'\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

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

    def test_walk_verdicts_are_booleans(self, tmp_path, monkeypatch):
        # numpy booleans were written through default=float as 1.0 and 0.0
        code, summary = run_experiment(small_config(), str(tmp_path / "a"),
                                       stages=("decompose", "walk"))
        assert code == 0, summary.get("error")
        walk = json.loads((tmp_path / "a" / "walk_summary.json").read_text())
        copy = json.loads((tmp_path / "a" / "summary.json").read_text())["walk"]
        for report in (walk, copy):
            assert report["sim_within_tolerance"] is True and report["pass"] is True
        density = cli.density_masses

        def skewed(F, S, depth):  # a hitting target the walk cannot meet: one cylinder
            masses = density(F, S, depth)
            return np.where(np.arange(len(masses)) == 0, masses.sum(), 0.0)

        monkeypatch.setattr(cli, "density_masses", skewed)
        code, _ = run_experiment(small_config(), str(tmp_path / "b"), stages=("decompose", "walk"))
        assert code == 1
        walk = json.loads((tmp_path / "b" / "walk_summary.json").read_text())
        assert walk["sim_within_tolerance"] is False and walk["pass"] is False

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

    def test_oversized_audit_fails_its_stage(self, tmp_path, monkeypatch):
        # a depth-6 budget stands in for rank 3 at shadow radius 12 (2.3 GB per
        # stem array); radius 8 keeps the run small should the check be lost
        monkeypatch.setattr(stems, "DENSE_BYTES", 8 * StemTable(Alphabet(3), 6).size)
        cfg = small_config(alphabet={"rank": 3})
        cfg["audits"]["shadow_radius"] = 8
        code, summary = run_experiment(cfg, str(tmp_path), stages=("gibbs",))
        assert code == 1 and summary["failed_stage"] == "gibbs"
        assert "DenseArrayError" in summary["error"] and "depth-7" in summary["error"]

    def test_oversized_shell_fails_its_stage(self, tmp_path, monkeypatch):
        # shell 5's centre words take 12,960 bytes; shells 1-4 fit
        monkeypatch.setattr(stems, "DENSE_BYTES", 8000)
        cfg = small_config()
        cfg["audits"]["spike_radius"] = 5
        code, summary = run_experiment(cfg, str(tmp_path), stages=("audit-spikes",))
        assert code == 1 and summary["failed_stage"] == "audit-spikes"
        assert "DenseArrayError" in summary["error"] and "shell 5's centre words" in summary["error"]

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
