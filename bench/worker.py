"""One benchmark op in a fresh process: set up, run, check, fingerprint.

Usage: python3 bench/worker.py WORKLOAD SEED OUT_DIR [--setup-only] [--trace FILE]

The worker prints ``ready`` and the CPU time it has used so far as soon as
``import gibbswalk`` and the config load are done (the parent also times the
wall-clock set-up up to that line), then runs the op and prints one JSON
line: whether every check passed, the op's CPU and wall time, the certified
residual, a sha256 fingerprint of its reports and certified
numbers, and, when traced, the per-layer metrics.  Report files go to
OUT_DIR/reports; the span file given with --trace lives outside it.

With --setup-only the worker stops after ``ready`` and instead times a fixed
reference computation that uses no gibbswalk code, printing its CPU time as
one JSON line.  The host's CPU speed swings by up to 1.5x for minutes at a
time; the parent divides op CPU times by this reference time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# every stage except validate-h2, whose comparison audit raises a TypeError
PRESET_STAGES = ("pressure", "gibbs", "audit-spikes", "decompose", "walk")
PRESET_SUMMARY_KEYS = ("pressure", "gibbs", "audit_spikes", "decompose", "walk")

# depth2-hausdorff: a fixed depth-2 potential (12 window weights from [0, 0.9))
# plus a per-seed jitter.  Weights drawn wholly from the workload seed give
# certified residuals from 0.13 to 0.31 across seeds, too wide to compare runs.
DEPTH2_BASE_SEED = 777
DEPTH2_WEIGHT_HI = 0.9
DEPTH2_JITTER = 0.01
# the theorem's identity F = sum(weight * f_g) + residual, integrated
MASS_IDENTITY_TOL = 1e-9


def depth2_config(cli, seed: int) -> dict:
    from gibbswalk.words import Alphabet

    ab = Alphabet(2)
    windows = list(ab.reduced_words(2))
    weights = (np.random.default_rng(DEPTH2_BASE_SEED).uniform(0.0, DEPTH2_WEIGHT_HI, len(windows))
               + np.random.default_rng(seed).uniform(0.0, DEPTH2_JITTER, len(windows)))
    return {
        "alphabet": {"rank": 2},
        "potential": {"depth": 2, "suffix_rule": "average",
                      "entries": {ab.format_word(w): float(x) for w, x in zip(windows, weights)}},
        "target": {"kind": "ones"},
        "decomposer": {"max_shell": 4},
        "walk": dict(cli.PRESETS["uniform-f2"]["walk"]),
        "seed": seed,
    }


def run_preset(cli, cfg: dict, out: Path) -> dict:
    code, summary = cli.run_experiment(cfg, str(out), stages=PRESET_STAGES)
    failed = [k for k in PRESET_SUMMARY_KEYS if not summary.get(k, {}).get("pass", False)]
    if code != 0 or failed:
        return {"ok": False, "error": summary.get("error", f"stages not passed: {failed}")}
    return {"ok": True, "residual_l1": summary["decompose"]["residual_l1"],
            "total_mass": summary["walk"]["total_mass"], "certified": None}


def run_depth2(cli, cfg: dict, out: Path) -> dict:
    from gibbswalk.decompose import DecomposerConfig, moment_majorant, stage_moments
    from gibbswalk.spikes import SpikeLab

    decompose = sys.modules["gibbswalk.decompose"].decompose
    ab, P, S, F = cli.build_objects(cfg)
    dc = DecomposerConfig(**cfg["decomposer"])
    dec = decompose(F, S, dc, lab=SpikeLab(S, nu_id="hausdorff"))
    # the verdicts cli.run_decompose applies
    verdicts = {
        "bounds_ok": all(tr.residual_l1 <= tr.bound_l1 + 1e-12 for tr in dec.stages)
        and all(tr.residual_sup <= tr.bound_sup + 1e-12 for tr in dec.stages),
        "ratio_ok": all(tr.t_eps <= dc.ell + 1e-12 for tr in dec.stages),
        "moment_ok": all(i <= m + 1e-12 for i, m in zip(stage_moments(dec), moment_majorant(dec))),
        "positive": dec.residual.inf > 0,
    }
    failed = [k for k, v in verdicts.items() if not v]
    if failed:
        return {"ok": False, "error": f"decompose verdicts failed: {failed}"}
    walk = cli.run_walk(cfg, ab, P, S, F, dec, cli.Reporter(out, cfg))
    certified = {
        "C_G": dec.cert.C_G, "status": dec.status,
        "final_residual_l1": dec.final_residual_l1,
        "stage_residuals": [tr.residual_l1 for tr in dec.stages],
        "entries": sorted((ab.format_word(g), w) for g, w in dec.entries.items()),
        "stationarity_error": walk["stationarity_error"],
    }
    return {"ok": True, "residual_l1": dec.final_residual_l1,
            "total_mass": walk["total_mass"], "certified": certified}


REFERENCE_REPS = 3


def reference_work() -> float:
    """A fixed mix of interpreter and numpy work, like the op's, on no gibbswalk code."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(400_000):
        k = (i * 7919) & 4095
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] * 1e-9
    a = np.linspace(0.0, 1.0, 1 << 21)  # 16 MB, like the depth-13 mass arrays
    for _ in range(6):
        a = np.sqrt(np.abs(np.cumsum(a[::-1])) * 1e-6 + 1.0)
    return acc + float(a[0])


def reference_cpu_s() -> float:
    """Median CPU time of REFERENCE_REPS runs of reference_work."""
    times = []
    for _ in range(REFERENCE_REPS):
        c0 = cpu_s()
        reference_work()
        times.append(cpu_s() - c0)
    return sorted(times)[len(times) // 2]


def cpu_s() -> float:
    """CPU time (user + system) of this process and of its waited-for children."""
    usage = (resource.getrusage(resource.RUSAGE_SELF),
             resource.getrusage(resource.RUSAGE_CHILDREN))
    return sum(u.ru_utime + u.ru_stime for u in usage)


def fingerprint(out: Path, certified) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(json.dumps(certified, sort_keys=True).encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("out_dir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="span file of a traced op")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import gibbswalk
    from gibbswalk import cli

    if not Path(gibbswalk.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"gibbswalk imported from {gibbswalk.__file__}, not from this checkout")
    if args.workload == "depth2-hausdorff":
        cfg, op = depth2_config(cli, args.seed), run_depth2
    else:
        cfg, op = cli.load_config(None, args.workload, args.seed), run_preset
    # CPU time of the process so far: interpreter start, imports, config load
    print(f"ready {cpu_s()!r}", flush=True)
    if args.setup_only:
        print(json.dumps({"reference_cpu_s": reference_cpu_s()}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    reports = Path(args.out_dir) / "reports"
    t0, c0 = time.perf_counter(), cpu_s()
    try:
        res = op(cli, cfg, reports)
    except Exception:  # an op that raises is a failed op, reported with its traceback
        res = {"ok": False, "error": traceback.format_exc()}
    res["pipeline_cpu_s"] = cpu_s() - c0
    res["pipeline_wall_s"] = time.perf_counter() - t0
    if res["ok"] and abs(res["total_mass"] + res["residual_l1"] - 1.0) > MASS_IDENTITY_TOL:
        res.update(ok=False, error=f"walk mass {res['total_mass']!r} + residual "
                                   f"{res['residual_l1']!r} is not 1")
    if res["ok"]:
        res["fingerprint"] = fingerprint(reports, res.pop("certified"))
    if tracer is not None:
        tracer.dump(args.trace)
        res["layers"] = tracer.layer_metrics()
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
