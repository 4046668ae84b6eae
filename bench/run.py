"""The gibbswalk benchmark: certified pipeline ops, one fresh worker each.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op runs the certified pipeline (pressure, gibbs, audit-spikes,
decompose, walk) in a fresh worker process (bench/worker.py), one worker at
a time, with BLAS and OpenMP threads pinned to 1.  Fresh processes keep the
peak-RSS figure independent of the op count: reference cycles keep a
finished op's streams and depth-13 mass arrays alive until the cyclic GC
runs.  Ops run back to back while the next one is expected to end within S
seconds, at least MIN_OPS of them, all with the workload seed, so each must
give the same fingerprint.

Times are CPU times of the worker process (user + system, all threads,
waited-for children): ``setup_s`` up to the worker's ``ready`` line, and
each op's CPU time.  On a shared host the wall clock also counts the time
the hypervisor gives this machine's CPUs to other guests (steal); CPU time
leaves it out.  The CPU's own speed still swings by up to 1.5x for minutes
at a time, so a set-up probe runs before each op and after the last, and
each probe also times a fixed reference computation that uses no gibbswalk
code.  Each op's CPU time is divided by the mean reference time of the
probes just before and just after it; ``pipeline_ref`` is the median of
these ratios over the run's ops.  Raw CPU and wall times are kept in every
run record.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 every other op is traced and it carries the per-layer metrics,
the traced op time and the tracing overhead.  Every run also appends a
record, with per-op fingerprints, to .bench_work/results.jsonl, which
bench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("uniform-f2", "step-f2", "depth2-hausdorff")
MIN_OPS = 2
RUN_BUDGET_S = 160.0  # every worker ends within this many seconds of the start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"setup_s": "s", "pipeline_ref": "ref", "residual_l1": "L1",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def spawn(workload: str, seed: int, out_dir: Path, log: Path, deadline: float,
          setup_only: bool = False, trace_file: Path | None = None) -> dict:
    """Run one worker, killed at the deadline; return set-up time, wall time,
    peak RSS, exit code and its result."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), workload, str(seed), str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    out = bytearray()
    setup_wall_s = None
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        fd = proc.stdout.fileno()
        eof = False
        try:
            while time.perf_counter() < deadline:
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
                if not ready:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    eof = True
                    break
                out += chunk
                if setup_wall_s is None and b"\n" in out:
                    setup_wall_s = time.perf_counter() - t0
        finally:
            if not eof:  # timed out or interrupted: stop the worker before reaping it
                proc.kill()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").splitlines()
    ready = lines[0].split() if lines else []
    setup_cpu_s = float(ready[1]) if len(ready) == 2 and ready[0] == "ready" else None
    result = None
    if proc.returncode == 0 and len(lines) >= 2 and setup_cpu_s is not None:
        result = json.loads(lines[-1])
    return {"setup_cpu_s": setup_cpu_s,
            "setup_wall_s": setup_wall_s if setup_cpu_s is not None else None,
            "wall_s": time.perf_counter() - t0, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "result": result}


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path,
            deadline: float) -> tuple[list, list, list]:
    """Ops back to back, with a probe before each and after the last, so the
    set-up and reference samples spread over the whole run; returns set-up
    times, reference times and op records."""
    traces = WORK / "traces"
    for d in (scratch, traces):
        d.mkdir(parents=True, exist_ok=True)
    setups, refs = [], []

    def probe(i: int) -> None:
        log = scratch / f"probe{i}.log"
        r = spawn(workload, seed, scratch / f"probe{i}", log, deadline, setup_only=True)
        if r["result"] is None:
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
            raise SystemExit(f"worker set-up failed (exit {r['code']})")
        setups.append({k: r[k] for k in ("setup_cpu_s", "setup_wall_s")})
        refs.append(r["result"]["reference_cpu_s"])

    ops: list[dict] = []
    walls: list[float] = []
    t_start = time.perf_counter()
    while time.perf_counter() < deadline:
        now = time.perf_counter()
        # stop once the next op, at the typical op time, would end past the window
        if len(ops) >= MIN_OPS and (now - t_start + statistics.median(walls) > seconds
                                    or now + max(walls) > deadline):
            break
        i = len(ops)
        probe(i)
        traced = trace and i % 2 == 1
        trace_file = traces / f"{workload}-seed{seed}-op{i}.json" if traced else None
        log = scratch / f"op{i}.log"
        r = spawn(workload, seed, scratch / f"op{i}", log, deadline, trace_file=trace_file)
        walls.append(r["wall_s"])
        res = r["result"] or {"ok": False, "error": f"worker exit {r['code']}, no result\n"
                                                    + log.read_text(errors="replace")[-4000:]}
        ops.append({"op": i, "traced": traced, "ok": bool(res.get("ok")),
                    "setup_cpu_s": r["setup_cpu_s"], "setup_wall_s": r["setup_wall_s"],
                    "peak_rss_mb": r["peak_rss_mb"], "pipeline_cpu_s": res.get("pipeline_cpu_s"),
                    "pipeline_wall_s": res.get("pipeline_wall_s"),
                    "residual_l1": res.get("residual_l1"),
                    "fingerprint": res.get("fingerprint"), "error": res.get("error"),
                    "layers": res.get("layers")})
        if r["setup_cpu_s"] is not None:
            setups.append({k: r[k] for k in ("setup_cpu_s", "setup_wall_s")})
        shutil.rmtree(scratch / f"op{i}", ignore_errors=True)
    if not ops:
        raise SystemExit("set-up used the whole run budget; no op ran")
    if deadline - time.perf_counter() > 10.0:
        probe(len(ops))
    for i, op in enumerate(ops):
        # the reference probes just before and just after the op
        op["reference_cpu_s"] = statistics.mean(refs[i:i + 2])
        op["pipeline_ref"] = (op["pipeline_cpu_s"] / op["reference_cpu_s"]
                              if op["pipeline_cpu_s"] is not None else None)
    return setups, refs, ops


def summarise(setups: list, ops: list, trace: bool) -> dict:
    """Check fingerprints, print one line per op, and build the result object."""
    # ops with the same seed must agree to the byte
    ref = next((op["fingerprint"] for op in ops if op["ok"]), None)
    for op in ops:
        if op["ok"] and op["fingerprint"] != ref:
            op.update(ok=False, error=f"fingerprint {op['fingerprint']} differs from {ref}")
        status = "ok" if op["ok"] else "FAILED"
        print(f"op {op['op']} {'traced' if op['traced'] else 'untraced'} {status}: "
              f"pipeline {_fmt(op['pipeline_cpu_s'])} s CPU / {_fmt(op['pipeline_wall_s'])} s "
              f"wall, {_fmt(op['pipeline_ref'])} ref, setup {_fmt(op['setup_cpu_s'])} s CPU / "
              f"{_fmt(op['setup_wall_s'])} s wall, "
              f"peak RSS {op['peak_rss_mb']:.1f} MB, residual_l1 {op['residual_l1']!r}, "
              f"fingerprint {op['fingerprint']}")
        if op["error"]:
            sys.stderr.write(f"op {op['op']} error: {op['error']}\n")

    failed = sum(not op["ok"] for op in ops)
    if trace:
        units = layer_units()
        traced = [op for op in ops if op["traced"]]
        values = {name: _median(op["layers"][name] for op in traced if op["layers"])
                  for name in units if not name.startswith("trace.")}
        values["trace.pipeline_cpu_s"] = _median(op["pipeline_cpu_s"] for op in traced)
        values["trace.overhead_cpu_s"] = values["trace.pipeline_cpu_s"] - _median(
            op["pipeline_cpu_s"] for op in ops if not op["traced"])
    else:
        units = E2E_UNITS
        values = {
            "setup_s": _median(s["setup_cpu_s"] for s in setups),
            "pipeline_ref": _median(op["pipeline_ref"] for op in ops),
            "residual_l1": _median(op["residual_l1"] for op in ops),
            "peak_rss_mb": _median(op["peak_rss_mb"] for op in ops),
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def _median(values) -> float:
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if vals else 0.0


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.3f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gibbswalk" / "__init__.py").is_file():
        print(f"no gibbswalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = WORK / "ops" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        setups, refs, ops = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                    scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = summarise(setups, ops, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "reference_cpu_s": refs,
              "ops": [{k: v for k, v in op.items() if k != "layers"} for op in ops],
              "result": result}
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
