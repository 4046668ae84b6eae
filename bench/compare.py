"""Print each metric's change between two benchmark result files.

Usage: python3 bench/compare.py OLD.jsonl NEW.jsonl

A result file holds the records that bench/run.py appends to
.bench_work/results.jsonl, one per run; bench/baseline.jsonl is one too.
For every workload and metric the tool prints the median over each file's
runs, the delta and the relative change.  End-to-end metrics also get a
verdict against the bound that BENCHMARK.json fixes; per-layer metrics have
no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, metric) -> list of values over the file's runs."""
    out: dict = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line) if line.strip() else {}
            if "result" in rec:  # other lines, such as a baseline's header, carry no run
                for name, m in rec["result"]["metrics"].items():
                    out[(rec["workload"], name)].append(m["value"])
    return out


def verdict(spec: dict | None, old: float, new: float) -> str:
    if spec is None or "bound" not in spec:
        return ""
    worse = new - old if spec["better"] == "lower" else old - new
    limit = spec["bound"] * abs(old)
    return f"REGRESSION (bound {spec['bound']:.0%})" if worse > limit else f"ok (bound {spec['bound']:.0%})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    old, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<18} {'metric':<30} {'old':>12} {'new':>12} {'delta':>12} {'change':>8}  "
          f"runs  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        a, b = statistics.median(old[key]), statistics.median(new[key])
        change = f"{(b - a) / abs(a):+.1%}" if a else "-"
        unit = specs.get(name, {}).get("unit", "")
        print(f"{workload:<18} {name:<30} {a:>12.5g} {b:>12.5g} {b - a:>+12.4g} {change:>8}  "
              f"{len(old[key])}/{len(new[key])}  {unit} {verdict(specs.get(name), a, b)}")
    for key in sorted(set(old) ^ set(new)):
        print(f"{key[0]:<18} {key[1]:<30} only in {'old' if key in old else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
