"""Which gibbswalk functions the run paths enter.

Usage: PYTHONPATH=src python tests/run_path_trace.py OUT_JSON

Runs `gibbswalk all` on the uniform-f2 and step-f2 presets, on README's
example config and on a depth-2 potential (the weights of
`test_cli.deep_config(2)`, `h2_samples` 200), then one depth2-hausdorff
benchmark op (`bench/worker.run_depth2`, seed 601), all under
`sys.setprofile`, and writes the functions of the gibbswalk package that
were entered to OUT_JSON as a list of "module.qualname".  The profile is
set before gibbswalk is imported, so import-time calls count too.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(out_json: str) -> None:
    package = os.path.dirname(importlib.util.find_spec("gibbswalk").origin) + os.sep
    entered = set()  # code objects

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "bench"))
    sys.setprofile(profile)
    import numpy as np

    import gibbswalk.cli as cli
    import worker
    from gibbswalk.words import Alphabet

    ab = Alphabet(2)
    windows = list(ab.reduced_words(2))
    weights = np.random.default_rng(5).uniform(0.0, 0.9, len(windows))
    depth2 = json.loads(json.dumps(cli.PRESETS["uniform-f2"]))
    depth2["potential"] = {"depth": 2, "suffix_rule": "average",
                           "entries": {ab.format_word(w): float(x)
                                       for w, x in zip(windows, weights)}}
    depth2["audits"]["h2_samples"] = 200
    readme = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    with tempfile.TemporaryDirectory() as tmp:
        runs = [["--preset", "uniform-f2"], ["--preset", "step-f2"]]
        for name, cfg in (("readme", json.loads(readme)), ("depth2", depth2)):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg))
            runs.append(["--config", str(path)])
        for i, args in enumerate(runs):
            code = cli.main(["all", *args, "--out", str(Path(tmp) / f"run{i}")])
            if code != 0:
                raise SystemExit(f"gibbswalk all {' '.join(args)} exited {code}")
        res = worker.run_depth2(cli, worker.depth2_config(cli, 601), Path(tmp) / "op")
        if not res["ok"]:
            raise SystemExit(f"depth2-hausdorff op failed: {res['error']}")
    sys.setprofile(None)
    names = {f"{Path(code.co_filename).stem}.{code.co_qualname}"
             for code in entered if code.co_filename.startswith(package)}
    Path(out_json).write_text(json.dumps(sorted(names)))


if __name__ == "__main__":
    main(sys.argv[1])
