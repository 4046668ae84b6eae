"""The run path is the library: every function in src/gibbswalk is entered by
a run (`run_path_trace.py`), or is listed below with the reason it stays.

A function that only tests read belongs in `tests/oracles.py`; one that
nothing reads is deleted."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

_ERROR = "error path"
_WITNESS = "error path: the decay certificate's witness ray is an EventuallyPeriodicWord"
_TRACER = "tracer hook: bench/tracing.py wraps this name"

# the functions no run enters, each with why it stays in src
NOT_ON_THE_RUN_PATH = {
    "cli.StageFailure.__init__": _ERROR + ": a stage that fails",
    "spikes.CertificationError.__init__": _ERROR + ": a certificate that fails",
    "words._canonical_ep": _WITNESS,
    "words.EventuallyPeriodicWord.__post_init__": _WITNESS,
    "words.EventuallyPeriodicWord.key": _WITNESS,
    "words.EventuallyPeriodicWord.letter": _WITNESS,
    "words.BoundaryWord.key": _WITNESS + " (the boundary-point interface)",
    "words.BoundaryWord.letter": _WITNESS + " (the boundary-point interface)",
    "words.BoundaryWord.prefix": _WITNESS + " (the boundary-point interface)",
    "words.ray_word": _WITNESS + "; also the ray of `SpikeLab.unit_spike`'s record",
    "potentials.d_phi": _TRACER,
    "gibbs.GibbsStream.cylinder_mass_of_stem": _TRACER,
    "spikes.SpikeLab.unit_spike": _TRACER,
    "spikes.SpikeLab.spike_audit": _TRACER,
    "spikes.SpikeLab.tail_integral": _TRACER,
    "cylfun.translate_function": _TRACER,
    "cylfun.translate_rows": _TRACER + " (the rows of `translate_function`)",
    "__init__.__getattr__": "public API: the plane audits as package attributes, on first use",
    "cylfun.CylinderFunction.__add__": "public API: CylinderFunction arithmetic",
    "cylfun.CylinderFunction.__truediv__": "public API: CylinderFunction arithmetic",
    "cylfun.CylinderFunction.__call__": "public API: a boundary function at a boundary point",
    "hyperbolic.H2Geodesic.flip": "public API: the flip of a plane geodesic",
    "potentials.Potential.is_symmetric": "public API: the table's symmetry under the flip",
    "potentials.Potential.oscillation": "public API: the table's oscillation",
    "potentials.Potential.sup_abs": "public API: the table's sup norm",
    "spikes.SpikeRecord.scaled": "public API: a multiple of the record `unit_spike` returns",
    "spikes.SpikeShell.values": "public API: a shell's dense rows",
    "walk.WalkMeasure.load": "public API: the inverse of `WalkMeasure.save`",
    "words.Alphabet.dist": "public API: the word metric",
    "words.Alphabet.letter_name": "public API: a letter's config name",
    "words.Alphabet.parse_word": "public API: a word from its config name",
}


def _defined() -> set[str]:
    """Every function and method defined in the package, as "module.qualname"."""
    out = set()

    def walk(code, module):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    out.add(f"{module}.{const.co_qualname}")
                walk(const, module)

    for path in (SRC / "gibbswalk").glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return out


def test_every_function_is_on_the_run_path_or_listed(tmp_path):
    out = tmp_path / "entered.json"
    proc = subprocess.run([sys.executable, str(TESTS / "run_path_trace.py"), str(out)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    never = _defined() - set(json.loads(out.read_text()))
    missing = sorted(never - NOT_ON_THE_RUN_PATH.keys())
    assert not missing, (f"no run enters {missing}: move each to tests/oracles.py if a "
                         "test reads it, delete it if none does, or list it with its reason")
    stale = sorted(NOT_ON_THE_RUN_PATH.keys() - never)
    assert not stale, f"listed, but entered by a run or gone: {stale}"


def _scalar_entry_points():
    """Each scalar entry point: the module and qualname of the array function
    it is one row of, and one call of it on a small input."""
    from gibbswalk.cylfun import CylinderFunction, translate_function
    from gibbswalk.gibbs import GibbsStream
    from gibbswalk.potentials import Potential, d_phi
    from gibbswalk.spikes import SpikeLab
    from gibbswalk.stems import StemTable
    from gibbswalk.words import Alphabet, ray_word

    ab = Alphabet(2)
    S = GibbsStream(Potential(ab, 2, {w: 0.1 * i for i, w in enumerate(ab.reduced_words(2))}))
    lab, tab, f = SpikeLab(S), StemTable(ab, 3), CylinderFunction.constant(ab, 1.0, 2)
    rec = lab.unit_spike((0, 2))
    return {
        "index_of": ("stems", "StemTable.indices", lambda: tab.index_of((0, 2, 2))),
        "prefix_range": ("stems", "StemTable.indices", lambda: tab.prefix_range((0, 2))),
        "d_phi": ("potentials", "window_sums", lambda: d_phi(S.potential, (0,), (2, 2))),
        "cylinder_mass_of_stem": ("gibbs", "GibbsStream.stem_masses",
                                  lambda: S.cylinder_mass_of_stem((0, 2, 2))),
        "rho_phi_array": ("gibbs", "GibbsStream.rho_phi_rows", lambda: S.rho_phi_array((0,), 3)),
        "CylinderFunction.holder_at": ("cylfun", "holder_rows", lambda: f.holder_at(1.0, 0.5)),
        "unit_spike": ("spikes", "SpikeLab._spike_rows", lambda: lab.unit_spike((0, 2))),
        "spike_audit": ("spikes", "SpikeLab._audit_rows", lambda: lab.spike_audit(rec)),
        "tail_integral": ("spikes", "SpikeLab._tail_grid",
                          lambda: lab.tail_integral(ray_word(ab, (0, 2)), 0.5, 1.0)),
        "translate_function": ("cylfun", "translate_rows", lambda: translate_function(f, (0, 2))),
    }


def test_scalar_entry_points_are_rows(monkeypatch):
    """A scalar entry point is one row of its array path, not a second
    implementation: with the array function wrapped, one call enters it."""
    missed = []
    for name, (module, qualname, call) in _scalar_entry_points().items():
        owner = importlib.import_module(f"gibbswalk.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        entered = []

        def wrapped(*args, _real=getattr(owner, attr), **kwargs):
            entered.append(qualname)
            return _real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, wrapped)
            call()
        if not entered:
            missed.append(f"{name} (not {module}.{qualname})")
    assert not missed, f"scalar entry points that are not rows of their array path: {missed}"
