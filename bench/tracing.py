"""Pass-through spans and counters around the public functions of each layer.

Only the traced benchmark run installs them, in a worker process that runs a
single op, so nothing is ever uninstalled.  Each wrapper replaces a name where
its caller looks it up: a module attribute (``gibbswalk.cli.run_walk``,
``gibbswalk.spikes.translate_function``) or a class attribute
(``SpikeLab.decay_audit``), so the program's own code is unchanged.

Spans wrap coarse calls: name, start, end and parent are kept in memory and
written out once the op has finished.  Span times are the process's CPU time,
like the op time the benchmark reports.  Hot functions get counters only, so
the tracing overhead stays small.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (per-layer metric, span name, "total" or "self")
SPAN_METRICS = (
    ("cli.pressure_s", "cli.run_pressure", "total"),
    ("cli.gibbs_s", "cli.run_gibbs", "total"),
    ("cli.audit_spikes_s", "cli.run_spikes", "total"),
    ("cli.decompose_s", "cli.run_decompose", "total"),
    ("cli.walk_s", "cli.run_walk", "total"),
    ("spikes.decay_audit_s", "spikes.decay_audit", "total"),
    ("spikes.unit_spike_s", "spikes.unit_spike", "self"),
    ("spikes.spike_audit_s", "spikes.spike_audit", "total"),
    ("cylfun.translate_s", "cylfun.translate_function", "total"),
    ("gibbs.stream_build_s", "gibbs.GibbsStream", "total"),
    ("gibbs.rho_phi_array_s", "gibbs.rho_phi_array", "total"),
    ("decompose.self_s", "decompose.decompose", "self"),
    ("decompose.subfunction_step_s", "decompose.subfunction_step", "total"),
    ("walk.stationarity_s", "walk.convolved_density_masses", "total"),
    ("walk.hitting_s", "walk.simulate_hitting", "total"),
)

COUNTERS = (
    "spikes.decay_audit_calls",
    "spikes.tail_integral_calls",
    "spikes.spikes_built",
    "spikes.spike_cells",
    "cylfun.translate_calls",
    "cylfun.translate_stems",
    "stems.tables_built",
    "gibbs.streams_built",
    "gibbs.mass_array_calls",
    "gibbs.cylinder_mass_lookups",
    "gibbs.max_array_bytes",
    "potentials.d_phi_calls",
    "decompose.stages",
    "decompose.entries",
    "walk.conv_terms",
)


class Tracer:
    """Spans (name, start, end, parent) and named counters of one op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) records counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.process_time(), None, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.process_time()
                self.stack.pop()
            if after is not None:
                after(self.counts, args, out)
            return out

        return wrapper

    def counter(self, fn, after):
        """Wrap a hot function with counters only: after(counts, args, result)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(self.counts, args, out)
            return out

        return wrapper

    def span_times(self) -> tuple[dict, dict]:
        """Total and self time per span name; self excludes direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def layer_metrics(self) -> dict[str, float]:
        total, own = self.span_times()
        out = {metric: (total if kind == "total" else own).get(span, 0.0)
               for metric, span, kind in SPAN_METRICS}
        out.update({name: self.counts.get(name, 0.0) for name in COUNTERS})
        paths = self.counts.get("walk.hitting_paths", 0.0)
        hit_s = out["walk.hitting_s"]
        out["walk.hitting_paths_per_s"] = paths / hit_s if hit_s else 0.0
        out["walk.hitting_failed_ratio"] = (self.counts.get("walk.hitting_failures", 0.0) / paths
                                            if paths else 0.0)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans],
                       "counts": dict(self.counts)}, fh)


def _add(counts, name, value=1):
    counts[name] += value


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the gibbswalk layers, before the op runs."""
    import gibbswalk.cli as cli
    import gibbswalk.potentials as potentials
    import gibbswalk.spikes as spikes
    import gibbswalk.walk as walk
    from gibbswalk.gibbs import GibbsStream
    from gibbswalk.spikes import SpikeLab
    from gibbswalk.stems import StemTable

    gibbs = sys.modules["gibbswalk.gibbs"]
    # the package re-exports the function under the submodule's own name
    decompose_mod = sys.modules["gibbswalk.decompose"]
    span, counter = tracer.span, tracer.counter

    for stage in ("pressure", "gibbs", "spikes", "decompose", "walk"):
        name = f"run_{stage}"
        setattr(cli, name, span(f"cli.{name}", getattr(cli, name)))

    def hitting(counts, args, rep):
        _add(counts, "walk.hitting_paths", rep.n_paths)
        _add(counts, "walk.hitting_failures", rep.failures)

    cli.simulate_hitting = span("walk.simulate_hitting", cli.simulate_hitting, hitting)

    def conv_terms(counts, args, out):
        _add(counts, "walk.conv_terms", len(args[0].masses) * out.size)

    walk.convolved_density_masses = span("walk.convolved_density_masses",
                                         walk.convolved_density_masses, conv_terms)

    SpikeLab.decay_audit = span("spikes.decay_audit", SpikeLab.decay_audit,
                                lambda c, a, o: _add(c, "spikes.decay_audit_calls"))
    SpikeLab.tail_integral = counter(SpikeLab.tail_integral,
                                     lambda c, a, o: _add(c, "spikes.tail_integral_calls"))

    def spike_built(counts, args, rec):
        _add(counts, "spikes.spikes_built")
        _add(counts, "spikes.spike_cells", rec.h.values.size)

    SpikeLab.unit_spike = span("spikes.unit_spike", SpikeLab.unit_spike, spike_built)
    SpikeLab.spike_audit = span("spikes.spike_audit", SpikeLab.spike_audit)

    def translated(counts, args, f):
        _add(counts, "cylfun.translate_calls")
        _add(counts, "cylfun.translate_stems", f.values.size)

    spikes.translate_function = span("cylfun.translate_function",
                                     spikes.translate_function, translated)

    StemTable.__init__ = counter(StemTable.__init__,
                                 lambda c, a, o: _add(c, "stems.tables_built"))

    GibbsStream.__init__ = span("gibbs.GibbsStream", GibbsStream.__init__,
                                lambda c, a, o: _add(c, "gibbs.streams_built"))

    def mass_array(counts, args, arr):
        _add(counts, "gibbs.mass_array_calls")
        counts["gibbs.max_array_bytes"] = max(counts["gibbs.max_array_bytes"], arr.nbytes)

    GibbsStream.mass_array = counter(GibbsStream.mass_array, mass_array)
    GibbsStream.cylinder_mass_of_stem = counter(
        GibbsStream.cylinder_mass_of_stem,
        lambda c, a, o: _add(c, "gibbs.cylinder_mass_lookups"))
    GibbsStream.rho_phi_array = span("gibbs.rho_phi_array", GibbsStream.rho_phi_array)

    def d_phi_call(counts, args, out):
        _add(counts, "potentials.d_phi_calls")

    for mod in (gibbs, potentials):
        mod.d_phi = counter(mod.d_phi, d_phi_call)

    def decomposed(counts, args, dec):
        _add(counts, "decompose.stages", len(dec.stages))
        _add(counts, "decompose.entries", len(dec.entries))

    for mod in (cli, decompose_mod):
        mod.decompose = span("decompose.decompose", mod.decompose, decomposed)
    decompose_mod.subfunction_step = span("decompose.subfunction_step",
                                          decompose_mod.subfunction_step)
