"""Walks on free groups with a prescribed harmonic measure on the tree boundary."""

__version__ = "0.1.0"

from .words import Alphabet, BoundaryWord, EventuallyPeriodicWord, ray_word
from .potentials import Potential, d_phi
from .gibbs import (
    GibbsStream,
    critical_exponent,
    hausdorff_stream,
    rn_holder_audit,
    shadow_integral_audit,
    shadow_lemma_audit,
)
from .cylfun import CylinderFunction
from .spikes import DecayCert, SpikeLab, SpikeRecord, SpikeShell
from .decompose import (
    DecomposerConfig,
    Decomposition,
    StageTrace,
    decompose,
    moment_sum,
    subfunction_step,
)
from .walk import (
    WalkMeasure,
    assemble_walk,
    harmonic_measure,
    simulate_hitting,
    stationarity_error,
    walk_statistics,
)

# the plane audits are imported on first use: only validate-h2 reads them
_HYPERBOLIC = ("comparison_audit", "h2_distance", "holder_chain_audit")


def __getattr__(name):
    if name in _HYPERBOLIC:
        from . import hyperbolic

        return getattr(hyperbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
