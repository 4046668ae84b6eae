"""Walks on free groups with a prescribed harmonic measure on the tree boundary."""

__version__ = "0.1.0"

from .words import (
    Alphabet,
    BoundaryWord,
    Cylinder,
    EventuallyPeriodicWord,
    GeodesicSpec,
    RandomReducedWord,
    busemann,
    gromov_product,
    quasimetric_pi,
    ray_word,
    sh_distance,
    shadow_cylinder,
    translate_boundary,
)
from .potentials import (
    HolderCertificate,
    Potential,
    comparison_bounds,
    d_phi,
    d_phi_ray,
    flip_and_sym,
    geodesic_average_audit,
    holder_certificate,
    rho_phi,
)
from .gibbs import (
    GibbsStream,
    critical_exponent,
    hausdorff_stream,
    normalize,
    rn_holder_audit,
    shadow_integral_audit,
    shadow_lemma_audit,
)
from .cylfun import CylinderFunction
from .spikes import DecayCert, SpikeLab, SpikeRecord, SpikeShell, g_kernel
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
    simulate_hitting,
    stationarity_error,
    walk_statistics,
)

# the plane audits are imported on first use: only validate-h2 reads them
_HYPERBOLIC = ("comparison_audit", "h2_distance", "holder_chain_audit", "sh_distance_numeric")


def __getattr__(name):
    if name in _HYPERBOLIC:
        from . import hyperbolic

        return getattr(hyperbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
