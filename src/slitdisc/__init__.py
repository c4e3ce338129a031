"""slitdisc: capacity, Wiener-type criteria, and Bergman geometry for
slit-disc domains.

The package studies the family D^{r,t} (unit disc minus a radial stack of
tiny arcs accumulating at the origin): closed-form and oracle logarithmic
capacities, the gamma^(n) boundary criterion with its analytic shell
decomposition, a Bergman kernel/metric engine on validation domains, and the
quasi-conformal radial stretch that transports completeness across the
parameter plane.
"""

try:
    from importlib.metadata import PackageNotFoundError, version

    __version__ = version("slitdisc")
except PackageNotFoundError:  # pragma: no cover - source tree without install
    __version__ = "0.0.0+uninstalled"

from .bergman import (
    BasisSpec,
    KernelEngine,
    KernelEstimate,
    QuadratureConfig,
    gram_matrix,
    kernel_at,
    laurent,
    metric_path_length,
    monomials,
)
from .capacity import (
    DiscreteMeasure,
    EnergyValue,
    EquilibriumError,
    FeketeResult,
    LogCapacity,
    arc_log_capacity,
    disc_log_capacity,
    equilibrium_energy,
    fekete_log_capacity,
    fekete_points,
    log_capacity,
    point_log_capacity,
    segment_log_capacity,
    union_log_capacity,
)
from .geometry import (
    ArcObstacle,
    CompactSet,
    DiscObstacle,
    DomainSpec,
    ParamRT,
    PointObstacle,
    SegmentObstacle,
    Shell,
    annulus,
    arc,
    build_domain,
    circle,
    descriptor_contains,
    first_shell_index,
    make_arc,
    punctured_disc,
    shell,
    trapped_obstacles,
    unit_disc,
)
from .numerics import GuardedComparison, le_guarded, parse_number, pow_maybe_exact
from .qcmap import (
    BeltramiData,
    CounterexampleChain,
    QCParams,
    apply,
    beltrami,
    counterexample_chain,
    feasibility_interval,
    qc_constant,
    transport_params,
)
from .wiener import (
    Classification,
    GammaQuadrature,
    GammaReport,
    ThresholdReport,
    Verdict,
    classify_domain,
    divergence_ratio,
    gamma_at_origin,
    gamma_numeric,
    log_g,
    log_tail_g,
    shell_term_log_bounds,
    threshold_report,
)

__all__ = [
    "ArcObstacle",
    "BasisSpec",
    "BeltramiData",
    "Classification",
    "CompactSet",
    "CounterexampleChain",
    "DiscObstacle",
    "DiscreteMeasure",
    "DomainSpec",
    "EnergyValue",
    "EquilibriumError",
    "FeketeResult",
    "GammaQuadrature",
    "GammaReport",
    "GuardedComparison",
    "KernelEngine",
    "KernelEstimate",
    "LogCapacity",
    "ParamRT",
    "PointObstacle",
    "QCParams",
    "QuadratureConfig",
    "SegmentObstacle",
    "Shell",
    "ThresholdReport",
    "Verdict",
    "annulus",
    "apply",
    "arc",
    "arc_log_capacity",
    "beltrami",
    "build_domain",
    "circle",
    "classify_domain",
    "counterexample_chain",
    "descriptor_contains",
    "disc_log_capacity",
    "divergence_ratio",
    "equilibrium_energy",
    "feasibility_interval",
    "fekete_log_capacity",
    "fekete_points",
    "first_shell_index",
    "gamma_at_origin",
    "gamma_numeric",
    "gram_matrix",
    "kernel_at",
    "laurent",
    "le_guarded",
    "log_capacity",
    "log_g",
    "log_tail_g",
    "make_arc",
    "metric_path_length",
    "monomials",
    "parse_number",
    "point_log_capacity",
    "pow_maybe_exact",
    "punctured_disc",
    "qc_constant",
    "segment_log_capacity",
    "shell",
    "shell_term_log_bounds",
    "threshold_report",
    "trapped_obstacles",
    "transport_params",
    "union_log_capacity",
    "unit_disc",
]
