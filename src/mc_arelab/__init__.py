"""Area rate efficiency of interfering diffusive molecular links on cellular grids.

The package models a plane of synchronized point transmitters arranged on a
hexagonal or square grid, each paired with a transparent cylindrical counting
receiver on an opposite plane, with molecule transport by diffusion and
uniform flow. It provides the analytic channel response, maximum-likelihood
and threshold detection under inter-user interference, error probability,
link rate and area rate efficiency evaluation, plus Monte Carlo and
particle-based cross-validation, all behind one configuration type and a
CSV-emitting command line.
"""

from .channel import (
    GAMMA_FORMS,
    ChannelSummary,
    PhysicalParams,
    ReceiverGeometry,
    cir,
    cir_uca,
    peak_time,
    summarize,
)
from .config import (
    SystemConfig,
    dump_config,
    load_config,
    parse_config_text,
    worker_count,
)
from .detection import (
    DetectorSpec,
    IuiSpectrum,
    SuboptimalThreshold,
    characterize,
    collapse_iui,
    ml_decide,
    optimal_threshold,
    sinr_worst,
    suboptimal_threshold,
    threshold_set,
)
from .errors import ConfigError, ParameterError, SearchError
from .gridgeom import (
    GridKind,
    GridLayout,
    TxSite,
    cell_area,
    enumerate_sites,
    hex_distance,
    square_side_for_equal_area,
    to_cartesian,
)
from .montecarlo import McResult
from .pbs import CirTrace, PbsConfig, simulate_cir
from .perf import (
    SWEEP_AXES,
    ErrorPair,
    PerfReport,
    error_curves,
    error_probs,
    evaluate,
    link_rate,
    optimize_radius,
    spatial_rate,
    sweep,
)
from .specfun import (
    erf,
    log_sum_exp,
    regularized_gamma_p,
    regularized_gamma_q,
)

__version__ = "0.1.0"

__all__ = [
    "GAMMA_FORMS",
    "SWEEP_AXES",
    "ChannelSummary",
    "CirTrace",
    "ConfigError",
    "DetectorSpec",
    "ErrorPair",
    "GridKind",
    "GridLayout",
    "IuiSpectrum",
    "McResult",
    "ParameterError",
    "PbsConfig",
    "PerfReport",
    "PhysicalParams",
    "ReceiverGeometry",
    "SearchError",
    "SuboptimalThreshold",
    "SystemConfig",
    "TxSite",
    "cell_area",
    "characterize",
    "cir",
    "cir_uca",
    "collapse_iui",
    "dump_config",
    "enumerate_sites",
    "erf",
    "error_curves",
    "error_probs",
    "evaluate",
    "hex_distance",
    "link_rate",
    "load_config",
    "log_sum_exp",
    "ml_decide",
    "optimal_threshold",
    "optimize_radius",
    "parse_config_text",
    "peak_time",
    "simulate_cir",
    "sinr_worst",
    "spatial_rate",
    "square_side_for_equal_area",
    "suboptimal_threshold",
    "summarize",
    "sweep",
    "threshold_set",
    "to_cartesian",
    "worker_count",
]
