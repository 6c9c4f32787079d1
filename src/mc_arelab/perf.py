"""Link and area performance: error probabilities, rates, sweeps.

The detection-side inputs (signal mean, per-ring interference means,
noise mean) come from channel.summarize; this module turns them into
error probabilities, mutual information, and area rate efficiency, and
drives parameter sweeps over those numbers. The error probabilities of
the threshold rule are cumulative sums of the exact count distribution,
built from the ring basis without enumerating interference atoms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel import PhysicalParams, ReceiverGeometry, cir, summarize
from .config import SystemConfig, map_workers
from .detection import _check_means, _count_pmfs, _CountDistribution, sinr_worst, suboptimal_threshold
from .errors import ParameterError, is_finite_real, is_integer
from .gridgeom import GridLayout

__all__ = [
    "ErrorPair",
    "PerfReport",
    "SWEEP_AXES",
    "error_curves",
    "error_probs",
    "evaluate",
    "link_rate",
    "optimize_radius",
    "spatial_rate",
    "sweep",
]

SWEEP_AXES = ("cell_pitch", "cell_area", "N_mol", "C_noise", "D")

# Neglected interference beyond the outermost enumerated ring, as a
# fraction of the total modeled mean, above which a report is flagged.
TRUNCATION_WARN_FRACTION = 0.02


@dataclass(frozen=True)
class ErrorPair:
    """False-alarm probability p and miss probability q."""

    p: float
    q: float

    def __post_init__(self) -> None:
        for name in ("p", "q"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ParameterError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class PerfReport:
    """Single-configuration performance summary.

    ``theta_used`` is the threshold the error probabilities were computed
    with; ``theta_opt`` and ``theta_sub`` are both reported regardless of
    which one was used. ``truncation_warning`` flags configurations whose
    interferer list is too short for the pitch.
    """

    theta_used: int
    theta_opt: int
    theta_sub: int
    errors: ErrorPair
    ber: float
    link_rate: float
    spatial_rate: float
    are: float
    sinr_worst: float
    truncation_warning: bool
    cell_pitch: float
    cell_area: float


def _threshold_curves(theta_max: int, off: np.ndarray, on: np.ndarray):
    """(p_curve, q_curve) of the rule [r >= theta] for theta = 0..theta_max.

    ``off`` and ``on`` hold P(r | bit 0) and P(r | bit 1) for at least
    r = 0..theta_max-1; the mass below theta is their running sum.
    """

    def below(pmf: np.ndarray) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(pmf[:theta_max])))

    return np.clip(1.0 - below(off), 0.0, 1.0), np.clip(below(on), 0.0, 1.0)


def error_curves(theta_max: int, mu_s: float, ring_basis, mu_n: float):
    """Error probabilities of the rule [r >= theta] for theta = 0..theta_max.

    Returns (p_curve, q_curve): p_curve[t] = P(r >= t | bit 0) and
    q_curve[t] = P(r < t | bit 1), cumulative sums of the count pmfs of
    the (cbar, count) ring basis.
    """
    if not (is_integer(theta_max) and theta_max >= 0):
        raise ParameterError(f"theta_max must be a nonnegative integer, got {theta_max!r}")
    _check_means(mu_s, mu_n)
    off, on = _count_pmfs(mu_s, ring_basis, mu_n, max(int(theta_max), 1))
    return _threshold_curves(int(theta_max), np.exp(off), np.exp(on))


def error_probs(theta: int, mu_s: float, ring_basis, mu_n: float) -> ErrorPair:
    """Miss and false-alarm probabilities of the threshold detector.

    theta = 0 always decides 1, so (p, q) = (1, 0).
    """
    if not (is_integer(theta) and theta >= 0):
        raise ParameterError(f"theta must be a nonnegative integer, got {theta!r}")
    p_curve, q_curve = error_curves(theta, mu_s, ring_basis, mu_n)
    return ErrorPair(p=float(p_curve[theta]), q=float(q_curve[theta]))


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def link_rate(errors: ErrorPair) -> float:
    """Mutual information of the equiprobable binary channel, bits/use."""
    p, q = errors.p, errors.q
    p_hat_one = 0.5 * (1.0 - q) + 0.5 * p
    rate = _h2(p_hat_one) - 0.5 * (_h2(p) + _h2(q))
    return min(1.0, max(0.0, rate))


def spatial_rate(cell_area: float) -> float:
    """Transmissions per square meter: the reciprocal cell area."""
    if not (is_finite_real(cell_area) and cell_area > 0):
        raise ParameterError(f"cell_area must be positive and finite, got {cell_area!r}")
    return 1.0 / cell_area


def _neglected_tail(
    params: PhysicalParams,
    geom: ReceiverGeometry,
    layout: GridLayout,
    t_m: float,
    gamma_form: str,
) -> float:
    """Estimated mean interference from sites beyond the outermost ring.

    Continuum approximation: site density 1/A_cell outside the enumerated
    region, integrated against the channel response at the decision time
    by the composite Simpson rule on 64 intervals, with one response call
    over all nodes.
    """
    from .gridgeom import cell_area as _cell_area

    r_out = layout.ring_sizes[-1][0]
    a_cell = _cell_area(layout.kind, layout.pitch)
    width = math.sqrt(4.0 * params.D * t_m)
    r_end = r_out + 8.0 * width + 2.0 * params.s_rx
    if r_end <= r_out:
        return 0.0

    nodes = np.linspace(r_out, r_end, 65)
    weights = np.tile([2.0, 4.0], 33)[:65]  # Simpson: 1, 4, 2, 4, ..., 2, 4, 1
    weights[[0, -1]] = 1.0
    response = cir(t_m, nodes, params, geom, gamma_form=gamma_form)
    integrand = params.n_mol * response * 2.0 * math.pi * nodes / a_cell
    return float(np.sum(weights * integrand)) * (nodes[1] - nodes[0]) / 3.0


def evaluate(config: SystemConfig) -> PerfReport:
    """Analytic performance of one configuration at the peak-CIR decision time."""
    params = config.params()
    geom = config.geometry()
    layout = config.layout()
    summary = summarize(
        params,
        geom,
        layout,
        k_max=config.k_max,
        gamma_form=config.gamma_form,
        search_horizon=config.horizon,
    )
    counts = _CountDistribution(summary.mu_s, summary.cbar, summary.mu_n)
    theta_opt = counts.theta_opt()
    sub = suboptimal_threshold(summary.mu_s, summary.cbar_sum, summary.mu_n)
    theta_used = theta_opt if config.threshold_mode == "optimal" else sub.theta

    # either threshold is at most counts.bound + 1, so the pmfs cover it
    p_curve, q_curve = _threshold_curves(theta_used, np.exp(counts.off), np.exp(counts.on))
    errors = ErrorPair(p=float(p_curve[theta_used]), q=float(q_curve[theta_used]))
    ber = 0.5 * (errors.p + errors.q)
    rate = link_rate(errors)
    area = config.cell_area
    srate = spatial_rate(area)

    tail = _neglected_tail(params, geom, layout, summary.t_m, config.gamma_form)
    modeled = summary.mu_s + summary.cbar_sum
    warn = tail > TRUNCATION_WARN_FRACTION * modeled if modeled > 0 else False

    return PerfReport(
        theta_used=theta_used,
        theta_opt=theta_opt,
        theta_sub=sub.theta,
        errors=errors,
        ber=ber,
        link_rate=rate,
        spatial_rate=srate,
        are=rate * srate,
        sinr_worst=sinr_worst(summary.mu_s, summary.cbar_sum),
        truncation_warning=warn,
        cell_pitch=config.pitch,
        cell_area=area,
    )


def _apply_axis(config: SystemConfig, axis: str, value) -> SystemConfig:
    if axis == "cell_pitch":
        return dataclasses.replace(config, c=float(value))
    if axis == "cell_area":
        area = float(value)
        if area <= 0:
            raise ParameterError(f"cell_area must be positive, got {area}")
        # Both grids share A = (sqrt(3)/2) c^2 in terms of the hex pitch.
        return dataclasses.replace(config, c=math.sqrt(2.0 * area / math.sqrt(3.0)))
    if axis == "N_mol":
        n = int(value)
        if n != value:
            raise ParameterError(f"N_mol must be an integer, got {value}")
        return dataclasses.replace(config, n_mol=n)
    if axis == "C_noise":
        return dataclasses.replace(config, c_noise=float(value))
    if axis == "D":
        return dataclasses.replace(config, diff=float(value))
    raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(config: SystemConfig, axis: str, values) -> list[PerfReport]:
    """Evaluate the configuration once per axis value, in input order.

    A failure at any point aborts the whole sweep and names the value
    that caused it. MC_ARELAB_THREADS > 1 evaluates points concurrently;
    the result order and content do not depend on the thread count.
    """
    if axis not in SWEEP_AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ParameterError("sweep requires at least one axis value")

    def run_one(value):
        try:
            return evaluate(_apply_axis(config, axis, value))
        except Exception as exc:
            raise ParameterError(f"sweep failed at {axis} = {value}: {exc}") from exc

    return list(map_workers(run_one, values))


def optimize_radius(config: SystemConfig, w_max: int = 25, step_frac: float = 0.02):
    """Grid search over receiver radii S = step_frac * w * pitch, w = 1..w_max.

    Returns the ARE-maximizing radius and its report; ties keep the
    smaller radius.
    """
    if not (is_integer(w_max) and w_max >= 1):
        raise ParameterError(f"w_max must be a positive integer, got {w_max!r}")
    if not (is_finite_real(step_frac) and step_frac > 0):
        raise ParameterError(f"step_frac must be positive and finite, got {step_frac!r}")
    best_radius = None
    best_report = None
    for w in range(1, w_max + 1):
        radius = step_frac * w * config.pitch
        report = evaluate(dataclasses.replace(config, s_rx=radius))
        if best_report is None or report.are > best_report.are:
            best_radius, best_report = radius, report
    return best_radius, best_report
