"""Link and area performance: error probabilities, rates, sweeps.

The detection-side inputs (signal mean, per-ring interference means,
noise mean, and the tail estimate behind the truncation warning) come
from channel.summarize; this module turns them into error probabilities,
mutual information, and area rate efficiency, and drives parameter
sweeps over those numbers. The error probabilities of the threshold
rule are cumulative sums of the exact count distribution, built once
per configuration by detection._CountDistribution from the ring basis,
without enumerating interference atoms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .channel import _BLOCK, ReceiverGeometry, _summaries
from .config import SystemConfig, map_workers
from .detection import _CountDistribution
from .errors import ParameterError, check_elements, is_finite_real, is_integer

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

SWEEP_AXES = ("cell_pitch", "cell_area", "s_rx")

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


def error_curves(theta_max: int, mu_s: float, ring_basis, mu_n: float):
    """Error probabilities of the rule [r >= theta] for theta = 0..theta_max.

    Returns (p_curve, q_curve): p_curve[t] = P(r >= t | bit 0) and
    q_curve[t] = P(r < t | bit 1), cumulative sums of the count pmfs of
    the (cbar, count) ring basis, built no further than the law's support
    (see _CountDistribution), so the cost past it is linear in theta_max.
    """
    if not (is_integer(theta_max) and theta_max >= 0):
        raise ParameterError(f"theta_max must be a nonnegative integer, got {theta_max!r}")
    check_elements(int(theta_max) + 1, f"theta_max = {theta_max!r}")
    return _CountDistribution(mu_s, ring_basis, mu_n, int(theta_max)).curves(int(theta_max))


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


def _link(config: SystemConfig) -> tuple:
    """The (params, geometry, layout) link of a configuration, its geometry built from its params."""
    params = config.params()
    return params, ReceiverGeometry.centered(params), config.layout()


def _channel(config: SystemConfig, links: list) -> list:
    """The channel summary of each link, from one batched channel pass (channel._summaries).

    The links are points of ``config`` along a sweep axis, which changes
    neither the series settings nor the horizon.
    """
    return _summaries(links, k_max=config.k_max, gamma_form=config.gamma_form, search_horizon=config.horizon)


def _report(config: SystemConfig, summary) -> PerfReport:
    """The performance report of one configuration, from its channel summary."""
    counts = _CountDistribution(summary.mu_s, summary.cbar, summary.mu_n)
    spec = counts.spec()
    theta_used = spec.theta_opt if config.threshold_mode == "optimal" else spec.theta_sub

    # either threshold is at most counts.bound + 1, so the pmfs cover it
    p_curve, q_curve = counts.curves(theta_used)
    errors = ErrorPair(p=float(p_curve[theta_used]), q=float(q_curve[theta_used]))
    ber = 0.5 * (errors.p + errors.q)
    rate = link_rate(errors)
    area = config.cell_area
    srate = spatial_rate(area)

    modeled = summary.mu_s + spec.cbar_sum
    warn = bool(summary.tail_mean > TRUNCATION_WARN_FRACTION * modeled) if modeled > 0 else False

    return PerfReport(
        theta_used=theta_used,
        theta_opt=spec.theta_opt,
        theta_sub=spec.theta_sub,
        errors=errors,
        ber=ber,
        link_rate=rate,
        spatial_rate=srate,
        are=rate * srate,
        sinr_worst=spec.sinr_worst,
        truncation_warning=warn,
        cell_pitch=config.pitch,
        cell_area=area,
    )


def evaluate(config: SystemConfig) -> PerfReport:
    """Analytic performance of one configuration at the peak-CIR decision time.

    The one-point case of sweep: the channel summary comes from a batched
    channel pass of one link, and the report from its count distribution.
    """
    return _report(config, _channel(config, [_link(config)])[0])


def _apply_axis(config: SystemConfig, axis: str, value) -> SystemConfig:
    if axis == "cell_pitch":
        return dataclasses.replace(config, c=float(value))
    if axis == "cell_area":
        area = float(value)
        if area <= 0:
            raise ParameterError(f"cell_area must be positive, got {area}")
        # Both grids share A = (sqrt(3)/2) c^2 in terms of the hex pitch.
        return dataclasses.replace(config, c=math.sqrt(2.0 * area / math.sqrt(3.0)))
    if axis == "s_rx":
        return dataclasses.replace(config, s_rx=float(value))
    raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def _points(config: SystemConfig, axis: str, values: list):
    """(value, configuration, channel summary) of each axis value in order, up to the first failure.

    The summaries come a block of _BLOCK points at a time from one batched
    channel pass. A point that fails yields the exception it raised in
    place of its configuration or summary, and ends the points: a block
    whose pass fails is redone one point at a time, to find the first
    failing point and its own error.
    """
    for start in range(0, len(values), _BLOCK):
        block, configs, links, failure = values[start : start + _BLOCK], [], [], None
        for value in block:
            try:
                point = _apply_axis(config, axis, value)
                links.append(_link(point))
            except Exception as exc:
                failure = exc
                break
            configs.append(point)
        summaries = []
        if configs:
            try:
                summaries = _channel(config, links)
            except Exception:
                for link in links:
                    try:
                        summaries += _channel(config, [link])
                    except Exception as exc:
                        failure = exc
                        break
        yield from zip(block, configs, summaries)
        if failure is not None:
            yield block[len(summaries)], None, failure
            return


def sweep(config: SystemConfig, axis: str, values) -> list[PerfReport]:
    """Evaluate the configuration once per axis value, in input order.

    Each report equals evaluate() at its point: the channel summaries come
    from one batched channel pass per block of points (_points), and each
    point's count distribution and report follow from its summary. A
    failure at any point aborts the whole sweep and names the first value,
    in input order, whose evaluation fails, with that point's own error.
    MC_ARELAB_THREADS > 1 builds the points' count distributions and
    reports concurrently; the result order and content do not depend on
    the thread count.
    """
    if axis not in SWEEP_AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ParameterError("sweep requires at least one axis value")

    def run_one(point):
        value, point_config, summary = point
        try:
            if isinstance(summary, Exception):
                raise summary
            return _report(point_config, summary)
        except Exception as exc:
            raise ParameterError(f"sweep failed at {axis} = {value}: {exc}") from exc

    return list(map_workers(run_one, _points(config, axis, values)))


def optimize_radius(config: SystemConfig, w_max: int = 25, step_frac: float = 0.02):
    """Grid search over receiver radii S = step_frac * w * pitch, w = 1..w_max.

    The radii are one sweep along s_rx. Returns the ARE-maximizing radius
    and its report; ties keep the smaller radius.
    """
    if not (is_integer(w_max) and w_max >= 1):
        raise ParameterError(f"w_max must be a positive integer, got {w_max!r}")
    if not (is_finite_real(step_frac) and step_frac > 0):
        raise ParameterError(f"step_frac must be positive and finite, got {step_frac!r}")
    check_elements(w_max, f"w_max = {w_max!r}")
    radii = [step_frac * w * config.pitch for w in range(1, w_max + 1)]
    # max keeps the first of equal keys, so ties keep the smaller radius
    return max(zip(radii, sweep(config, "s_rx", radii)), key=lambda pair: pair[1].are)
