"""Output checks for the benchmark's CLI jobs.

Checks test invariants and independent cross-checks, never digests, so a
change that corrects the numerics (and moves them) still passes:

- p, q in [0, 1], BER = (p + q)/2, ARE = link rate x spatial rate, and the
  link rate equals the binary mutual information of (p, q);
- error probabilities and the optimal threshold agree with the received
  count distribution computed here from scratch: the count is a Poisson
  noise term plus, per interferer, a half-half mix of "no count" and
  Poisson(ring mean), plus Poisson(mu_s) when the bit is 1. The analytic
  BER at theta_opt must be no worse than at theta +/- 1;
- the zero-offset response equals its closed form, and the response never
  grows with the lateral offset;
- the Monte Carlo BER at the optimal threshold lies within 5 sigma of the
  analytic BER (false-alarm rate below 6e-7 per check);
- the particle trace agrees with the analytic response at every record
  time under a Chernoff bound with a Bonferroni correction, whose
  false-alarm rate is at most 1e-6 per trace.

The per-ring means that feed the count distribution come from the
program's ``summarize`` at the configuration the CSV header records.
"""

from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np

from mc_arelab import SystemConfig, cir, parse_config_text, summarize

MC_SIGMAS = 5.0
PBS_FALSE_ALARM = 1e-6
HEX_AREA = math.sqrt(3.0) / 2.0  # cell area over pitch^2; the square grid matches it


class CheckError(Exception):
    """An output violates an invariant or a cross-check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def read_csv(path: str):
    """Resolved config, header and rows (by section tag) of one CLI artifact."""
    config, sections, header = {}, {None: []}, None
    tag = None
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                body = line[2:].rstrip("\n")
                if header is not None:
                    tag = body
                    sections.setdefault(tag, [])
                elif "=" in body:
                    key, value = body.split("=", 1)
                    config[key.strip()] = value.strip()
                continue
            row = next(csv.reader([line]))
            if header is None:
                header = row
            else:
                sections[tag].append(dict(zip(header, row)))
    text = "".join(f"{key} = {value}\n" for key, value in config.items())
    return parse_config_text(text), header, sections


def _summary(cfg: SystemConfig):
    return summarize(
        cfg.params(),
        cfg.geometry(),
        cfg.layout(),
        k_max=cfg.k_max,
        gamma_form=cfg.gamma_form,
        search_horizon=cfg.horizon,
    )


def _poisson(lam: float, n: int) -> np.ndarray:
    if lam == 0.0:
        out = np.zeros(n)
        out[0] = 1.0
        return out
    r = np.arange(n)
    lgam = np.array([math.lgamma(k + 1.0) for k in range(n)])
    return np.exp(r * math.log(lam) - lam - lgam)


def count_pmfs(summary, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P(r | bit 0) and P(r | bit 1) for r = 0..n-1."""
    off = _poisson(summary.mu_n, n)
    for cbar, count in summary.cbar:
        binom = np.array([math.comb(count, k) for k in range(count + 1)]) / 2.0**count
        ring = sum(w * _poisson(k * cbar, n) for k, w in enumerate(binom))
        off = np.convolve(off, ring)[:n]
    on = np.convolve(off, _poisson(summary.mu_s, n))[:n]
    return off, on


def error_curves(summary, theta_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) of the rule [r >= theta] for theta = 0..theta_max."""
    off, on = count_pmfs(summary, theta_max + 1)
    below_off = np.concatenate(([0.0], np.cumsum(off)))[: theta_max + 1]
    below_on = np.concatenate(([0.0], np.cumsum(on)))[: theta_max + 1]
    return np.clip(1.0 - below_off, 0.0, 1.0), np.clip(below_on, 0.0, 1.0)


def ml_threshold(summary, limit: int = 4000) -> int:
    """Smallest count at which P(r | 1) >= P(r | 0)."""
    off, on = count_pmfs(summary, limit)
    flips = np.nonzero(on >= off)[0]
    _require(flips.size > 0, f"no likelihood flip below {limit}")
    return int(flips[0])


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _check_threshold_opt(summary, theta: int) -> None:
    off, on = count_pmfs(summary, theta + 2)
    # BER(theta + 1) - BER(theta) = (on[theta] - off[theta]) / 2, and
    # BER(theta - 1) - BER(theta) = (off[theta - 1] - on[theta - 1]) / 2
    _require(on[theta] >= off[theta] * (1.0 - 1e-9), f"BER at theta_opt+1 beats theta_opt={theta}")
    if theta >= 1:
        _require(
            off[theta - 1] >= on[theta - 1] * (1.0 - 1e-9),
            f"BER at theta_opt-1 beats theta_opt={theta}",
        )


def _check_ber(p: float, q: float, ber: float) -> None:
    _require(0.0 <= p <= 1.0 and 0.0 <= q <= 1.0, f"p={p}, q={q} outside [0, 1]")
    _require(_close(ber, 0.5 * (p + q), 1e-12, 1e-300), f"ber={ber} != (p+q)/2")


def _check_theta_sub(summary, theta_sub: int) -> None:
    cbar_sum = math.fsum(c * n for c, n in summary.cbar)
    denom = 0.5 * cbar_sum + summary.mu_n
    expected = 1 if denom == 0.0 else math.ceil(summary.mu_s / math.log1p(summary.mu_s / denom))
    _require(theta_sub == expected, f"theta_sub={theta_sub}, closed form gives {expected}")


def _check_report_row(cfg: SystemConfig, row: dict, area: float) -> None:
    p, q, ber = float(row["p"]), float(row["q"]), float(row["ber"])
    _check_ber(p, q, ber)
    rate, srate, are = (float(row[k]) for k in ("link_rate_bits", "spatial_rate_per_m2", "are_bits_per_m2"))
    _require(_close(are, rate * srate, 1e-12, 1e-300), f"are={are} != link rate x spatial rate")
    _require(_close(srate, 1.0 / area, 1e-9), f"spatial rate {srate} != 1/area for area {area}")
    p_one = 0.5 * (1.0 - q) + 0.5 * p
    expected_rate = min(1.0, max(0.0, _h2(p_one) - 0.5 * (_h2(p) + _h2(q))))
    _require(_close(rate, expected_rate, 1e-9, 1e-12), f"link rate {rate} != I(p, q) {expected_rate}")

    summary = _summary(cfg)
    theta_opt = int(row["theta_opt"])
    _check_threshold_opt(summary, theta_opt)
    _check_theta_sub(summary, int(row["theta_sub"]))
    if cfg.threshold_mode == "optimal":
        p_ref, q_ref = error_curves(summary, theta_opt)
        _require(abs(p - p_ref[theta_opt]) <= 1e-9, f"p={p} vs count distribution {p_ref[theta_opt]}")
        _require(abs(q - q_ref[theta_opt]) <= 1e-9, f"q={q} vs count distribution {q_ref[theta_opt]}")


def check_grid_compare(path: str, argv: list) -> None:
    cfg, _, sections = read_csv(path)
    rows = sections[None]
    grids = {row["grid"] for row in rows}
    _require(grids == {"hex", "square"}, f"grids {sorted(grids)}")
    for row in rows:
        area = float(row["axis_value"])
        c = math.sqrt(area / HEX_AREA)
        _check_report_row(dataclasses.replace(cfg, grid=row["grid"], c=c), row, area)


def check_are_sweep(path: str, argv: list) -> None:
    cfg, _, sections = read_csv(path)
    _require(len(sections[None]) >= 2, "sweep has fewer than two points")
    for row in sections[None]:
        c = float(row["axis_value"])
        _check_report_row(dataclasses.replace(cfg, c=c), row, HEX_AREA * c * c)


def check_optimize_radius(path: str, argv: list) -> None:
    cfg, _, sections = read_csv(path)
    (row,) = sections[None]
    s_opt = float(row["s_opt_m"])
    _require(s_opt > 0, f"s_opt={s_opt}")
    _check_report_row(dataclasses.replace(cfg, s_rx=s_opt), row, HEX_AREA * cfg.c * cfg.c)


def check_detect(path: str, argv: list) -> None:
    cfg, _, sections = read_csv(path)
    (row,) = sections[None]
    summary = _summary(cfg)
    cbar_sum = math.fsum(c * n for c, n in summary.cbar)
    for key, ref in (("mu_s", summary.mu_s), ("cbar_sum", cbar_sum), ("mu_n", summary.mu_n)):
        _require(_close(float(row[key]), ref, 1e-12, 1e-300), f"{key}={row[key]} vs summary {ref}")
    _check_threshold_opt(summary, int(row["theta_opt"]))
    _check_theta_sub(summary, int(row["theta_sub"]))
    _require(int(row["threshold_set_size"]) >= 1, "empty threshold set")
    if cbar_sum > 0:
        sinr = float(row["sinr_worst"])
        _require(_close(sinr, summary.mu_s / cbar_sum, 1e-12), f"sinr_worst={sinr}")


def check_ber_sweep(path: str, argv: list) -> None:
    cfg, _, sections = read_csv(path)
    rows = sections[None]
    theta_max = len(rows) - 1
    _require(theta_max == cfg.mc_theta_max, f"{len(rows)} rows for theta_max={cfg.mc_theta_max}")
    p_ref, q_ref = error_curves(_summary(cfg), theta_max)
    prev_p, prev_q = 1.0, 0.0
    for theta, row in enumerate(rows):
        _require(int(row["theta"]) == theta, f"row {theta} has theta={row['theta']}")
        p, q = float(row["p"]), float(row["q"])
        _check_ber(p, q, float(row["ber"]))
        _require(p <= prev_p and q >= prev_q, f"p or q not monotone at theta={theta}")
        _require(abs(p - p_ref[theta]) <= 1e-9, f"p={p} vs count distribution {p_ref[theta]} at {theta}")
        _require(abs(q - q_ref[theta]) <= 1e-9, f"q={q} vs count distribution {q_ref[theta]} at {theta}")
        prev_p, prev_q = p, q


def _zero_offset_cir(t: float, cfg: SystemConfig) -> float:
    params, geom = cfg.params(), cfg.geometry()
    root = math.sqrt(4.0 * params.D * t)
    axial = 0.5 * (math.erf((params.v * t - geom.z_s) / root) - math.erf((params.v * t - geom.z_e) / root))
    sigma = params.s_rx * params.s_rx / (root * root)
    return min(1.0, max(0.0, axial * -math.expm1(-sigma)))


def check_cir(path: str, argv: list) -> None:
    cfg, header, sections = read_csv(path)
    rows = sections[None]
    step = cfg.pbs_dt * cfg.pbs_record_every
    sites = [int(name.removeprefix("cir_tx")) for name in header[1:]]
    layout = cfg.layout()
    order = sorted(range(len(sites)), key=lambda j: layout.sites[sites[j]].radial_distance)
    _require(len(rows) == int(math.floor(cfg.horizon / step + 1e-9)), f"{len(rows)} record rows")
    for k, row in enumerate(rows, start=1):
        t = float(row["t_s"])
        _require(_close(t, step * k, 1e-12), f"record {k} at t={t}")
        values = [float(row[name]) for name in header[1:]]
        _require(all(0.0 <= v <= 1.0 for v in values), f"response outside [0, 1] at t={t}")
        for j in range(1, len(order)):
            near, far = values[order[j - 1]], values[order[j]]
            _require(far <= near * (1.0 + 1e-12), f"response grows with offset at t={t}")
        if 0 in sites:
            v0 = values[sites.index(0)]
            ref = _zero_offset_cir(t, cfg)
            _require(_close(v0, ref, 1e-9, 1e-15), f"cir_tx0={v0} vs closed form {ref} at t={t}")


def check_mc_validate(path: str, argv: list) -> None:
    cfg, _, sections = read_csv(path)
    rows = sections[None]
    (best,) = sections["best"]
    bers = [float(row["ber_hat"]) for row in rows]
    for row in rows:
        for key in ("ber_hat", "p_hat", "q_hat"):
            _require(0.0 <= float(row[key]) <= 1.0, f"{key}={row[key]} outside [0, 1]")
        _require(float(row["stderr"]) >= 0.0, "negative stderr")
    _require(float(best["ber_hat"]) == min(bers), "best row is not the smallest BER")
    _require(int(best["theta"]) == int(rows[bers.index(min(bers))]["theta"]), "best theta")

    summary = _summary(cfg)
    theta = ml_threshold(summary)
    _require(theta <= cfg.mc_theta_max, f"theta_opt={theta} beyond the sampled range")
    p_ref, q_ref = error_curves(summary, theta)
    ber_ref = 0.5 * (p_ref[theta] + q_ref[theta])
    sigma = math.sqrt(ber_ref * (1.0 - ber_ref) / cfg.mc_samples)
    ber_hat = bers[theta]
    _require(
        abs(ber_hat - ber_ref) <= MC_SIGMAS * sigma,
        f"MC BER {ber_hat} at theta_opt={theta} is {abs(ber_hat - ber_ref) / sigma:.1f} sigma "
        f"from the analytic {ber_ref}",
    )


def _kl(a: float, c: float) -> float:
    """Bernoulli relative entropy D(a || c) in nats."""
    total = 0.0
    for x, y in ((a, c), (1.0 - a, 1.0 - c)):
        if x > 0.0:
            if y <= 0.0:
                return math.inf
            total += x * math.log(x / y)
    return total


def check_pbs_validate(path: str, argv: list) -> None:
    """Every particle is independent, so the in-receiver count at each record
    time is Binomial(N, cir(t)), N = realizations x particles. A point fails
    when N * D(observed || cir) exceeds ln(2 n / alpha): by the Chernoff bound
    each point fails with probability at most alpha / n when cir is exact."""
    cfg, _, sections = read_csv(path)
    rows = sections[None]
    tx_index = int(argv[argv.index("--tx-index") + 1]) if "--tx-index" in argv else 0
    params, geom = cfg.params(), cfg.geometry()
    r_i = cfg.layout().sites[tx_index].radial_distance
    n_total = cfg.pbs_realizations * cfg.pbs_particles
    limit = math.log(2.0 * len(rows) / PBS_FALSE_ALARM)
    for row in rows:
        t, frac = float(row["t_s"]), float(row["cir_hat"])
        _require(0.0 <= frac <= 1.0 and float(row["stderr"]) >= 0.0, f"trace entry at t={t}")
        expected = cir(t, r_i, params, geom, k_max=cfg.k_max, gamma_form=cfg.gamma_form)
        score = n_total * _kl(round(frac * n_total) / n_total, expected)
        _require(
            score <= limit,
            f"particle fraction {frac} vs cir {expected} at t={t}: score {score:.1f} > {limit:.1f}",
        )


CHECKS = {
    "grid-compare": check_grid_compare,
    "are-sweep": check_are_sweep,
    "optimize-radius": check_optimize_radius,
    "detect": check_detect,
    "ber-sweep": check_ber_sweep,
    "cir": check_cir,
    "mc-validate": check_mc_validate,
    "pbs-validate": check_pbs_validate,
}
