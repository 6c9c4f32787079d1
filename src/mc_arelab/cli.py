"""Command line front-end emitting deterministic CSV artifacts.

Every subcommand resolves one configuration (defaults, then an optional
key = value file, then flags), prints it as ``#``-prefixed comment lines,
and writes one CSV table. Output contains no timestamps, so a rerun with
the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .channel import cir, summarize
from .config import SystemConfig, dump_config, load_config, parse_config_text
from .detection import characterize
from .errors import ParameterError, SearchError
from .gridgeom import to_cartesian
from .montecarlo import run as mc_run
from .pbs import PbsConfig, simulate_cir
from .perf import error_curves, evaluate, optimize_radius, sweep

# flag name, config field, help text (units are SI, stated per key)
CONFIG_FLAGS = (
    ("--grid", "grid", "lattice kind: hex or square"),
    ("--c", "c", "cell center spacing in m"),
    ("--d", "d", "axial TX to RX-center distance in m"),
    ("--v", "v", "flow speed along the axis in m/s"),
    ("--diff", "diff", "diffusion coefficient in m^2/s"),
    ("--s-rx", "s_rx", "receiver cylinder radius in m (default: half the pitch)"),
    ("--l-rx", "l_rx", "receiver cylinder length in m"),
    ("--nmol", "n_mol", "molecules released per 1-bit"),
    ("--noise", "c_noise", "background molecule concentration in 1/m^3"),
    ("--interferers", "n_interferers", "interferer count (default: 36 hex, 24 square)"),
    ("--kmax", "k_max", "minimum radial series order"),
    ("--gamma-form", "gamma_form", "radial weight form: lower or regularized"),
    ("--threshold-mode", "threshold_mode", "detector: optimal or suboptimal"),
    ("--horizon", "horizon", "peak search horizon in s"),
    ("--samples", "mc_samples", "Monte Carlo sample count"),
    ("--theta-max", "mc_theta_max", "largest threshold evaluated"),
    ("--mode", "mc_mode", "Monte Carlo mode: stochastic or semi-analytic"),
    ("--dt", "pbs_dt", "record grid unit in s; cir and pbs-validate report every dt * record-every"),
    ("--t-sim", "pbs_t_sim", "particle simulation span in s"),
    ("--realizations", "pbs_realizations", "particle ensemble size"),
    ("--particles", "pbs_particles", "molecules per realization"),
    ("--record-every", "pbs_record_every", "record step in units of dt"),
    ("--seed", "seed", "random number generator seed"),
)

SWEEP_COLUMNS = (
    "axis_value",
    "theta_opt",
    "theta_sub",
    "p",
    "q",
    "ber",
    "link_rate_bits",
    "spatial_rate_per_m2",
    "are_bits_per_m2",
    "sinr_worst",
    "truncation_warning",
)


def _report_cells(report) -> list:
    return [
        report.theta_opt,
        report.theta_sub,
        report.errors.p,
        report.errors.q,
        report.ber,
        report.link_rate,
        report.spatial_rate,
        report.are,
        report.sinr_worst,
        str(report.truncation_warning).lower(),
    ]


def _summary(cfg: SystemConfig):
    return summarize(
        cfg.params(),
        cfg.geometry(),
        cfg.layout(),
        k_max=cfg.k_max,
        gamma_form=cfg.gamma_form,
        search_horizon=cfg.horizon,
    )


def _check_site_index(index: int, n_sites: int) -> None:
    if not 0 <= index < n_sites:
        raise ParameterError(f"tx-index must lie in 0..{n_sites - 1}, got {index}")


def _record_times(cfg: SystemConfig, span: float, name: str) -> np.ndarray:
    """Multiples of the record step pbs_dt * pbs_record_every up to ``span``."""
    step = cfg.pbs_dt * cfg.pbs_record_every
    n_rec = int(math.floor(span / step + 1e-9))
    if n_rec < 1:
        raise ParameterError(f"{name} = {span} is shorter than one record step of {step} s")
    return step * np.arange(1, n_rec + 1)


def _geometric_axis(flag: str, lo: float, hi: float, points: int | None) -> list[float]:
    for end, value in (("from", lo), ("to", hi)):
        if not math.isfinite(value):
            raise ParameterError(f"{flag}-{end} must be finite, got {value}")
    if not lo > 0 or not hi > lo:
        raise ParameterError(f"need 0 < {flag}-from < {flag}-to, got {lo} and {hi}")
    if points is None:
        # default density: 60 points per decade
        points = max(2, round(60 * math.log10(hi / lo)) + 1)
    if points < 2:
        raise ParameterError(f"points must be >= 2, got {points}")
    return [float(v) for v in np.geomspace(lo, hi, points)]


def cmd_grid(cfg: SystemConfig, args) -> tuple:
    layout = cfg.layout()
    rows = []
    for site in layout.sites:
        x, y = to_cartesian(layout.kind, layout.pitch, site.lattice_coords)
        rows.append([site.index, site.ring, x, y, site.radial_distance])
    return ("index", "ring", "x_m", "y_m", "distance_m"), [(None, rows)]


def cmd_cir(cfg: SystemConfig, args) -> tuple:
    indices = args.tx_index if args.tx_index else [0, 1]
    layout = cfg.layout()
    for index in indices:
        _check_site_index(index, len(layout.sites))
    params, geom = cfg.params(), cfg.geometry()
    times = _record_times(cfg, cfg.horizon, "horizon")
    distances = np.array([layout.sites[i].radial_distance for i in indices])
    values = cir(times[:, None], distances, params, geom, k_max=cfg.k_max, gamma_form=cfg.gamma_form)
    rows = np.column_stack([times, values]).tolist()
    columns = ["t_s"] + [f"cir_tx{i}" for i in indices]
    return tuple(columns), [(None, rows)]


def cmd_detect(cfg: SystemConfig, args) -> tuple:
    summary = _summary(cfg)
    spec = characterize(summary.mu_s, summary.cbar, summary.mu_n)
    columns = (
        "t_m_s",
        "mu_s",
        "cbar_sum",
        "mu_n",
        "theta_opt",
        "theta_sub",
        "threshold_set_size",
        "sinr_worst",
    )
    row = [
        summary.t_m,
        summary.mu_s,
        spec.cbar_sum,
        summary.mu_n,
        spec.theta_opt,
        spec.theta_sub,
        spec.threshold_set_size,
        spec.sinr_worst,
    ]
    return columns, [(None, [row])]


def cmd_ber_sweep(cfg: SystemConfig, args) -> tuple:
    summary = _summary(cfg)
    p_curve, q_curve = error_curves(cfg.mc_theta_max, summary.mu_s, summary.cbar, summary.mu_n)
    rows = [
        [theta, float(p_curve[theta]), float(q_curve[theta]), 0.5 * float(p_curve[theta] + q_curve[theta])]
        for theta in range(cfg.mc_theta_max + 1)
    ]
    return ("theta", "p", "q", "ber"), [(None, rows)]


def cmd_are_sweep(cfg: SystemConfig, args) -> tuple:
    values = _geometric_axis("--c", args.c_from, args.c_to, args.points)
    reports = sweep(cfg, "cell_pitch", values)
    rows = [[v] + _report_cells(r) for v, r in zip(values, reports)]
    return SWEEP_COLUMNS, [(None, rows)]


def cmd_grid_compare(cfg: SystemConfig, args) -> tuple:
    values = _geometric_axis("--area", args.area_from, args.area_to, args.points)
    rows = []
    for grid in ("hex", "square"):
        reports = sweep(dataclasses.replace(cfg, grid=grid), "cell_area", values)
        rows += [[grid, v] + _report_cells(r) for v, r in zip(values, reports)]
    return ("grid",) + SWEEP_COLUMNS, [(None, rows)]


def cmd_mc_validate(cfg: SystemConfig, args) -> tuple:
    summary = _summary(cfg)
    result = mc_run(
        summary,
        samples=cfg.mc_samples,
        theta_max=cfg.mc_theta_max,
        seed=cfg.seed,
        mode=cfg.mc_mode,
    )
    columns = ("theta", "ber_hat", "stderr", "p_hat", "q_hat")
    return columns, [(None, result.per_threshold_ber), ("best", [result.best])]


def cmd_pbs_validate(cfg: SystemConfig, args) -> tuple:
    layout = cfg.layout()
    _check_site_index(args.tx_index, len(layout.sites))
    offset = to_cartesian(layout.kind, layout.pitch, layout.sites[args.tx_index].lattice_coords)
    pcfg = PbsConfig(
        times=tuple(_record_times(cfg, cfg.pbs_t_sim, "t_sim").tolist()),
        realizations=cfg.pbs_realizations,
        particles=cfg.pbs_particles,
        seed=cfg.seed,
    )
    trace = simulate_cir(cfg.params(), cfg.geometry(), offset, pcfg)
    rows = [list(row) for row in zip(trace.times, trace.mean_fraction, trace.stderr)]
    return ("t_s", "cir_hat", "stderr"), [(None, rows)]


def cmd_optimize_radius(cfg: SystemConfig, args) -> tuple:
    s_opt, report = optimize_radius(cfg, w_max=args.w_max, step_frac=args.step_frac)
    columns = ("s_opt_m",) + SWEEP_COLUMNS[1:]
    return columns, [(None, [[s_opt] + _report_cells(report)])]


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value file; flags override it")
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")
    for flag, field, text in CONFIG_FLAGS:
        parser.add_argument(flag, dest=field, metavar="V", help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mc-arelab",
        description="Grid-interference molecular link analysis, CSV in and out.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"mc-arelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        _add_common_flags(p)
        p.set_defaults(handler=handler)
        return p

    add("grid", cmd_grid, "transmitter site table for the configured layout")

    p = add("cir", cmd_cir, "analytic response traces for selected sites")
    p.add_argument(
        "--tx-index",
        dest="tx_index",
        type=int,
        action="append",
        metavar="I",
        help="site index column to include; repeatable (default: 0 and 1)",
    )

    add("detect", cmd_detect, "channel summary and detector thresholds")
    add("ber-sweep", cmd_ber_sweep, "error probabilities for every threshold")

    p = add("are-sweep", cmd_are_sweep, "area rate efficiency over cell spacing")
    p.add_argument("--c-from", dest="c_from", type=float, default=0.1, metavar="M")
    p.add_argument("--c-to", dest="c_to", type=float, default=1.0, metavar="M")
    p.add_argument("--points", type=int, metavar="N", help="grid size (default: 60 per decade)")

    p = add("grid-compare", cmd_grid_compare, "hex versus square at equal cell areas")
    p.add_argument("--area-from", dest="area_from", type=float, default=0.01, metavar="M2")
    p.add_argument("--area-to", dest="area_to", type=float, default=1.0, metavar="M2")
    p.add_argument("--points", type=int, metavar="N", help="grid size (default: 60 per decade)")

    add("mc-validate", cmd_mc_validate, "sampled error rates for every threshold")

    p = add("pbs-validate", cmd_pbs_validate, "particle ensemble response trace")
    p.add_argument("--tx-index", dest="tx_index", type=int, default=0, metavar="I")

    p = add("optimize-radius", cmd_optimize_radius, "best receiver radius for the cell")
    p.add_argument("--w-max", dest="w_max", type=int, default=25, metavar="N")
    p.add_argument("--step-frac", dest="step_frac", type=float, default=0.02, metavar="F")

    return parser


def _resolve_config(args) -> SystemConfig:
    cfg = SystemConfig()
    if args.config is not None:
        cfg = load_config(args.config, base=cfg)
    overrides = [
        f"{field} = {getattr(args, field)}"
        for _, field, _ in CONFIG_FLAGS
        if getattr(args, field) is not None
    ]
    if overrides:
        cfg = parse_config_text("\n".join(overrides) + "\n", base=cfg)
    return cfg


def _emit(args, cfg: SystemConfig, columns: tuple, sections: list) -> None:
    stream = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        stream.write(f"# mc-arelab {__version__}\n")
        stream.write(f"# seed = {cfg.seed}\n")
        for line in dump_config(cfg).splitlines():
            stream.write(f"# {line}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for tag, rows in sections:
            if tag is not None:
                stream.write(f"# {tag}\n")
            writer.writerows(rows)
    finally:
        if args.out is not None:
            stream.close()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        columns, sections = args.handler(cfg, args)
        _emit(args, cfg, columns, sections)
    except (ParameterError, SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
