"""Command line front-end emitting deterministic CSV artifacts.

Every subcommand resolves one configuration (defaults, then an optional
key = value file, then flags), prints it as ``#``-prefixed comment lines,
and writes one CSV table. Output contains no timestamps, so a rerun with
the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel import cir, summarize
from .config import SystemConfig, dump_config, load_config, parse_config_text
from .detection import characterize
from .errors import MAX_ELEMENTS, ParameterError, SearchError, check_elements
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
    ("--kmax", "k_max", "kept for older configurations; sets no value: each series stops at its certified window"),
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

# rows per formatting call of a table
_BLOCK = 256


class Table(NamedTuple):
    """A table section: columns of equal length, each a 1-D array or a sequence of one cell type.

    ``_write_table`` writes it a block of rows at a time, each cell as the
    str of its Python scalar. A Python float's str is its repr, so these are
    the bytes ``csv.writer`` gives the same rows; no cell holds a comma, a
    quote or a line break, so none is quoted.
    """

    columns: tuple


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
    steps = span / step + 1e-9
    # past the largest float64 array NumPy can index, or an infinite ratio
    if not steps < MAX_ELEMENTS:
        raise ParameterError(f"{name} = {span} holds more record steps of {step} s than an array can index")
    n_rec = math.floor(steps)
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
    check_elements(points, f"--points = {points}")
    return [float(v) for v in np.geomspace(lo, hi, points)]


def cmd_grid(cfg: SystemConfig, args) -> tuple:
    layout = cfg.layout()
    rows = [
        (site.index, site.ring, *to_cartesian(layout.kind, layout.pitch, site.lattice_coords), site.radial_distance)
        for site in layout.sites
    ]
    return ("index", "ring", "x_m", "y_m", "distance_m"), [(None, Table(tuple(zip(*rows))))]


def cmd_cir(cfg: SystemConfig, args) -> tuple:
    indices = args.tx_index if args.tx_index else [0, 1]
    layout = cfg.layout()
    for index in indices:
        _check_site_index(index, len(layout.sites))
    params, geom = cfg.params(), cfg.geometry()
    times = _record_times(cfg, cfg.horizon, "horizon")
    distances = np.array([layout.sites[i].radial_distance for i in indices])
    # one cir column object per distinct distance: the sites of a ring share
    # it, so it is computed and formatted once, and each element of cir is
    # computed on its own, so the bytes do not change
    distinct, column = np.unique(distances, return_inverse=True)
    values = cir(times[:, None], distinct, params, geom, k_max=cfg.k_max, gamma_form=cfg.gamma_form)
    traces = list(values.T)
    columns = ["t_s"] + [f"cir_tx{i}" for i in indices]
    return tuple(columns), [(None, Table((times, *(traces[j] for j in column))))]


def cmd_detect(cfg: SystemConfig, args) -> tuple:
    summary = _summary(cfg)
    spec = characterize(summary.mu_s, summary.cbar, summary.mu_n)
    cells = (
        ("t_m_s", summary.t_m),
        ("mu_s", summary.mu_s),
        ("cbar_sum", spec.cbar_sum),
        ("mu_n", summary.mu_n),
        ("theta_opt", spec.theta_opt),
        ("theta_sub", spec.theta_sub),
        ("threshold_set_size", spec.threshold_set_size),
        ("sinr_worst", spec.sinr_worst),
    )
    return tuple(name for name, _ in cells), [(None, Table(tuple((value,) for _, value in cells)))]


def cmd_ber_sweep(cfg: SystemConfig, args) -> tuple:
    summary = _summary(cfg)
    p_curve, q_curve = error_curves(cfg.mc_theta_max, summary.mu_s, summary.cbar, summary.mu_n)
    table = Table((np.arange(cfg.mc_theta_max + 1), p_curve, q_curve, 0.5 * (p_curve + q_curve)))
    return ("theta", "p", "q", "ber"), [(None, table)]


def cmd_are_sweep(cfg: SystemConfig, args) -> tuple:
    values = _geometric_axis("--c", args.c_from, args.c_to, args.points)
    reports = sweep(cfg, "cell_pitch", values)
    rows = [[v] + _report_cells(r) for v, r in zip(values, reports)]
    return SWEEP_COLUMNS, [(None, Table(tuple(zip(*rows))))]


def cmd_grid_compare(cfg: SystemConfig, args) -> tuple:
    values = _geometric_axis("--area", args.area_from, args.area_to, args.points)
    rows = []
    for grid in ("hex", "square"):
        reports = sweep(dataclasses.replace(cfg, grid=grid), "cell_area", values)
        rows += [[grid, v] + _report_cells(r) for v, r in zip(values, reports)]
    return ("grid",) + SWEEP_COLUMNS, [(None, Table(tuple(zip(*rows))))]


def cmd_mc_validate(cfg: SystemConfig, args) -> tuple:
    summary = _summary(cfg)
    result = mc_run(
        summary,
        samples=cfg.mc_samples,
        theta_max=cfg.mc_theta_max,
        seed=cfg.seed,
        mode=cfg.mc_mode,
    )
    curves = (np.arange(result.ber.size), result.ber, result.stderr, result.p_hat, result.q_hat)
    best = tuple(column[result.best : result.best + 1] for column in curves)
    return ("theta", "ber_hat", "stderr", "p_hat", "q_hat"), [(None, Table(curves)), ("best", Table(best))]


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
    table = Table((trace.times, trace.mean_fraction, trace.stderr))
    return ("t_s", "cir_hat", "stderr"), [(None, table)]


def cmd_optimize_radius(cfg: SystemConfig, args) -> tuple:
    s_opt, report = optimize_radius(cfg, w_max=args.w_max, step_frac=args.step_frac)
    columns = ("s_opt_m",) + SWEEP_COLUMNS[1:]
    return columns, [(None, Table(tuple(zip([s_opt] + _report_cells(report)))))]


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, built once and shared as a parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", metavar="PATH", help="key = value file; flags override it")
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")
    for flag, field, text in CONFIG_FLAGS:
        parser.add_argument(flag, dest=field, metavar="V", help=text)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mc-arelab",
        description="Grid-interference molecular link analysis, CSV in and out.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"mc-arelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    def add(name: str, handler, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, allow_abbrev=False, parents=[common])
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


def _write_table(stream, table: Table) -> None:
    """Write a table as CSV rows, one formatting call per block of _BLOCK rows.

    A column object that the table holds more than once, such as the cir
    trace that the sites of one ring share, is formatted once per block:
    its cells become strs, which %s copies as they are, in each of its
    positions. Every other cell goes to %s as a Python scalar.
    """
    # each distinct column object, as an array, with its number of positions
    distinct = {}
    for column in table.columns:
        distinct.setdefault(id(column), [np.asarray(column), 0])[1] += 1
    slot = {key: i for i, key in enumerate(distinct)}
    sources = [slot[id(column)] for column in table.columns]
    width = len(sources)
    line = ",".join(["%s"] * width) + "\n"
    for start in range(0, len(table.columns[0]), _BLOCK):
        parts = []
        for column, uses in distinct.values():
            part = column[start : start + _BLOCK].tolist()
            parts.append(list(map(str, part)) if uses > 1 else part)
        # interleaved row by row
        cells = [None] * (width * len(parts[0]))
        for j, source in enumerate(sources):
            cells[j::width] = parts[source]
        stream.write(line * len(parts[0]) % tuple(cells))


def _emit(args, cfg: SystemConfig, columns: tuple, sections: list) -> None:
    """Write the version, seed and configuration as comment lines, the header, then each tagged Table."""
    stream = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        stream.write(f"# mc-arelab {__version__}\n")
        stream.write(f"# seed = {cfg.seed}\n")
        for line in dump_config(cfg).splitlines():
            stream.write(f"# {line}\n")
        stream.write(",".join(columns) + "\n")
        for tag, table in sections:
            if tag is not None:
                stream.write(f"# {tag}\n")
            _write_table(stream, table)
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
        # a reader that has closed the pipe fails here, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # stop quietly; the flush at interpreter exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParameterError, SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
