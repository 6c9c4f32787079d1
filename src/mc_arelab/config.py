"""One configuration type for every entry point, plus its flat-file format.

A SystemConfig pins the grid, the physics, the detector flavor, and the
simulation sizes. The file format is flat ``key = value`` text with the
dataclass field names as keys; the CLI writes the resolved configuration
into every CSV header, and reading that block back reproduces the run.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .channel import GAMMA_FORMS, PhysicalParams, ReceiverGeometry
from .errors import ConfigError, is_finite_real, is_integer
from .gridgeom import GridKind, GridLayout, cell_area, enumerate_sites, square_side_for_equal_area

__all__ = ["SystemConfig", "dump_config", "load_config", "parse_config_text", "worker_count"]

GRID_NAMES = {"hex": GridKind.HEXAGONAL, "square": GridKind.SQUARE}
THRESHOLD_MODES = ("optimal", "suboptimal")
MC_MODES = ("stochastic", "semi-analytic")


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one system under study.

    ``c`` is the hexagonal cell-center distance; for the square grid the
    pitch is derived from it so that cell areas match, which keeps sweeps
    over ``c`` area-fair across grids. ``s_rx = None`` means the touching
    radius (half the pitch).
    """

    grid: str = "hex"
    c: float = 0.2
    d: float = 0.5
    v: float = 0.2
    diff: float = 0.01
    s_rx: float | None = None
    l_rx: float = 0.2
    n_mol: int = 100
    c_noise: float = 0.0
    n_interferers: int | None = None
    k_max: int = 20
    gamma_form: str = "lower"
    threshold_mode: str = "optimal"
    horizon: float = 15.0
    mc_samples: int = 500_000
    mc_theta_max: int = 100
    mc_mode: str = "stochastic"
    pbs_dt: float = 1e-3
    pbs_t_sim: float = 15.0
    pbs_realizations: int = 3000
    pbs_particles: int = 100
    pbs_record_every: int = 10
    seed: int = 1

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value, kind = getattr(self, field.name), field.type
            if kind != "str" and not (value is None and kind.endswith("| None")):
                if not (is_integer(value) if kind.startswith("int") else is_finite_real(value)):
                    raise ConfigError(field.name, f"must be a finite {kind.split()[0]}, got {value!r}")
        if self.grid not in GRID_NAMES:
            raise ConfigError("grid", f"must be one of {sorted(GRID_NAMES)}, got {self.grid!r}")
        for key in ("c", "d", "diff", "l_rx", "horizon", "pbs_dt", "pbs_t_sim"):
            if not getattr(self, key) > 0:
                raise ConfigError(key, f"must be positive, got {getattr(self, key)}")
        if self.v < 0:
            raise ConfigError("v", f"must be nonnegative, got {self.v}")
        if self.s_rx is not None and not self.s_rx > 0:
            raise ConfigError("s_rx", f"must be positive or omitted, got {self.s_rx}")
        if self.c_noise < 0:
            raise ConfigError("c_noise", f"must be nonnegative, got {self.c_noise}")
        for key in ("n_mol", "mc_samples", "mc_theta_max", "pbs_realizations", "pbs_particles", "pbs_record_every"):
            if not getattr(self, key) >= 1:
                raise ConfigError(key, f"must be >= 1, got {getattr(self, key)}")
        if self.n_interferers is not None and self.n_interferers < 1:
            raise ConfigError("n_interferers", f"must be >= 1 or omitted, got {self.n_interferers}")
        for key in ("k_max", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(key, f"must be nonnegative, got {getattr(self, key)}")
        if self.gamma_form not in GAMMA_FORMS:
            raise ConfigError("gamma_form", f"must be one of {GAMMA_FORMS}, got {self.gamma_form!r}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError("threshold_mode", f"must be one of {THRESHOLD_MODES}, got {self.threshold_mode!r}")
        if self.mc_mode not in MC_MODES:
            raise ConfigError("mc_mode", f"must be one of {MC_MODES}, got {self.mc_mode!r}")
        if not self.pbs_dt < self.pbs_t_sim:
            raise ConfigError("pbs_dt", f"must be smaller than pbs_t_sim, got {self.pbs_dt} >= {self.pbs_t_sim}")

    @property
    def kind(self) -> GridKind:
        return GRID_NAMES[self.grid]

    @property
    def pitch(self) -> float:
        if self.kind is GridKind.HEXAGONAL:
            return self.c
        return square_side_for_equal_area(self.c)

    @property
    def s_rx_effective(self) -> float:
        if self.s_rx is not None:
            return self.s_rx
        return 0.5 * self.pitch

    @property
    def interferer_count(self) -> int:
        if self.n_interferers is not None:
            return self.n_interferers
        return 36 if self.kind is GridKind.HEXAGONAL else 24

    @property
    def cell_area(self) -> float:
        return cell_area(self.kind, self.pitch)

    def params(self) -> PhysicalParams:
        return PhysicalParams(
            D=self.diff,
            v=self.v,
            d=self.d,
            s_rx=self.s_rx_effective,
            l_rx=self.l_rx,
            n_mol=self.n_mol,
            c_noise=self.c_noise,
        )

    def geometry(self) -> ReceiverGeometry:
        return ReceiverGeometry.centered(self.params())

    def layout(self) -> GridLayout:
        return enumerate_sites(self.kind, self.pitch, self.interferer_count)


def _coerce(key: str, raw: str, field_type: str):
    raw = raw.strip()
    if field_type in ("float | None", "int | None") and raw.lower() in ("", "none"):
        return None
    try:
        if field_type.startswith("int"):
            value = int(raw)
        elif field_type.startswith("float"):
            value = float(raw)
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {raw!r} as {field_type}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {raw!r}")
    return value


def parse_config_text(text: str, base: SystemConfig | None = None) -> SystemConfig:
    """Build a configuration from flat ``key = value`` text.

    Unknown keys are rejected by name. ``base`` supplies the starting
    values; fields absent from the text keep them.
    """
    parser = configparser.ConfigParser(interpolation=None)
    stripped = text.lstrip()
    if not stripped.startswith("["):
        text = "[config]\n" + text
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", f"unparseable configuration text: {exc}") from exc

    fields = {f.name: f for f in dataclasses.fields(SystemConfig)}
    updates = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in fields:
                raise ConfigError(key, "unknown configuration key")
            updates[key] = _coerce(key, raw, str(fields[key].type))
    if base is None:
        base = SystemConfig()
    return dataclasses.replace(base, **updates)


def load_config(path: str, base: SystemConfig | None = None) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def worker_count() -> int:
    """Worker cap from MC_ARELAB_THREADS; unset means serial execution."""
    raw = os.environ.get("MC_ARELAB_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError("MC_ARELAB_THREADS", f"must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError("MC_ARELAB_THREADS", f"must be >= 1, got {n}")
    return n


def map_workers(fn, items, workers: int) -> Iterator:
    """Yield fn(item) for each item, in input order, on up to ``workers`` threads (see worker_count)."""
    if workers == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def dump_config(config: SystemConfig) -> str:
    """Flat text form; parsing it back reproduces the configuration exactly."""
    out = io.StringIO()
    for field in dataclasses.fields(SystemConfig):
        value = getattr(config, field.name)
        if value is None:
            rendered = "none"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        out.write(f"{field.name} = {rendered}\n")
    return out.getvalue()
