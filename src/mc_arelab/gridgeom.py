"""Transmitter site enumeration on hexagonal and square cellular grids.

Site positions live on an integer lattice, so squared distances in units
of the pitch are integers and distance-equivalence classes (rings) can be
formed exactly, with no floating-point tolerance. The desired transmitter
sits at the origin; interferers are the nearest lattice sites around it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ParameterError, is_finite_real, is_integer

__all__ = [
    "GridKind",
    "GridLayout",
    "TxSite",
    "cell_area",
    "enumerate_sites",
    "hex_distance",
    "square_side_for_equal_area",
    "to_cartesian",
]


class GridKind(enum.Enum):
    """Cell shape of the grid; exactly two layouts are supported."""

    HEXAGONAL = "hexagonal"
    SQUARE = "square"


@dataclass(frozen=True)
class TxSite:
    """One transmitter site; index 0 is the desired transmitter."""

    index: int
    radial_distance: float
    ring: int
    lattice_coords: tuple[int, int]


@dataclass(frozen=True)
class GridLayout:
    """Immutable enumeration of the desired transmitter plus its interferers.

    ``ring_sizes`` lists (distance, count) per distance-equivalence class in
    increasing distance order; counts sum to the number of interferers.
    """

    kind: GridKind
    pitch: float
    sites: tuple[TxSite, ...]
    ring_sizes: tuple[tuple[float, int], ...]

    @property
    def n_interferers(self) -> int:
        return len(self.sites) - 1

    def interferers(self) -> Iterator[TxSite]:
        return iter(self.sites[1:])


def _check_kind(kind: GridKind) -> None:
    if not isinstance(kind, GridKind):
        raise ParameterError(f"kind must be a GridKind, got {kind!r}")


def _check_pitch(pitch: float) -> None:
    if not (is_finite_real(pitch) and pitch > 0):
        raise ParameterError(f"pitch must be positive and finite, got {pitch!r}")


def hex_distance(xp: int, yp: int, c: float) -> float:
    """Euclidean distance of hex offset coordinates (x', y') from the origin."""
    _check_pitch(c)
    return c * math.sqrt(xp * xp + yp * yp + xp * yp)


def square_side_for_equal_area(c: float) -> float:
    """Side length b of a square cell with the same area as a hex cell of pitch c."""
    _check_pitch(c)
    return c * math.sqrt(math.sqrt(3.0) / 2.0)


def cell_area(kind: GridKind, pitch: float) -> float:
    """Area of one cell: (sqrt(3)/2) pitch^2 for hex cells, pitch^2 for square."""
    _check_kind(kind)
    _check_pitch(pitch)
    if kind is GridKind.HEXAGONAL:
        return (math.sqrt(3.0) / 2.0) * pitch * pitch
    return pitch * pitch


def to_cartesian(kind: GridKind, pitch: float, coords: tuple[int, int]) -> tuple[float, float]:
    """Cartesian position of a lattice coordinate pair.

    Hex offset coordinates map through x = c (sqrt(3)/2) x', y = c (y' + x'/2);
    square coordinates scale directly by the pitch.
    """
    _check_kind(kind)
    _check_pitch(pitch)
    if not (len(coords) == 2 and all(is_integer(value) for value in coords)):
        raise ParameterError(f"coords must be a pair of integers, got {coords!r}")
    return _cartesian(kind, pitch, *coords)


def _cartesian(kind: GridKind, pitch: float, xp: int, yp: int) -> tuple[float, float]:
    if kind is GridKind.HEXAGONAL:
        return pitch * (math.sqrt(3.0) / 2.0) * xp, pitch * (yp + 0.5 * xp)
    return pitch * xp, pitch * yp


def _squared_norm(kind: GridKind, xp: int, yp: int) -> int:
    if kind is GridKind.HEXAGONAL:
        return xp * xp + yp * yp + xp * yp
    return xp * xp + yp * yp


def enumerate_sites(kind: GridKind, pitch: float, n_interferers: int) -> GridLayout:
    """Enumerate the desired transmitter and its nearest interferer sites.

    Sites are sorted by (distance, polar angle counterclockwise from +x).
    If the requested count would split a distance-equivalence class, the
    class is completed, so the layout may hold slightly more interferers
    than requested; classes are never truncated. The classes depend on the
    pitch only through their scale, so the lattice is scanned once per
    (kind, count), at unit pitch, and each call scales the distances.
    """
    _check_kind(kind)
    _check_pitch(pitch)
    if not (is_integer(n_interferers) and n_interferers >= 1):
        raise ParameterError(f"n_interferers must be a positive integer, got {n_interferers!r}")

    sites = [TxSite(index=0, radial_distance=0.0, ring=0, lattice_coords=(0, 0))]
    ring_sizes: list[tuple[float, int]] = []
    for ring, (q, members) in enumerate(_distance_classes(kind, int(n_interferers)), start=1):
        dist = pitch * math.sqrt(q)
        ring_sizes.append((dist, len(members)))
        for coords in members:
            sites.append(TxSite(index=len(sites), radial_distance=dist, ring=ring, lattice_coords=coords))
    return GridLayout(kind=kind, pitch=pitch, sites=tuple(sites), ring_sizes=tuple(ring_sizes))


@functools.lru_cache(maxsize=64)
def _distance_classes(kind: GridKind, n_interferers: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The nearest distance classes (q, members by angle) holding n_interferers sites, at unit pitch."""
    # generous first guess from the site density, grown if a rescan is needed
    radius = math.sqrt((n_interferers + 1) * cell_area(kind, 1.0) / math.pi) * 1.3 + 3.0
    while True:
        q_max = radius**2
        half_width = math.ceil(1.5 * radius) + 2
        by_class: dict[int, list[tuple[float, int, int]]] = {}
        total = 0
        for xp in range(-half_width, half_width + 1):
            for yp in range(-half_width, half_width + 1):
                if xp == 0 and yp == 0:
                    continue
                q = _squared_norm(kind, xp, yp)
                if q > q_max:
                    continue
                x, y = _cartesian(kind, 1.0, xp, yp)
                angle = math.atan2(y, x) % (2.0 * math.pi)
                by_class.setdefault(q, []).append((angle, xp, yp))
                total += 1
        if total >= n_interferers:
            break
        radius *= 1.6

    classes = []
    count = 0
    for q in sorted(by_class):
        members = tuple((xp, yp) for _, xp, yp in sorted(by_class[q]))
        classes.append((q, members))
        count += len(members)
        if count >= n_interferers:
            break
    return tuple(classes)
