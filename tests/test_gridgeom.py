import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc_arelab.config import SystemConfig
from mc_arelab.errors import ParameterError
from mc_arelab.gridgeom import (
    GridKind,
    cell_area,
    enumerate_sites,
    hex_distance,
    square_side_for_equal_area,
    to_cartesian,
)


def lattice_shell(xp: int, yp: int) -> int:
    """Hex lattice ring number of an offset coordinate pair."""
    return (abs(xp) + abs(yp) + abs(xp + yp)) // 2


class TestHexDistance:
    def test_origin(self):
        assert hex_distance(0, 0, 0.2) == 0.0

    def test_adjacent_cell(self):
        assert hex_distance(1, 0, 0.2) == pytest.approx(0.2, rel=1e-15)

    def test_against_cartesian_oracle(self):
        # convert through the Cartesian map and take the Euclidean norm
        x, y = to_cartesian(GridKind.HEXAGONAL, 0.2, (1, -2))
        assert hex_distance(1, -2, 0.2) == pytest.approx(math.hypot(x, y), rel=1e-14)
        assert hex_distance(1, -2, 0.2) == pytest.approx(0.2 * math.sqrt(3.0), rel=1e-12)

    def test_consistency_brute_force(self):
        for xp in range(-10, 11):
            for yp in range(-10, 11):
                x, y = to_cartesian(GridKind.HEXAGONAL, 0.37, (xp, yp))
                assert hex_distance(xp, yp, 0.37) == pytest.approx(math.hypot(x, y), abs=1e-12)

    def test_rejects_bad_pitch(self):
        for pitch in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="pitch"):
                hex_distance(1, 0, pitch)


class TestAreas:
    def test_equal_area_side(self):
        assert square_side_for_equal_area(0.2) == pytest.approx(0.18612097, abs=1e-8)
        assert square_side_for_equal_area(1.0) == pytest.approx(0.9306049, abs=1e-7)

    def test_defining_identity(self):
        for c in (0.05, 0.2, 1.0, 3.7):
            b = square_side_for_equal_area(c)
            assert b * b / (c * c) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_hex_area(self):
        assert cell_area(GridKind.HEXAGONAL, 0.2) == pytest.approx(0.0346410, abs=1e-7)

    def test_square_area(self):
        assert cell_area(GridKind.SQUARE, 1.0) == 1.0

    @given(c=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_equal_area_fairness(self, c):
        a_hex = cell_area(GridKind.HEXAGONAL, c)
        a_sq = cell_area(GridKind.SQUARE, square_side_for_equal_area(c))
        assert a_sq == pytest.approx(a_hex, rel=1e-12)

    def test_rejects_bad_pitch(self):
        for pitch in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="pitch"):
                cell_area(GridKind.HEXAGONAL, pitch)
            with pytest.raises(ParameterError, match="pitch"):
                square_side_for_equal_area(pitch)

    def test_rejects_a_kind_that_is_not_a_grid_kind(self):
        # a string must not fall through to the square formulas
        for kind in ("hex", "hexagonal", None):
            with pytest.raises(ParameterError, match="kind"):
                cell_area(kind, 0.2)
            with pytest.raises(ParameterError, match="kind"):
                to_cartesian(kind, 0.2, (1, 1))

    @pytest.mark.parametrize("kind", list(GridKind))
    @pytest.mark.parametrize("pitch", [0.0, -1.0, math.nan, math.inf, True])
    def test_to_cartesian_rejects_bad_pitch(self, kind, pitch):
        with pytest.raises(ParameterError, match="pitch"):
            to_cartesian(kind, pitch, (1, 1))

    @pytest.mark.parametrize("coords", [(0.5, math.nan), (1.0, 2), (1, True), (1, 2, 3), (1,)])
    def test_to_cartesian_rejects_non_integer_coordinates(self, coords):
        for kind in GridKind:
            with pytest.raises(ParameterError, match="coords"):
                to_cartesian(kind, 0.2, coords)

    def test_to_cartesian_takes_numpy_integers(self):
        got = to_cartesian(GridKind.HEXAGONAL, 0.2, (np.int64(1), np.int64(-2)))
        assert got == to_cartesian(GridKind.HEXAGONAL, 0.2, (1, -2))


class TestEnumerateSites:
    def test_hex_first_ring(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 6)
        assert layout.n_interferers == 6
        assert all(s.radial_distance == pytest.approx(0.2, rel=1e-14) for s in layout.interferers())
        assert layout.ring_sizes == ((pytest.approx(0.2, rel=1e-14), 6),)

    def test_hex_36_shell_grouping(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 36)
        assert layout.n_interferers == 36
        shells: dict[int, int] = {}
        for s in layout.interferers():
            shells[lattice_shell(*s.lattice_coords)] = shells.get(lattice_shell(*s.lattice_coords), 0) + 1
        assert shells == {1: 6, 2: 12, 3: 18}

    def test_hex_36_distance_classes(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 1.0, 36)
        counts = [n for _, n in layout.ring_sizes]
        dists = [d for d, _ in layout.ring_sizes]
        assert counts == [6, 6, 6, 12, 6]
        assert dists == pytest.approx([1.0, math.sqrt(3.0), 2.0, math.sqrt(7.0), 3.0], rel=1e-13)

    def test_square_first_ring(self):
        b = square_side_for_equal_area(0.2)
        layout = enumerate_sites(GridKind.SQUARE, b, 4)
        assert layout.n_interferers == 4
        assert all(s.radial_distance == pytest.approx(b, rel=1e-14) for s in layout.interferers())

    def test_square_24_completes_at_class_boundary(self):
        layout = enumerate_sites(GridKind.SQUARE, 1.0, 24)
        assert layout.n_interferers == 24
        counts = [n for _, n in layout.ring_sizes]
        dists = [d for d, _ in layout.ring_sizes]
        assert counts == [4, 4, 4, 8, 4]
        assert dists == pytest.approx(
            [1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 2.0 * math.sqrt(2.0)], rel=1e-13
        )

    def test_hex_1260(self):
        # sum over 20 shells of 6r sites is 1260, and the nearest-1260
        # selection lands exactly on a distance-class boundary
        assert sum(6 * r for r in range(1, 21)) == 1260
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 1260)
        assert layout.n_interferers == 1260
        shells: dict[int, int] = {}
        for s in layout.interferers():
            r = lattice_shell(*s.lattice_coords)
            shells[r] = shells.get(r, 0) + 1
        # Euclidean distance classes interleave lattice shells far out, so
        # only the inner shells are guaranteed complete
        for r in range(1, 19):
            assert shells[r] == 6 * r

    def test_distance_classes_subset_of_shells_inner(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 1.0, 90)
        by_ring: dict[int, set[int]] = {}
        for s in layout.interferers():
            by_ring.setdefault(s.ring, set()).add(lattice_shell(*s.lattice_coords))
        for ring, shells in by_ring.items():
            if min(s.radial_distance for s in layout.interferers() if s.ring == ring) <= 5.0:
                assert len(shells) == 1

    def test_never_truncates_mid_class(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 7)
        assert layout.n_interferers == 12
        layout = enumerate_sites(GridKind.SQUARE, 1.0, 840)
        assert layout.n_interferers == 844

    def test_sorted_and_indexed(self):
        for kind, pitch, n in [
            (GridKind.HEXAGONAL, 0.2, 36),
            (GridKind.SQUARE, 0.186, 24),
            (GridKind.HEXAGONAL, 1.0, 1260),
        ]:
            layout = enumerate_sites(kind, pitch, n)
            dists = [s.radial_distance for s in layout.sites]
            assert dists == sorted(dists)
            assert [s.index for s in layout.sites] == list(range(len(layout.sites)))
            assert sum(n_ for _, n_ in layout.ring_sizes) == layout.n_interferers

    def test_angle_order_within_ring(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 1.0, 6)
        angles = []
        for s in layout.interferers():
            x, y = to_cartesian(GridKind.HEXAGONAL, 1.0, s.lattice_coords)
            angles.append(math.atan2(y, x) % (2 * math.pi))
        assert angles == sorted(angles)
        assert layout.sites[1].lattice_coords == (1, 0)

    def test_ring_members_share_distance(self):
        layout = enumerate_sites(GridKind.SQUARE, 0.5, 100)
        for ring_dist, _ in layout.ring_sizes:
            members = [s for s in layout.interferers() if s.radial_distance == pytest.approx(ring_dist, rel=1e-14)]
            assert len(members) >= 4

    def test_desired_site_at_origin(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, 6)
        assert layout.sites[0].index == 0
        assert layout.sites[0].radial_distance == 0.0
        assert layout.sites[0].ring == 0

    @given(
        kind=st.sampled_from([GridKind.HEXAGONAL, GridKind.SQUARE]),
        pitch=st.floats(0.01, 10.0),
        n=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_properties(self, kind, pitch, n):
        layout = enumerate_sites(kind, pitch, n)
        assert layout.n_interferers >= n
        dists = [s.radial_distance for s in layout.sites]
        assert dists == sorted(dists)
        # within a class, distances are exactly equal by construction
        for ring_dist, count in layout.ring_sizes:
            members = [s for s in layout.interferers() if s.ring > 0 and s.radial_distance == ring_dist]
            assert len(members) >= count

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            enumerate_sites(GridKind.HEXAGONAL, 0.0, 6)
        with pytest.raises(ParameterError):
            enumerate_sites(GridKind.HEXAGONAL, 0.2, 0)
        for pitch in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="pitch"):
                enumerate_sites(GridKind.HEXAGONAL, pitch, 6)
        with pytest.raises(ParameterError, match="kind"):
            enumerate_sites("hex", 0.2, 6)

    def test_numpy_integer_count(self):
        layout = enumerate_sites(GridKind.HEXAGONAL, 0.2, np.int64(36))
        assert layout == enumerate_sites(GridKind.HEXAGONAL, 0.2, 36)
        assert SystemConfig(n_interferers=np.int64(36)).layout() == layout
