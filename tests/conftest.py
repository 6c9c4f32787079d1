"""Fixtures shared by the test modules."""

import pytest

from mc_arelab.detection import _CountDistribution


@pytest.fixture
def count_builds(monkeypatch):
    """The length of every build of the count pmfs (a _CountDistribution), in build order."""
    lengths = []
    build = _CountDistribution.__init__

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        lengths.append(self.off.size)

    monkeypatch.setattr(_CountDistribution, "__init__", recording)
    return lengths
