"""Fixtures shared by the test modules."""

import pytest

from mc_arelab import detection, perf


@pytest.fixture
def count_builds(monkeypatch):
    """The length of every point's build of the count pmfs (a group row), in build order."""
    lengths = []
    build = detection._build_block

    def recording(laws):
        lengths.extend(law.size for law in laws)
        return build(laws)

    for module in (detection, perf):
        monkeypatch.setattr(module, "_build_block", recording)
    return lengths
