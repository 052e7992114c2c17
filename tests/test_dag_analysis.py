"""Unit tests for repro.dag.analysis."""

from __future__ import annotations

import pytest

from repro.dag import builders
from repro.dag.analysis import characteristics


class TestCharacteristics:
    def test_fork_join_summary(self):
        d = builders.fork_join_from_phases([(1, 3), (6, 2)])
        c = characteristics(d)
        assert c.work == 15
        assert c.span == 5
        assert c.average_parallelism == pytest.approx(3.0)
        assert c.max_level_width == 6
        assert c.min_level_width == 1

    def test_str_contains_notation(self):
        c = characteristics(builders.chain(3))
        assert "T1=3" in str(c)
        assert "Tinf=3" in str(c)
