"""Unit tests for repro.dag.builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dag import builders


class TestChain:
    def test_structure(self):
        d = builders.chain(5)
        assert d.work == 5
        assert d.span == 5
        assert d.average_parallelism == 1.0

    def test_single(self):
        d = builders.chain(1)
        assert d.work == 1 and d.span == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            builders.chain(0)


class TestWideLevel:
    def test_structure(self):
        d = builders.wide_level(8)
        assert d.work == 8
        assert d.span == 1
        assert d.average_parallelism == 8.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            builders.wide_level(0)


class TestDiamond:
    def test_structure(self):
        d = builders.diamond(6)
        assert d.work == 8
        assert d.span == 3
        assert list(d.level_sizes) == [1, 6, 1]

    def test_minimal(self):
        d = builders.diamond(1)
        assert d.work == 3
        assert d.span == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            builders.diamond(0)


class TestForkJoinFromPhases:
    def test_single_serial_phase_is_chain(self):
        d = builders.fork_join_from_phases([(1, 4)])
        assert d.work == 4 and d.span == 4

    def test_work_and_span(self):
        d = builders.fork_join_from_phases([(1, 3), (5, 2), (1, 1)])
        assert d.work == 3 + 10 + 1
        assert d.span == 3 + 2 + 1

    def test_profile_matches_phases(self):
        d = builders.fork_join_from_phases([(1, 2), (4, 3)])
        assert list(d.level_sizes) == [1, 1, 4, 4, 4]

    def test_barrier_edges(self):
        # 2-wide phase into 3-wide phase: every tail precedes every head
        d = builders.fork_join_from_phases([(2, 1), (3, 1)])
        tails = [0, 1]
        heads = [2, 3, 4]
        for h in heads:
            assert sorted(d.predecessors(h)) == tails

    def test_chains_inside_phase(self):
        d = builders.fork_join_from_phases([(2, 3)])
        # chain 0 = tasks 0,1,2; chain 1 = tasks 3,4,5
        assert list(d.successors(0)) == [1]
        assert list(d.successors(1)) == [2]
        assert list(d.successors(3)) == [4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            builders.fork_join_from_phases([])

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            builders.fork_join_from_phases([(0, 3)])
        with pytest.raises(ValueError):
            builders.fork_join_from_phases([(3, 0)])


def _scalar_fork_join_reference(phases):
    """The pre-vectorization edge-emission order, kept as the test oracle:
    per phase, barrier edges (prev tail major, head minor) then chain edges
    (chain major, depth minor)."""
    from repro.dag.graph import Dag

    edges: list[tuple[int, int]] = []
    base = 0
    prev_tails: list[int] | None = None
    for w, k in phases:
        ids = [[base + c * k + d for d in range(k)] for c in range(w)]
        if prev_tails is not None:
            for t in prev_tails:
                for c in range(w):
                    edges.append((t, ids[c][0]))
        for c in range(w):
            for d in range(k - 1):
                edges.append((ids[c][d], ids[c][d + 1]))
        prev_tails = [ids[c][-1] for c in range(w)]
        base += w * k
    return Dag(sum(w * k for w, k in phases), edges)


class TestForkJoinVectorizedBuilder:
    """The numpy edge-list builder must yield the *identical* Dag — same
    adjacency contents and per-task ordering — as the scalar loops did."""

    CASES = [
        [(1, 1)],
        [(1, 4)],
        [(5, 1)],
        [(2, 3)],
        [(1, 3), (4, 2), (1, 1), (8, 5)],
        [(3, 1), (1, 2), (3, 1)],
        [(2, 2), (2, 2), (2, 2)],
    ]

    def test_known_shapes_identical(self):
        for phases in self.CASES:
            got = builders.fork_join_from_phases(phases)
            want = _scalar_fork_join_reference(phases)
            assert got == want
            for t in range(want.num_tasks):
                assert list(got.predecessors(t)) == list(want.predecessors(t))
                assert list(got.successors(t)) == list(want.successors(t))
            assert list(got.levels) == list(want.levels)
            assert list(got.topological_order()) == list(want.topological_order())

    def test_random_shapes_identical(self):
        rng = np.random.default_rng(606)
        for _ in range(25):
            phases = [
                (int(rng.integers(1, 9)), int(rng.integers(1, 6)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            got = builders.fork_join_from_phases(phases)
            want = _scalar_fork_join_reference(phases)
            assert got == want
            for t in range(want.num_tasks):
                assert list(got.successors(t)) == list(want.successors(t))

    def test_adjacency_holds_plain_ints(self):
        d = builders.fork_join_from_phases([(2, 2), (3, 1)])
        for t in range(d.num_tasks):
            assert all(type(p) is int for p in d.predecessors(t))
            assert all(type(s) is int for s in d.successors(t))


class TestForkJoin:
    def test_two_iterations(self):
        d = builders.fork_join(2, 4, 3, 2)
        # per iteration: serial 2 + parallel 4*3
        assert d.work == 2 * (2 + 12)
        assert d.span == 2 * (2 + 3)

    def test_trailing_serial(self):
        d = builders.fork_join(2, 4, 3, 1, leading_serial=False)
        assert list(d.level_sizes)[:3] == [4, 4, 4]

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            builders.fork_join(1, 1, 1, 0)


class TestFigure2Fragment:
    def test_shape(self):
        d = builders.figure2_fragment()
        assert d.work == 15
        assert d.span == 3
        assert list(d.level_sizes) == [5, 5, 5]
        assert d.average_parallelism == pytest.approx(5.0)


class TestRandomLayered:
    def test_levels_exact(self, rng):
        d = builders.random_layered(rng, 10, min_width=1, max_width=5)
        assert d.span == 10

    def test_widths_within_bounds(self, rng):
        d = builders.random_layered(rng, 12, min_width=2, max_width=4)
        sizes = d.level_sizes
        assert np.all(sizes >= 2) and np.all(sizes <= 4)

    def test_every_nonsource_has_parent(self, rng):
        d = builders.random_layered(rng, 8, min_width=1, max_width=6)
        for t in range(d.num_tasks):
            if d.level_of(t) > 1:
                assert d.in_degree(t) >= 1

    def test_deterministic_given_seed(self):
        a = builders.random_layered(np.random.default_rng(5), 6, max_width=4)
        b = builders.random_layered(np.random.default_rng(5), 6, max_width=4)
        assert a == b

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            builders.random_layered(rng, 0)
        with pytest.raises(ValueError):
            builders.random_layered(rng, 3, min_width=5, max_width=2)
