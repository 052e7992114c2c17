"""DisjointMachines: the segmented waterfall against per-machine DEQ.

Three allocators walk the same random quanta — ``DisjointMachines.
allocate_batch`` (the windowed loop's entry point), ``DisjointMachines.
allocate`` (the serial loop's) and one lone ``DynamicEquiPartitioning``
per machine on its own budget — and must agree on every grant, every
machine's rotation counter and every error message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.machines import DisjointMachines


def _outcome(call):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return ("ok", call())
    except (ValueError, AssertionError) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def machine_runs(draw):
    """Budgets, each machine's starting jobs and their requests over a few
    quanta; jobs drop out between quanta and, rarely, a request is bad."""
    budgets = draw(st.lists(st.integers(1, 64), min_size=1, max_size=5))
    members = [
        draw(st.lists(st.integers(0, b - 1), max_size=b, unique=True)) for b in budgets
    ]
    quanta = draw(st.integers(1, 30))
    steps = []
    for _ in range(quanta):
        step = []
        for m, budget in enumerate(budgets):
            members[m] = [j for j in members[m] if draw(st.integers(0, 9)) > 0]
            reqs = [draw(st.integers(1, 3 * budget)) for _ in members[m]]
            if reqs and draw(st.integers(0, 19)) == 0:
                reqs[draw(st.integers(0, len(reqs) - 1))] = draw(st.integers(-2, 0))
            step.append(dict(zip(members[m], reqs)))
        steps.append(step)
    return budgets, steps


@settings(max_examples=150, deadline=None)
@given(machine_runs())
def test_segmented_waterfall_matches_per_machine_deq(run):
    budgets, steps = run
    batch = DisjointMachines(budgets)
    mapping = DisjointMachines(budgets)
    lone = [DynamicEquiPartitioning() for _ in budgets]
    total = sum(budgets)
    for step in steps:
        requests = {
            batch.machine_offset(m) + j: r
            for m, reqs in enumerate(step)
            for j, r in sorted(reqs.items())
        }
        ids = np.array(sorted(requests), dtype=np.int64)
        reqs = np.array([requests[int(j)] for j in ids], dtype=np.int64)

        def per_machine():
            grants: list[int] = []
            for m, deq in enumerate(lone):
                # The lone machine sees the same (shifted) ids, so its
                # error messages name the same jobs.
                sub = ids[batch.machine_of(ids) == m]
                grants.extend(
                    deq.allocate_batch(
                        sub,
                        np.array([requests[j] for j in sub.tolist()], dtype=np.int64),
                        budgets[m],
                    ).tolist()
                )
            return grants

        want = _outcome(per_machine)
        got_batch = _outcome(lambda: batch.allocate_batch(ids, reqs, total).tolist())
        got_map = _outcome(
            lambda: [v for _, v in sorted(mapping.allocate(requests, total).items())]
        )
        assert got_batch == want
        assert got_map == want
        if want[0] != "ok":
            break  # a run stops at its first error; no state to compare
        rotations = [deq.rotation for deq in lone]
        assert batch.rotations() == rotations
        assert mapping.rotations() == rotations


class TestDisjointMachines:
    def test_construction_is_validated(self):
        with pytest.raises(ValueError, match="at least one machine"):
            DisjointMachines([])
        with pytest.raises(ValueError, match="machine 1 needs a positive"):
            DisjointMachines([4, 0])

    def test_ids_map_to_contiguous_ranges(self):
        machines = DisjointMachines([2, 3, 1])
        assert machines.total == 6
        assert [machines.machine_offset(m) for m in range(3)] == [0, 2, 5]
        ids = np.array([5, 0, 4, 2, 1], dtype=np.int64)
        assert machines.machine_of(ids).tolist() == [2, 0, 1, 1, 0]
        assert machines.machine_sizes(ids, 6).tolist() == [1, 2, 3, 3, 2]
        with pytest.raises(ValueError, match="job 6 is outside every machine"):
            machines.machine_of(np.array([1, 6], dtype=np.int64))

    def test_wrong_machine_size_is_refused(self):
        machines = DisjointMachines([2, 3])
        with pytest.raises(ValueError, match="divide P=5"):
            machines.allocate_batch(
                np.array([0], dtype=np.int64), np.array([1], dtype=np.int64), 6
            )
        with pytest.raises(ValueError, match="divide P=5"):
            machines.allocate({0: 1}, 4)

    def test_machines_never_lend_processors(self):
        """A machine's declined processors stay idle even while another
        machine's jobs want more."""
        machines = DisjointMachines([4, 4])
        grants = machines.allocate_batch(
            np.array([0, 4, 5], dtype=np.int64), np.array([1, 9, 9], dtype=np.int64), 8
        )
        assert grants.tolist() == [1, 2, 2]
