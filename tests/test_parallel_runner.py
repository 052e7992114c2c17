"""The parallel experiment layer: deterministic fan-out must be invisible in
the numbers — only wall-clock changes with the worker count."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import run_fig5, run_fig6
from repro.experiments.fig6 import CHUNK_SETS
from repro.experiments.parallel import map_deterministic, resolve_workers
from repro.experiments.runner import run_everything


class TestMapDeterministic:
    def test_serial_matches_plain_map(self):
        assert map_deterministic(lambda x: x * x, range(7)) == [
            x * x for x in range(7)
        ]

    def test_parallel_preserves_order(self):
        assert map_deterministic(_square, range(20), workers=4) == [
            x * x for x in range(20)
        ]

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)
        assert resolve_workers(1) == 1
        assert resolve_workers(0) >= 1  # all cores

    def test_empty_and_single_item(self):
        assert map_deterministic(_square, [], workers=4) == []
        assert map_deterministic(_square, [3], workers=4) == [9]


def _square(x: int) -> int:
    return x * x


class TestSweepBitIdentity:
    def test_fig5_serial_equals_parallel(self):
        kwargs = dict(factors=(2, 11, 29), jobs_per_factor=2)
        assert run_fig5(workers=1, **kwargs) == run_fig5(workers=3, **kwargs)

    def test_fig5_factor_streams_independent(self):
        """A factor's jobs depend only on (seed, factor), not on which other
        factors the sweep includes — subsetting a sweep reproduces points."""
        full = run_fig5(factors=(2, 11, 29), jobs_per_factor=2)
        alone = run_fig5(factors=(11,), jobs_per_factor=2)
        assert alone.points[0] == full.points[1]

    def test_fig6_serial_equals_parallel(self):
        assert run_fig6(num_sets=3, workers=1) == run_fig6(num_sets=3, workers=2)

    def test_fig6_chunks_serial_equal_parallel(self):
        """More sets than one chunk holds: the chunks fan out over two
        workers and the sweep's numbers do not move."""
        kwargs = dict(
            num_sets=CHUNK_SETS + 2,
            load_range=(0.3, 3.0),
            processors=32,
            quantum_length=200,
            seed=5,
        )
        assert run_fig6(workers=1, **kwargs) == run_fig6(workers=2, **kwargs)

    @pytest.mark.slow
    def test_runner_artifacts_bit_identical(self, tmp_path: Path):
        run_everything(tmp_path / "ser", scale="smoke", jobs=1)
        run_everything(tmp_path / "par", scale="smoke", jobs=4)
        serial = sorted((tmp_path / "ser").glob("*.json"))
        assert serial  # the runner wrote artifacts
        for artifact in serial:
            parallel = tmp_path / "par" / artifact.name
            assert json.loads(artifact.read_text()) == json.loads(
                parallel.read_text()
            ), f"{artifact.name} differs between serial and --jobs 4"
