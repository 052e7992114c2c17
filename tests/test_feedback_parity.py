"""Scalar/batched parity of every feedback policy in ``repro``.

The batched and superstep simulation paths call
``FeedbackPolicy.next_request_batch``; the serial reference loop calls
``next_request`` once per record.  Byte-identical traces across the paths
need the two to agree bit for bit on every input, not only on the inputs
the golden fixtures happen to reach.  This test finds every policy class
in the package, builds it from an explicit constructor table (a class
missing from the table fails), and checks one of two things:

- ``next_request_batch`` returns exactly the bits of ``next_request``
  applied row by row, on a few hundred random records; or
- the class does not override ``next_request_batch`` and gets ``None``
  from the base, so the simulator runs every set holding it on the serial
  reference loop.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
from collections.abc import Iterator
from typing import Any

import numpy as np
import pytest

import repro
from repro.control.controllers import FixedGainIntegral
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.feedback import FeedbackPolicy
from repro.core.reference import FixedRequest, OracleFeedback
from repro.core.types import QuantumRecord
from repro.stealing.asteal import ABPPolicy, ASteal

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_module.name)

#: Constructor arguments per policy class; every subclass must appear.
CONSTRUCTOR_ARGS: dict[type[FeedbackPolicy], dict[str, Any]] = {
    AControl: {"convergence_rate": 0.2},
    AGreedy: {"responsiveness": 2.0, "utilization_threshold": 0.8},
    ASteal: {"responsiveness": 2.0, "utilization_threshold": 0.8},
    FixedRequest: {"processors": 4},
    ABPPolicy: {"processors": 64},
    OracleFeedback: {"parallelism_source": lambda: 3.5},
    FixedGainIntegral: {"gain": 0.5, "request_cap": 100.0},
}

RECORDS = 400


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


POLICIES = sorted(
    {c for c in _subclasses(FeedbackPolicy) if c.__module__.startswith("repro.")},
    key=lambda c: f"{c.__module__}.{c.__qualname__}",
)


def random_records() -> list[QuantumRecord]:
    """Valid records covering empty quanta (span 0), short last quanta,
    deprived and satisfied allotments, and integral requests."""
    rng = np.random.default_rng(0)
    length = 8
    out = []
    for index in range(1, RECORDS + 1):
        if rng.random() < 0.2:
            request = float(rng.integers(1, 40))
        else:
            request = float(rng.uniform(1.0, 120.0))
        request_int = math.ceil(request)
        available = int(rng.integers(0, 2 * request_int + 1))
        allotment = min(request_int, available)
        steps = length if rng.random() < 0.8 else int(rng.integers(0, length + 1))
        work = 0 if rng.random() < 0.1 else int(rng.integers(0, allotment * steps + 1))
        span = float(rng.uniform(0.0, work)) if work else 0.0
        out.append(
            QuantumRecord(
                index=index,
                request=request,
                request_int=request_int,
                available=available,
                allotment=allotment,
                work=work,
                span=span,
                steps=steps,
                quantum_length=length,
            )
        )
    return out


def batch_inputs(records: list[QuantumRecord]) -> dict[str, np.ndarray]:
    """The arrays the window executor hands ``next_request_batch``."""

    def column(name: str, dtype: type) -> np.ndarray:
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    return {
        "request": column("request", np.float64),
        "request_int": column("request_int", np.int64),
        "allotment": column("allotment", np.int64),
        "work": column("work", np.int64),
        "span": column("span", np.float64),
        "steps": column("steps", np.int64),
    }


def test_every_policy_has_constructor_args():
    missing = [c.__qualname__ for c in POLICIES if c not in CONSTRUCTOR_ARGS]
    assert missing == [], f"add {missing} to CONSTRUCTOR_ARGS"


@pytest.mark.parametrize("cls", POLICIES, ids=lambda c: c.__qualname__)
def test_batch_matches_scalar_bits(cls):
    policy = cls(**CONSTRUCTOR_ARGS[cls])
    records = random_records()
    got = policy.next_request_batch(**batch_inputs(records))
    if cls.next_request_batch is FeedbackPolicy.next_request_batch:
        assert got is None
        return
    assert got is not None, (
        f"{cls.__qualname__} overrides next_request_batch but returns None; "
        "an override must return an array"
    )
    expected = np.array([policy.next_request(r) for r in records], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == expected.shape
    diff = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
    assert diff.size == 0, (
        f"{diff.size} of {len(records)} lanes differ; first: "
        f"{records[diff[0]]} -> batch {got[diff[0]]!r}, scalar {expected[diff[0]]!r}"
    )
