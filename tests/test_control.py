"""Unit tests for the control-theoretic model (Section 4 / Theorem 1)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.analysis import analyze_response
from repro.control.lti import FirstOrderLoop
from repro.control.theory import theorem1_gain, theorem1_loop, verify_theorem1


class TestFirstOrderLoop:
    def test_pole_formula(self):
        loop = FirstOrderLoop(parallelism=10.0, gain=8.0)
        assert loop.pole == pytest.approx(0.2)

    def test_bibo_stability_window(self):
        assert FirstOrderLoop(10.0, 8.0).is_bibo_stable  # pole 0.2
        assert FirstOrderLoop(10.0, 19.0).is_bibo_stable  # pole -0.9
        assert not FirstOrderLoop(10.0, 21.0).is_bibo_stable  # pole -1.1
        assert not FirstOrderLoop(10.0, 0.0).is_bibo_stable  # pole 1 (integrator)

    def test_dc_gain_is_one_for_stable_loop(self):
        loop = FirstOrderLoop(7.0, theorem1_gain(7.0, 0.3))
        assert loop.dc_gain == pytest.approx(1.0)

    def test_dc_gain_infinite_at_pole_one(self):
        assert FirstOrderLoop(5.0, 0.0).dc_gain == float("inf")

    def test_transfer_function_value(self):
        loop = FirstOrderLoop(10.0, 8.0)
        # T(z) = 0.8 / (z - 0.2); at z = 1: 1.0
        assert loop.transfer(1.0) == pytest.approx(1.0)

    def test_request_response_closed_form_matches_recurrence(self):
        loop = FirstOrderLoop(12.0, theorem1_gain(12.0, 0.4))
        closed = loop.request_response(20, d1=1.0)
        iterated = loop.simulate_requests(20, d1=1.0)
        assert np.allclose(closed, iterated)

    def test_request_response_geometric(self):
        loop = theorem1_loop(10.0, 0.5)
        d = loop.request_response(5)
        err = np.abs(d - 10.0)
        assert np.allclose(err[1:] / err[:-1], 0.5)

    def test_matches_scipy_step_response(self):
        """Cross-check the closed loop against scipy's dlti step response."""
        a_par, r = 10.0, 0.2
        loop = theorem1_loop(a_par, r)
        k = loop.gain
        # T(z) = (K/A) / (z - (1 - K/A))
        system = scipy.signal.dlti([k / a_par], [1.0, -(1.0 - k / a_par)], dt=1)
        _, y = scipy.signal.dstep(system, n=16)
        ours = loop.output_step_response(16, d1=0.0)
        # scipy's step starts from zero initial condition, ours from d1=0
        assert np.allclose(np.squeeze(y), ours, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            FirstOrderLoop(0.0, 1.0)
        with pytest.raises(ValueError):
            FirstOrderLoop(5.0, 1.0).request_response(0)


class TestTheorem1Gain:
    def test_formula(self):
        assert theorem1_gain(10.0, 0.2) == pytest.approx(8.0)

    def test_places_pole_at_rate(self):
        for r in (0.0, 0.3, 0.9):
            loop = theorem1_loop(25.0, r)
            assert loop.pole == pytest.approx(r)

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_gain(0.0, 0.2)
        with pytest.raises(ValueError):
            theorem1_gain(5.0, 1.0)


class TestVerifyTheorem1:
    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=120, deadline=None)
    def test_theorem_holds_everywhere(self, parallelism, rate):
        verdict = verify_theorem1(parallelism, rate)
        assert verdict.holds
        assert verdict.measured_rate == pytest.approx(rate, abs=1e-6)

    def test_verdict_fields(self):
        v = verify_theorem1(10.0, 0.2)
        assert v.bibo_stable
        assert v.zero_steady_state_error
        assert v.zero_overshoot
        assert v.convergence_rate_matches


class TestAnalyzeResponse:
    def test_perfect_convergence(self):
        loop = theorem1_loop(10.0, 0.2)
        m = analyze_response(loop.request_response(30), 10.0)
        assert m.bounded
        assert m.steady_state_error < 1e-6
        assert m.overshoot < 1e-6
        assert m.convergence_rate == pytest.approx(0.2, abs=0.05)
        assert m.oscillation_amplitude < 1e-6
        assert m.settling_quanta < 30

    def test_oscillating_series(self):
        d = np.array([1.0, 2, 4, 8, 16, 8, 16, 8, 16, 8, 16, 8])
        m = analyze_response(d, 10.0)
        assert m.bounded
        assert m.oscillation_amplitude == pytest.approx(8.0)
        assert m.steady_state_error > 1.0
        assert m.overshoot > 0.0
        assert m.settling_quanta == len(d)

    def test_unbounded_series(self):
        d = np.array([1.0, 10, 100, 1e4, 1e6])
        m = analyze_response(d, 2.0, bound_factor=100.0)
        assert not m.bounded

    def test_starts_at_target(self):
        d = np.full(10, 5.0)
        m = analyze_response(d, 5.0)
        assert m.steady_state_error == 0.0
        assert m.settling_quanta == 0
        assert np.isnan(m.convergence_rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze_response([1.0], 5.0)
        with pytest.raises(ValueError):
            analyze_response([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            analyze_response([1.0, 2.0], 5.0, tail_fraction=0.0)

    def test_overshoot_detected(self):
        d = np.array([1.0, 15.0, 10.0, 10.0, 10.0, 10.0])
        m = analyze_response(d, 10.0)
        assert m.overshoot == pytest.approx(5.0)
