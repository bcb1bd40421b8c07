import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavityspin import (
    ComplexSeries,
    DriveProtocol,
    SystemParams,
    TimeGrid,
    angular_to_mhz,
    mhz_to_angular,
    phase_switched_train,
    rect_pulse,
)
from cavityspin.core import MAX_TIME_STEPS
from conftest import OMEGA_C, KAPPA


def test_mhz_conversion_reference_values():
    assert mhz_to_angular(2691.5) == pytest.approx(2.0 * math.pi * 2.6915, rel=1e-12)
    assert mhz_to_angular(0.8) == pytest.approx(5.0265e-3, rel=1e-4)


@given(st.floats(min_value=1e-3, max_value=1e5))
def test_frequency_round_trip(f_mhz):
    assert angular_to_mhz(mhz_to_angular(f_mhz)) == pytest.approx(f_mhz, rel=1e-12)


class TestSystemParams:
    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            SystemParams(OMEGA_C, OMEGA_C, OMEGA_C, kappa=0.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            SystemParams(OMEGA_C, OMEGA_C, OMEGA_C, kappa=KAPPA, Omega=-0.1)

    def test_rejects_coupling_beyond_weak_limit(self):
        with pytest.raises(ValueError):
            SystemParams(OMEGA_C, OMEGA_C, OMEGA_C, kappa=KAPPA, Omega=OMEGA_C / 10)

    def test_omega_bar(self):
        p = SystemParams(OMEGA_C, OMEGA_C, OMEGA_C + 0.01, kappa=KAPPA)
        assert p.omega_bar == pytest.approx(-0.01 - 1j * KAPPA)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.05, 1)

    def test_step_cap(self):
        # The cap is checked before any array exists.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceed the cap"):
                TimeGrid(0.0, 1.0, MAX_TIME_STEPS + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert TimeGrid(0.0, 1.0, MAX_TIME_STEPS).n_steps == MAX_TIME_STEPS

    def test_times_are_uniform(self):
        g = TimeGrid(0.0, 0.05, 1000)
        t = g.times()
        assert len(t) == 1000
        assert np.allclose(np.diff(t), 0.05, rtol=1e-12)
        assert g.t_end == pytest.approx(0.05 * 999)


class TestDriveProtocol:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            DriveProtocol(((0.0, 1.0),))

    def test_segments_piecewise(self):
        p = DriveProtocol(((10.0, 1.0 + 0j), (5.0, -2.0 + 0j)))
        assert p.segments == ((10.0, 1.0 + 0j), (5.0, -2.0 + 0j))
        assert DriveProtocol(()).segments == ()

    def test_segments_coerced_to_float_and_complex(self):
        p = DriveProtocol([(10, 1), (5, 2.0)])
        assert p.segments == ((10.0, 1.0 + 0j), (5.0, 2.0 + 0j))
        assert all(type(d) is float and type(e) is complex for d, e in p.segments)
        assert p == DriveProtocol(((10.0, 1.0 + 0j), (5.0, 2.0 + 0j)))

    def test_rect_pulse_requires_positive_duration(self):
        with pytest.raises(ValueError):
            rect_pulse(1.0, 0.0)

    def test_single_pulse_train_equals_rect(self):
        assert phase_switched_train(0.3j, 7.5, 1) == rect_pulse(0.3j, 7.5)

    def test_train_alternates_sign(self):
        train = phase_switched_train(1.0, 2.0, 4)
        assert [e for _, e in train.segments] == [1.0, -1.0, 1.0, -1.0]


def test_complex_series_length_checked():
    g = TimeGrid(0.0, 0.1, 8)
    with pytest.raises(ValueError):
        ComplexSeries(g, np.zeros(7))
    s = ComplexSeries(g, np.ones(8) * (1 + 1j))
    assert len(s) == 8
    assert np.allclose(s.abs2(), 2.0)
