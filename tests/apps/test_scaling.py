"""Tests for step-time models."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import AmdahlModel, ConstantModel, PowerLawModel, RampModel


class TestConstantModel:
    def test_independent_of_procs(self):
        m = ConstantModel(26.0)
        assert m.nominal(1, 0) == m.nominal(1000, 50) == 26.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantModel(0)


class TestAmdahlModel:
    def test_calibration_points(self):
        m = AmdahlModel(serial=18.0, parallel=440.0)
        assert m.nominal(20, 0) == pytest.approx(40.0)
        assert m.nominal(40, 0) == pytest.approx(29.0)
        assert m.nominal(60, 0) == pytest.approx(25.33, abs=0.01)

    def test_serial_floor(self):
        m = AmdahlModel(serial=10.0, parallel=100.0)
        assert m.nominal(10**9, 0) == pytest.approx(10.0, abs=1e-3)

    def test_rejects_zero_work(self):
        with pytest.raises(ValueError):
            AmdahlModel(serial=0.0, parallel=0.0)

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError):
            AmdahlModel(serial=1.0, parallel=1.0).nominal(0, 0)

    @given(st.integers(1, 10_000), st.integers(1, 10_000))
    def test_monotone_in_procs(self, a, b):
        m = AmdahlModel(serial=5.0, parallel=300.0)
        lo, hi = min(a, b), max(a, b)
        assert m.nominal(lo, 0) >= m.nominal(hi, 0)


class TestPowerLawModel:
    def test_ideal_scaling(self):
        m = PowerLawModel(base=10.0, ref_procs=100, alpha=1.0)
        assert m.nominal(100, 0) == 10.0
        assert m.nominal(200, 0) == pytest.approx(5.0)

    def test_sublinear(self):
        m = PowerLawModel(base=10.0, ref_procs=100, alpha=0.5)
        assert m.nominal(400, 0) == pytest.approx(5.0)


class TestRampModel:
    def test_work_grows_linearly_with_the_step(self):
        m = RampModel(serial=5.0, parallel=120.0, growth=0.02)
        base = AmdahlModel(serial=5.0, parallel=120.0).nominal(16, 0)
        assert m.nominal(16, 0) == base
        assert m.nominal(16, 50) == pytest.approx(base * 2.0)
        assert m.nominal(16, -3) == base  # steps before 0 do not shrink the work


class TestNoise:
    def test_no_rng_is_deterministic(self):
        m = ConstantModel(10.0)
        assert m.sample(4, 0, None, noise_cv=0.5) == 10.0

    def test_zero_cv_is_nominal(self):
        rng = np.random.default_rng(0)
        assert ConstantModel(10.0).sample(4, 0, rng, noise_cv=0.0) == 10.0

    def test_noise_stays_positive(self):
        rng = np.random.default_rng(0)
        m = ConstantModel(1.0)
        samples = [m.sample(4, i, rng, noise_cv=1.0) for i in range(500)]
        assert all(s > 0 for s in samples)

    def test_noise_centers_on_nominal(self):
        rng = np.random.default_rng(1)
        m = ConstantModel(10.0)
        samples = [m.sample(4, i, rng, noise_cv=0.03) for i in range(2000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.01)
