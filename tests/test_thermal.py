import numpy as np
import pytest

from iqcontrol import thermal
from iqcontrol.errors import DomainError, InfeasibleError


class TestThermalOccupancy:
    def test_degenerate_levels(self):
        spec = thermal.ThermalSpec(e0=1.0, e1=1.0, temperature=0.5)
        assert thermal.thermal_occupancy(spec) == pytest.approx(0.5)

    def test_known_value(self):
        # gap = T gives p_p = 1 / (1 + e^-1)
        spec = thermal.ThermalSpec(e0=0.0, e1=2.0, temperature=2.0)
        assert thermal.thermal_occupancy(spec) \
            == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))

    def test_large_gap_saturates(self):
        spec = thermal.ThermalSpec(e0=0.0, e1=1e6, temperature=1.0)
        assert thermal.thermal_occupancy(spec) == pytest.approx(1.0)
        spec = thermal.ThermalSpec(e0=1e6, e1=0.0, temperature=1.0)
        assert thermal.thermal_occupancy(spec) == pytest.approx(0.0)

    def test_rounding_ends(self):
        # the range is [0, 1]: 1/(1 + e^-x) rounds to 1 from x ~ 36.74, and
        # e^x underflows to 0 from x ~ -745.13
        def occupancy(x):
            return thermal.thermal_occupancy(
                thermal.ThermalSpec(e0=0.0, e1=x, temperature=1.0))
        assert occupancy(40.0) == 1.0
        assert occupancy(30.0) < 1.0
        assert occupancy(-800.0) == 0.0
        assert occupancy(-700.0) > 0.0

    def test_monotone_in_gap(self):
        t = 0.7
        gaps = np.linspace(-5.0, 5.0, 41)
        occ = [thermal.thermal_occupancy(
            thermal.ThermalSpec(e0=0.0, e1=g, temperature=t)) for g in gaps]
        assert np.all(np.diff(occ) > 0)

    @pytest.mark.parametrize("e0, e1, temperature", [
        (np.nan, 0.0, 1.0), (0.0, np.inf, 1.0), (-np.inf, 0.0, 1.0),
        (0.0, 1.0, np.nan), (0.0, 1.0, np.inf)])
    def test_non_finite_input_raises(self, e0, e1, temperature):
        with pytest.raises(DomainError):
            thermal.ThermalSpec(e0=e0, e1=e1, temperature=temperature)

    def test_nonpositive_temperature_raises(self):
        with pytest.raises(DomainError):
            thermal.ThermalSpec(e0=0.0, e1=1.0, temperature=0.0)
        with pytest.raises(DomainError):
            thermal.ThermalSpec(e0=0.0, e1=1.0, temperature=-1.0)


class TestRequiredGap:
    def test_half_occupancy_needs_zero_gap(self):
        assert thermal.required_gap(0.5, 3.0) == pytest.approx(0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            temperature = rng.uniform(0.1, 10.0)
            gap = rng.uniform(-9.0, 9.0) * temperature
            p_p = thermal.thermal_occupancy(
                thermal.ThermalSpec(e0=0.0, e1=gap, temperature=temperature))
            back = thermal.required_gap(p_p, temperature)
            assert abs(back - gap) <= 1e-12 * max(1.0, abs(gap))

    def test_pure_occupancy_raises(self):
        with pytest.raises(InfeasibleError):
            thermal.required_gap(0.0, 1.0)
        with pytest.raises(InfeasibleError):
            thermal.required_gap(1.0, 1.0)

    def test_bad_temperature_raises(self):
        with pytest.raises(DomainError):
            thermal.required_gap(0.3, 0.0)

    @pytest.mark.parametrize("temperature", [np.inf, np.nan])
    def test_non_finite_temperature_raises(self, temperature):
        # inf used to give NaN and a RuntimeWarning
        with pytest.raises(DomainError, match=r"outside \(0, inf\)"):
            thermal.required_gap(0.5, temperature)
