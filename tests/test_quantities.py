import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from bunchlidar import quantities as q


class TestConstants:
    def test_si_exact_values(self):
        assert q.SPEED_OF_LIGHT == 299_792_458.0
        assert q.PLANCK_CONSTANT == 6.626_070_15e-34
        assert q.TICKS_PER_SECOND == 10**12


class TestCoherenceLinewidth:
    def test_43_mhz_gives_23ns(self):
        assert q.coherence_time_from_linewidth(43e6) == pytest.approx(23.26e-9, rel=1e-3)

    def test_1_ghz_gives_1ns(self):
        assert q.coherence_time_from_linewidth(1e9) == pytest.approx(1e-9, rel=1e-12)

    def test_zero_linewidth_rejected(self):
        with pytest.raises(q.DomainError):
            q.coherence_time_from_linewidth(0.0)

    @given(st.floats(min_value=1e3, max_value=1e13))
    def test_self_inverse(self, linewidth):
        # tau_c = 1/df, so the same map takes a coherence time back to its linewidth
        back = q.coherence_time_from_linewidth(q.coherence_time_from_linewidth(linewidth))
        assert back == pytest.approx(linewidth, rel=1e-12)


class TestWavelengthSpread:
    def test_2_ghz_etalon_window(self):
        assert q.linewidth_from_wavelength_spread(518e-9, 1.79e-12) == pytest.approx(2.00e9, rel=1e-3)

    def test_zero_spread(self):
        assert q.linewidth_from_wavelength_spread(518e-9, 0.0) == 0.0

    def test_43_mhz_inversion(self):
        assert q.linewidth_from_wavelength_spread(518e-9, 3.85e-14) == pytest.approx(43.0e6, rel=2e-3)

    def test_bad_wavelength(self):
        with pytest.raises(q.DomainError):
            q.linewidth_from_wavelength_spread(0.0, 1e-12)


class TestPhotonRate:
    def test_microwatt_source_photon_rate(self):
        # 12.5 uW at 518 nm: about 3.3e13 photons per second
        assert q.photon_rate_from_power(12.5e-6, 518e-9) == pytest.approx(3.3e13, rel=0.02)

    def test_zero_power(self):
        assert q.photon_rate_from_power(0.0, 518e-9) == 0.0

    def test_single_photon_energy(self):
        assert q.photon_rate_from_power(3.835e-19, 518e-9) == pytest.approx(1.0, rel=1e-3)


class TestRangeDelay:
    def test_short_range_delay(self):
        # 0.606 ns round trip corresponds to ~91 mm (within the quoted 1.2 mm)
        assert abs(q.range_from_delay(0.606e-9) - 0.0910) < 1.2e-3

    def test_zero(self):
        assert q.range_from_delay(0.0) == 0.0

    def test_long_range_inverse(self):
        assert q.delay_from_range(965.29) == pytest.approx(6439.7e-9, rel=1e-4)

    def test_negative_delay_diagnostic(self):
        assert q.range_from_delay(-1e-9) < 0

    @given(
        st.floats(min_value=1e-3, max_value=1e5),
        st.floats(min_value=1.0, max_value=2.0),
    )
    def test_round_trip_identity(self, distance, index):
        medium = q.Medium(index)
        back = q.range_from_delay(q.delay_from_range(distance, medium), medium)
        assert back == pytest.approx(distance, rel=1e-12)


class TestG2Model:
    def test_peak_value(self):
        assert q.g2_model(0.0, 1.0, 1.0, 0.0, 1e-9) == pytest.approx(2.0)

    def test_half_coherence_time(self):
        assert q.g2_model(0.5e-9, 1.0, 1.0, 0.0, 1e-9) == pytest.approx(1.0 + math.exp(-1.0))

    def test_washed_out_peak(self):
        assert q.g2_model(0.0, 1.0, 0.6, 0.0, 23.2e-9) == pytest.approx(1.6)

    def test_bad_coherence(self):
        with pytest.raises(q.DomainError):
            q.g2_model(0.0, 1.0, 1.0, 0.0, 0.0)

    @given(
        st.floats(min_value=-1e-6, max_value=1e-6),
        st.floats(min_value=-1e-7, max_value=1e-7),
    )
    def test_symmetry_about_delay(self, offset, delay):
        # mirror the offset the model actually sees, (delay + offset) - delay,
        # so both sides reach the exponential with the same |tau - delay|
        seen = (delay + offset) - delay
        assume((delay - seen) - delay == -seen)
        up = q.g2_model(delay + offset, 1.0, 0.8, delay, 5e-9)
        down = q.g2_model(delay - seen, 1.0, 0.8, delay, 5e-9)
        assert up == down

    def test_monotone_decay_to_baseline(self):
        tau = np.linspace(0.0, 50e-9, 200)
        values = q.g2_model(tau, 1.0, 1.0, 0.0, 5e-9)
        assert np.all(np.diff(values) <= 0)
        assert values[-1] == pytest.approx(1.0, abs=1e-8)


class TestSourceSpec:
    def test_power_w_rejected(self):
        # the power field is gone: pass photon_rate_from_power(P, lambda) as the rate
        with pytest.raises(TypeError):
            q.SourceSpec(photon_rate_hz=1.0, coherence_time_s=1e-9, power_w=12.5e-6)

    def test_linewidth_hz_rejected(self):
        # the linewidth field is gone: pass coherence_time_from_linewidth(df) instead
        with pytest.raises(TypeError, match="linewidth_hz"):
            q.SourceSpec(photon_rate_hz=1.0, coherence_time_s=1e-9, linewidth_hz=1e9)

    @pytest.mark.parametrize("coherence_time_s", [0.0, -1e-9, math.nan, math.inf])
    def test_coherence_time_finite_and_positive(self, coherence_time_s):
        with pytest.raises(q.DomainError, match="coherence_time_s"):
            q.SourceSpec(photon_rate_hz=1e6, coherence_time_s=coherence_time_s)

    def test_wavelength_optional_but_positive(self):
        assert q.SourceSpec(photon_rate_hz=1e6, coherence_time_s=1e-9).wavelength_m is None
        for wavelength_m in (0.0, -518e-9):
            with pytest.raises(q.DomainError, match="wavelength"):
                q.SourceSpec(wavelength_m=wavelength_m, photon_rate_hz=1e6, coherence_time_s=1e-9)


class TestTicks:
    def test_overflow_raises(self):
        with pytest.raises(q.DomainError, match="^10000000000.0 s does not fit in 64-bit"):
            q.seconds_to_ticks(1e10)
