"""Rate chain, window efficiency, and the signing-time/round planners."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aqds.keymat import required_n
from aqds.qkd_model import (
    InfeasibleDistanceError,
    NoSignalError,
    SourceParams,
    binary_entropy,
    load_source_params,
    rate_at_distance,
    supported_rounds,
    time_to_sign,
    window_efficiency,
)

TABLE1 = SourceParams()


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        for x in (0.1, 0.25, 0.4):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x))

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)


class TestWindowEfficiency:
    def test_saturates_for_wide_window(self):
        assert window_efficiency(1e-6, 1e-12) == pytest.approx(1.0, abs=1e-6)

    def test_equal_window_and_jitter(self):
        # erf(sqrt(ln 2)) = 0.76097..., the tabulated 0.761
        assert round(window_efficiency(500e-12, 500e-12), 3) == 0.761

    def test_quadrature_oracle(self):
        # numerically integrate the normalized arrival-time density over the
        # window and compare with the closed form
        for t_cc, t_delta in [(500e-12, 500e-12), (1e-12, 4e-12), (3e-9, 1e-9)]:
            def density(t):
                return (2.0 / t_delta) * math.sqrt(math.log(2) / math.pi) * \
                    math.exp(-4.0 * math.log(2) / t_delta ** 2 * t * t)
            integral, err = quad(density, -t_cc / 2, t_cc / 2)
            assert window_efficiency(t_cc, t_delta) == pytest.approx(
                integral, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 2.5), st.floats(1.01, 2.0))
    def test_monotonic(self, ratio, factor):
        # below erf saturation (ratio <= 5 keeps the value away from 1.0)
        t_delta = 1e-10
        t_cc = ratio * t_delta
        assert window_efficiency(t_cc * factor, t_delta) > \
            window_efficiency(t_cc, t_delta)
        assert window_efficiency(t_cc, t_delta * factor) < \
            window_efficiency(t_cc, t_delta)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            window_efficiency(0.0, 1e-12)


class TestSourceParams:
    def test_pair_error_combines_sides(self):
        p = SourceParams(e_pol_a=0.0181, e_pol_b=0.0181)
        assert p.e_pol == pytest.approx(2 * 0.0181 * (1 - 0.0181))

    def test_eta_tcc_and_jitter_together_rejected(self):
        with pytest.raises(ValueError, match="eta_tcc and t_delta"):
            SourceParams(eta_tcc=0.761, t_delta=500e-12)

    def test_eta_tcc_derived_from_jitter(self):
        p = SourceParams(eta_tcc=None, t_delta=500e-12)
        assert p.resolved_eta_tcc() == pytest.approx(
            window_efficiency(500e-12, 500e-12))

    def test_needs_one_of_eta_or_jitter(self):
        with pytest.raises(ValueError):
            SourceParams(eta_tcc=None, t_delta=None)

    def test_load_from_file(self, tmp_path):
        cfg = tmp_path / "source.ini"
        cfg.write_text("[source]\nbrightness = 5e7\nreceiver-loss-db = 2\n")
        p = load_source_params(cfg)
        assert p.brightness == 5e7
        assert p.receiver_loss_db == 2.0
        assert p.alpha_db_per_km == 0.2  # default retained

    def test_jitter_only_file_derives_window(self, tmp_path):
        cfg = tmp_path / "source.ini"
        cfg.write_text("[source]\nt-delta = 5e-10\n")
        p = load_source_params(cfg)
        assert p.eta_tcc is None
        assert p.resolved_eta_tcc() == pytest.approx(
            window_efficiency(500e-12, 5e-10))



class TestRateChain:
    def test_lossless_noiseless_limit(self):
        # perfect arms, no dark counts, no polarization error, zero window:
        # every pair is a clean measured coincidence and R = q B exactly
        p = SourceParams(e_pol_a=0.0, e_pol_b=0.0, dark_count=0.0, t_cc=0.0,
                         receiver_loss_db=0.0, eta_tcc=1.0)
        r = rate_at_distance(p, 0.0)
        assert r.cc_true == p.brightness
        assert r.cc_acc == 0.0
        assert r.qber == 0.0
        assert r.secure_rate == p.q_sift * p.brightness

    def test_chain_consistency(self):
        r = rate_at_distance(TABLE1, 100.0)
        assert r.cc_measured >= 0.761 * r.cc_true
        assert r.cc_err <= r.cc_measured
        assert 0.0 <= r.qber <= 1.0

    def test_qber_approaches_half_when_accidentals_dominate(self):
        p = SourceParams(dark_count=1e9, eta_tcc=1.0)
        r = rate_at_distance(p, 570.0)  # 60 dB per arm
        assert r.qber == pytest.approx(0.5, abs=0.01)
        assert r.secure_rate == 0.0  # clamped: entropy terms exceed 1

    def test_clamp_boundary(self):
        r = rate_at_distance(TABLE1, 1000.0)
        h = binary_entropy(r.qber)
        assert 1.0 - TABLE1.f_ec * h - h <= 0.0
        assert r.secure_rate == 0.0

    def test_no_signal_error(self):
        p = SourceParams(brightness=0.0, dark_count=0.0, eta_tcc=1.0)
        with pytest.raises(NoSignalError):
            rate_at_distance(p, 0.0)

    def test_paper_operating_point(self):
        # 360 km span, source at midpoint, 3 dB per receiving side
        r = rate_at_distance(TABLE1, 360.0)
        assert 0.1 <= r.secure_rate <= 0.4

    def test_monotone_rate_in_distance(self):
        rates = [rate_at_distance(TABLE1, d).secure_rate
                 for d in (0, 50, 100, 200, 300, 400)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestTimeToSign:
    def test_zero_distance_minimum(self):
        n = required_n(2 ** 23, 1e-20)
        expected = 3 * n / rate_at_distance(TABLE1, 0.0).secure_rate
        assert time_to_sign(TABLE1, 0.0, 2 ** 23, 1e-20) == pytest.approx(expected)

    def test_monotone_in_distance(self):
        times = [time_to_sign(TABLE1, d, 2 ** 23, 1e-20)
                 for d in (0, 100, 200, 300, 360)]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_paper_order_of_magnitude(self):
        t = time_to_sign(TABLE1, 360.0, 2 ** 23, 1e-20)
        assert 3.3e2 <= t <= 3e3

    def test_infeasible_distance(self):
        with pytest.raises(InfeasibleDistanceError):
            time_to_sign(TABLE1, 2000.0, 2 ** 23, 1e-20)


class TestSupportedRounds:
    def test_laboratory_case(self):
        assert supported_rounds([7140816], 2 ** 13, 1e-10) == 49589

    def test_metropolitan_case(self):
        assert supported_rounds([901], 2 ** 13, 1e-10) == 6

    def test_bottleneck_is_minimum(self):
        assert supported_rounds([10 ** 7, 901, 10 ** 6], 2 ** 13, 1e-10) == 6

    def test_small_stock_zero_rounds(self):
        assert supported_rounds([143], 2 ** 13, 1e-10) == 0

    def test_matches_repeated_subtraction(self):
        # oracle: spend 3n per round until the bottleneck runs dry
        for stock in (0, 143, 144, 1000, 901, 7140816):
            per_round = 3 * required_n(2 ** 13, 1e-10)
            remaining, rounds = stock, 0
            while remaining >= per_round:
                remaining -= per_round
                rounds += 1
            assert supported_rounds([stock], 2 ** 13, 1e-10) == rounds

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            supported_rounds([], 2 ** 13, 1e-10)
