"""Key bundles, XOR combination, and the key-sizing formulas."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqds.gf2_hash import BitString
from aqds.keymat import (
    KeyBundle,
    SecurityParams,
    SessionKeys,
    combine,
    distribute_keys,
    link_bits,
    required_n,
    total_consumption,
)


class TestDistributeKeys:
    def test_size_contract(self):
        bundles, arb = distribute_keys(4, 2, Random(0))
        assert len(bundles) == 2
        for b in (*bundles, arb):
            assert b.x.length == 8 and b.y.length == 4

    def test_deterministic_under_seed(self):
        assert distribute_keys(8, 3, Random(5)) == distribute_keys(8, 3, Random(5))

    def test_bit_balance(self):
        # 10^6 generated bits have mean within 3 sigma of one half
        rng = Random(42)
        ones = total = 0
        while total < 1_000_000:
            bundles, arb = distribute_keys(32, 9, rng)
            for b in (*bundles, arb):
                ones += b.x.value.bit_count() + b.y.value.bit_count()
                total += b.x.length + b.y.length
        sigma = 0.5 / math.sqrt(total)
        assert abs(ones / total - 0.5) < 3 * sigma

    @pytest.mark.parametrize("n", [2, 16, 44, 82])
    def test_random_bundle_draws_as_two_bit_strings(self, n):
        # x's 2n bits, then y's n bits, with the rng left where the two
        # BitString draws leave it
        rng, replay = Random(n), Random(n)
        kb = KeyBundle.random(n, rng)
        want = KeyBundle(BitString.random(2 * n, replay).value,
                         BitString.random(n, replay).value, n)
        assert kb == want
        assert (kb.x, kb.y) == (want.x, want.y)
        assert rng.getstate() == replay.getstate()

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            distribute_keys(1, 2, Random(0))
        with pytest.raises(ValueError):
            distribute_keys(4, 0, Random(0))


class TestCombine:
    def test_signer_equals_arbitrator(self):
        bundles, arb = distribute_keys(16, 5, Random(1))
        assert combine(bundles, arb) == combine(bundles, arb)

    def test_zero_receiver_keys_yield_arbitrator(self):
        zero = KeyBundle(0, 0, 4)
        _, arb = distribute_keys(4, 1, Random(2))
        sk = combine([zero], arb)
        assert sk.xs == arb.x and sk.ys == arb.y

    def test_order_independent(self):
        bundles, arb = distribute_keys(8, 4, Random(3))
        assert combine(bundles, arb) == combine(list(reversed(bundles)), arb)

    def test_self_inverse(self):
        # folding the combined keys back in as one more bundle recovers arb
        bundles, arb = distribute_keys(8, 3, Random(4))
        sk = combine(bundles, arb)
        back = combine(bundles, KeyBundle(sk.x_value, sk.y_value, sk.n))
        assert back.xs == arb.x and back.ys == arb.y

    def test_length_mismatch_rejected(self):
        a = KeyBundle(0, 0, 4)
        b = KeyBundle(0, 0, 8)
        with pytest.raises(ValueError):
            combine([a], b)

    def test_bundle_shape_validated(self):
        for cls in (KeyBundle, SessionKeys):
            assert cls((1 << 8) - 1, (1 << 4) - 1, 4).n == 4
            for x, y in ((1 << 8, 0), (0, 1 << 4), (-1, 0), (0, -1)):
                with pytest.raises(ValueError, match="must fit in 8 and 4 bits"):
                    cls(x, y, 4)


class TestRequiredN:
    @pytest.mark.parametrize("m_bits,eps,expected", [
        (8, 1e-10, 38),
        (2**23, 1e-10, 58),
        (2**13, 1e-10, 48),
        (2**13, 1e-14, 61),
        (2**23, 1e-14, 71),
        (2**23, 1e-20, 91),
    ])
    def test_pinned_values(self, m_bits, eps, expected):
        assert required_n(m_bits, eps) == expected

    def test_brute_force_minimality(self):
        # oracle: scan n upward with exact rational comparison
        for m_bits, eps in [(1, 0.5), (8, 1e-10), (1000, 1e-6), (2**13, 1e-14)]:
            n = 1
            while Fraction(m_bits, 2 ** (n - 1)) > Fraction(eps):
                n += 1
            assert required_n(m_bits, eps) == n

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2**30), st.integers(2, 60))
    def test_bound_satisfied_minimally(self, m_bits, neg_exp):
        eps = 2.0 ** -neg_exp
        n = required_n(m_bits, eps)
        assert Fraction(m_bits, 2 ** (n - 1)) <= Fraction(eps)
        if n > 1:
            assert Fraction(m_bits, 2 ** (n - 2)) > Fraction(eps)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**64), st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        # subnormals: every multiple of the smallest positive double below 2^-1022
        st.integers(1, 2**52 - 1).map(lambda i: math.ldexp(i, -1074))))
    def test_exact_for_every_double(self, m_bits, eps):
        n = required_n(m_bits, eps)
        assert Fraction(m_bits, 2 ** (n - 1)) <= Fraction(eps) < Fraction(m_bits, 2 ** (n - 2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2**20), st.integers(1, 2**20))
    def test_monotone_in_message_length(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert required_n(lo, 1e-10) <= required_n(hi, 1e-10)

    def test_monotone_in_epsilon(self):
        for eps_hi, eps_lo in [(1e-6, 1e-10), (1e-10, 1e-14), (0.5, 1e-3)]:
            assert required_n(1024, eps_hi) <= required_n(1024, eps_lo)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            required_n(0, 1e-10)
        with pytest.raises(ValueError):
            required_n(8, 0.0)
        with pytest.raises(ValueError):
            required_n(8, 1.0)


class TestTotalConsumption:
    def test_table_values(self):
        assert total_consumption(8, 1e-10, 7) == 912
        assert total_consumption(2**23, 1e-10, 4) == 870
        assert total_consumption(2**13, 1e-14, 10) == 2013

    def test_arbitrator_only(self):
        assert total_consumption(8, 1e-10, 0) == 3 * 38


class TestSecurityParams:
    def test_n_always_derived(self):
        sec = SecurityParams(m_bits=2**13, eps_f=1e-10, k=6)
        assert sec.n == 48
        assert link_bits(sec.m_bits, sec.eps_f) == 144
        assert total_consumption(sec.m_bits, sec.eps_f, sec.k) == 144 * 7

    def test_for_n_roundtrip(self):
        for n in (8, 16, 32):
            sec = SecurityParams.for_n(n, 64, 3)
            assert sec.n == n

    def test_for_n_rejects_long_message(self):
        with pytest.raises(ValueError):
            SecurityParams.for_n(4, 64, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_for_n_is_exact_below_2_to_53(self, data):
        # m < 2^53 and n <= 1074 keep m / 2^(n-1) exact as a float, down
        # into the subnormals, so the chosen n is always the minimal one
        n = data.draw(st.integers(2, 1074))
        m = data.draw(st.integers(1, min(2**53, 2 ** (n - 1)) - 1))
        assert SecurityParams.for_n(n, m, 1).n == n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 2048).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 2 ** (n - 1) - 1))))
    # the bound m / 2^(n-1) is exact, also where no float holds it: a
    # subnormal that loses m's low bits, m with 61 significant bits, and a
    # bound below the smallest subnormal
    @example((1080, 4001))
    @example((1060, 2**60 + 1))
    @example((2000, 4000))
    def test_for_n_is_exact(self, n_and_m):
        n, m = n_and_m
        assert SecurityParams.for_n(n, m, 1).n == n

    def test_for_n_exact_far_beyond_double_range(self):
        assert SecurityParams.for_n(2000, 2**1063, 1).n == 2000
