"""Bit strings, GF(2) polynomials, LFSR streams, and the Toeplitz hash."""

import math
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqds import gf2_hash
from aqds.gf2_hash import (
    BitString,
    Gf2Poly,
    LfsrToeplitzHasher,
    _BATCH,
    _fold_mod,
    _is_irreducible_value,
    _lane_bytes,
    _mod,
    _mul,
    _SIEVE_DEG,
    _SIEVE_POLYS,
    _small_residues,
    _spread,
    _sq,
    _unspread,
    decode_poly,
    lfsr_stream,
    poly_is_irreducible,
    sample_irreducible,
    toeplitz_oracle,
)

X2_X_1 = Gf2Poly(0b111)  # x^2 + x + 1


def window(bits, start, width):
    """Bits ``start`` .. ``start + width - 1`` of ``bits``."""
    return BitString(bits.value >> start & ((1 << width) - 1), width)


def from_bits(bits):
    """The bit string whose j-th transmitted bit is ``bits[j]``."""
    return BitString(sum(b << j for j, b in enumerate(bits)), len(bits))


def bits_of(b):
    """The bits of ``b`` in transmission order."""
    return [(b.value >> j) & 1 for j in range(b.length)]


def all_irreducibles(n):
    """The degree-n irreducibles, n >= 2, as values."""
    return [v for v in range(1 << n, 1 << (n + 1)) if poly_is_irreducible(v)]


# ---------------------------------------------------------------------------
# BitString


class TestBitString:
    def test_roundtrip_hex(self):
        rng = Random(0)
        for length in (1, 7, 8, 9, 31, 64, 65):
            b = BitString.random(length, rng)
            assert BitString.from_hex(b.to_hex(), length) == b

    def test_msb_first_per_byte(self):
        # bit 0 maps to the high bit of the first byte
        assert from_bits([1, 0, 0, 0, 0, 0, 0, 0]).to_hex() == "80"
        assert from_bits([0, 0, 0, 0, 0, 0, 0, 1]).to_hex() == "01"
        assert from_bits([1, 1]).to_hex() == "c0"

    def test_xor_requires_equal_length(self):
        with pytest.raises(ValueError):
            BitString(0, 4) ^ BitString(0, 5)

    def test_concat_and_split(self):
        a = from_bits([1, 0, 1])
        b = from_bits([0, 1])
        joined = BitString(a.value | b.value << 3, 5)
        assert bits_of(joined) == [1, 0, 1, 0, 1]
        first, rest = joined.split(3)
        assert first == a and rest == b
        assert joined.split(0) == (BitString(0, 0), joined)
        assert joined.split(5) == (joined, BitString(0, 0))
        with pytest.raises(ValueError):
            joined.split(6)

    def test_indexing_and_flip(self):
        b = from_bits([0, 1, 1, 0])
        assert bits_of(b.flip(0, 3)) == [1, 1, 1, 1]
        with pytest.raises(ValueError):
            b.flip(4)

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitString(4, 2)

    @given(st.integers(1, 64), st.integers(0, 2**30))
    def test_xor_involution(self, length, raw):
        a = BitString(raw % (1 << length), length)
        b = BitString((raw * 31) % (1 << length), length)
        assert a ^ b ^ b == a

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 300), st.data())
    def test_hex_roundtrip_any_length(self, length, data):
        b = BitString(data.draw(st.integers(0, (1 << length) - 1)), length)
        text = b.to_hex()
        assert len(text) == 2 * ((length + 7) // 8)
        assert BitString.from_hex(text, length) == b
        # bit j is the (j mod 8)-th most significant bit of byte j // 8
        raw = bytes.fromhex(text)
        assert all((raw[j >> 3] >> (7 - (j & 7))) & 1 == (b.value >> j) & 1
                   for j in range(length))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300).filter(lambda n: n % 8), st.data())
    def test_from_hex_ignores_padding_bits(self, length, data):
        b = BitString(data.draw(st.integers(0, (1 << length) - 1)), length)
        pad = data.draw(st.integers(1, (1 << (8 - length % 8)) - 1))
        raw = bytearray(b.to_bytes())
        raw[-1] |= pad  # set some of the unused low bits of the last byte
        assert BitString.from_hex(raw.hex(), length) == b


# ---------------------------------------------------------------------------
# Irreducibility

# monic irreducibles of degree 1..12 over GF(2): (1/n) sum_{d | n} mu(d) 2^(n/d)
GAUSS_COUNTS = (2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335)
MAX_DEGREE = len(GAUSS_COUNTS)


@pytest.fixture(scope="module")
def reducible():
    """Every reducible polynomial of degree <= MAX_DEGREE, by a product sieve."""
    # reducible iff a product a * b with 1 <= deg a <= deg b
    products = set()
    for da in range(1, MAX_DEGREE // 2 + 1):
        for a in range(1 << da, 1 << (da + 1)):
            for b in range(1 << da, 1 << (MAX_DEGREE - da + 1)):
                products.add(_mul(a, b))
    return products


class TestIrreducibility:
    def test_degree_two(self):
        assert poly_is_irreducible(X2_X_1.value)
        assert not poly_is_irreducible(0b101)  # x^2+1 = (x+1)^2

    @pytest.mark.parametrize("v", [0, 1, 2, 3])
    def test_below_degree_two_raises(self, v):
        # 0, x and x + 1 end at a parity check and 1 reaches the ladder
        for _ in range(2):  # the second call finds no cached verdict
            with pytest.raises(ValueError, match="degree >= 2"):
                poly_is_irreducible(v)

    def test_rejects_constants(self):
        # the hasher owns the contract below degree 2
        with pytest.raises(ValueError):
            LfsrToeplitzHasher(Gf2Poly(1), BitString(0, 0))
        with pytest.raises(ValueError):
            LfsrToeplitzHasher(Gf2Poly(0), BitString(0, 0))

    def test_degree_one_irreducible(self):
        assert LfsrToeplitzHasher(Gf2Poly(0b10), BitString(1, 1)).n == 1
        assert LfsrToeplitzHasher(Gf2Poly(0b11), BitString(1, 1)).n == 1

    def test_against_trial_division(self, reducible):
        # independent oracle over every monic polynomial of degree 2 .. 12,
        # the test's domain
        for v in range(4, 1 << (MAX_DEGREE + 1)):
            assert poly_is_irreducible(v) == (v not in reducible)

    def test_counts_match_gauss_formula(self):
        counts = tuple(len(all_irreducibles(n)) for n in range(2, MAX_DEGREE + 1))
        assert counts == GAUSS_COUNTS[1:]

    def test_ladder_alone_is_exact(self, reducible):
        # the uncached ladder without the parity shortcuts of its callers:
        # its first step takes gcd(x^2 + x, v), which finds the factors x and
        # x + 1, so it is right on even constant terms and even weights too
        ladder = _is_irreducible_value.__wrapped__
        for v in range(2, 1 << (MAX_DEGREE + 1)):
            assert ladder(v) == (v not in reducible)

    def test_count_degree_four(self):
        # 3 irreducibles of degree 4 (exhaustive check over all candidates)
        assert len(all_irreducibles(4)) == 3

    @pytest.mark.parametrize("n, count", [(16, 4080), (17, 7710), (18, 14532)])
    def test_counts_match_gauss_formula_past_the_sieve(self, n, count):
        # from degree 16 on the sieve checks every lane up to degree 8, and
        # from 18 on the ladder takes gcds from d = 9
        assert sum(poly_is_irreducible(v) for v in range(1 << n, 2 << n)) == count


def ben_or(v):
    """Textbook Ben-Or: a gcd at every step d = 1..deg/2, no sieve."""
    def gcd(a, b):
        while b:
            a, b = b, _mod(a, b)
        return a

    b = 2
    for _ in range((v.bit_length() - 1) // 2):
        b = _mod(_mul(b, b), v)
        if gcd(b ^ 2, v) != 1:
            return False
    return True


def random_monic(degree, rng):
    return 1 << degree | rng.getrandbits(degree)


@pytest.fixture(scope="module")
def small_irreducibles(reducible):
    """The irreducibles of degree 1 .. 8 in increasing order."""
    return [v for v in range(2, 1 << 9) if v not in reducible]


class TestSmallFactorSieve:
    """``_is_irreducible_value`` sieves factors of degree <= 8 before its
    ladder.  All eight degrees of lanes take part from degree 16 on, above
    the exhaustive checks up to degree 12."""

    def test_one_lane_per_small_irreducible(self, small_irreducibles):
        assert len(small_irreducibles) == sum(GAUSS_COUNTS[:8]) == 71
        assert list(_SIEVE_POLYS) == small_irreducibles

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2049), st.integers(0, 2**32))
    @example(0, 0)  # v = 0
    @example(2049, 1)
    def test_every_lane_is_the_residue(self, small_irreducibles, bits, seed):
        v = Random(seed).getrandbits(bits)
        lanes = _small_residues(v).to_bytes(len(small_irreducibles), "little")
        assert list(lanes) == [_mod(v, f) for f in small_irreducibles]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(16, 300), st.integers(0, 2**32))
    # deg 16 and 17: the sieve alone decides, the ladder takes no gcd
    @example(16, 0)
    @example(17, 1)
    def test_small_factor_times_anything_is_rejected(self, small_irreducibles,
                                                    degree, seed):
        # every lane, each with its own g of degree >= 8
        rng = Random(seed)
        ladder = _is_irreducible_value.__wrapped__
        for f in small_irreducibles:
            v = _mul(f, random_monic(degree - f.bit_length() + 1, rng))
            assert v.bit_length() - 1 == degree
            assert not ladder(v)
            assert not poly_is_irreducible(v)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(9, 40), st.integers(9, 40), st.integers(0, 2**32))
    # deg 19 and 35: only the gcd at d = 9 finds the degree-9 factor; the
    # ladder stops short of d = 18, which would find it again
    @example(9, 10, 0)
    @example(9, 26, 1)
    # deg 80: at d = 40 both factors divide b + x, so the product reaches 0
    @example(40, 40, 2)
    # the ladder takes its gcds at d = top + _BATCH, top + 2 _BATCH, ...
    # and at d = deg/2: the factor shows at the last step of the first
    # batch, at the first step of the second, and at d = deg/2 in a
    # partial last batch
    @example(_SIEVE_DEG + _BATCH, 40, 3)
    @example(_SIEVE_DEG + _BATCH + 1, 40, 4)
    @example(_SIEVE_DEG + _BATCH + _BATCH // 2,
             _SIEVE_DEG + _BATCH + _BATCH // 2 + 1, 5)
    def test_product_of_two_large_irreducibles_is_rejected(self, df, dg, seed):
        rng = Random(seed)
        v = _mul(sample_irreducible(df, rng), sample_irreducible(dg, rng))
        assert not _is_irreducible_value.__wrapped__(v)
        assert not poly_is_irreducible(v)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(16, 300), st.integers(0, 2**32))
    @example(16, 0)
    @example(300, 1)
    def test_equals_textbook_ben_or(self, degree, seed):
        # random values keep even weights and even constant terms, which
        # the callers' parity checks would keep from the ladder
        v = random_monic(degree, Random(seed))
        assert _is_irreducible_value.__wrapped__(v) == ben_or(v)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(255, 300), st.integers(0, 2**32))
    @example(255, 0)  # the widest degree in byte lanes
    @example(256, 1)  # the first in two-byte lanes
    def test_dense_values_equal_textbook_ben_or(self, degree, seed):
        # all ones with a few bits cleared, an odd weight and constant
        # term 1: dense v gives the Barrett products q v their highest
        # lane counts
        rng = Random(seed)
        cleared = rng.getrandbits(degree) & rng.getrandbits(degree) & rng.getrandbits(degree)
        v = (2 << degree) - 1 ^ cleared & -2  # about an eighth cleared, not bit 0
        v ^= 0 if v.bit_count() & 1 else 2
        assert _is_irreducible_value.__wrapped__(v) == ben_or(v)

    # n = 255 is the widest degree in byte lanes, 256 the first in two-byte ones
    @pytest.mark.parametrize("n, seed", [(16, 3), (40, 4), (82, 5), (255, 6), (256, 7)])
    def test_irreducible_draws_pass_the_textbook_test(self, n, seed):
        # random values are mostly reducible; this checks the other verdict
        rng = Random(seed)
        for _ in range(5):
            assert ben_or(sample_irreducible(n, rng))


class TestIrreducibleCache:
    """Only draws that need the ladder reach ``_is_irreducible_value``."""

    @pytest.mark.parametrize("n, seed", [(16, 13), (82, 5)])
    def test_sampler_caches_only_parity_survivors(self, n, seed):
        _is_irreducible_value.cache_clear()
        p = sample_irreducible(n, Random(seed))
        # replay the draws up to the accepted one (an irreducible draw is
        # accepted the first time it comes up) and keep those with an odd
        # constant term and an odd weight
        rng, survivors = Random(seed), set()
        while True:
            v = rng.getrandbits(n) | 1 << n
            if v & 1 and v.bit_count() & 1:
                survivors.add(v)
            if v == p:
                break
        assert _is_irreducible_value.cache_info().currsize == len(survivors)

    def test_accepted_polynomials_are_pinned(self):
        # the sampler's draws and verdicts, so also its output, are fixed
        pinned = {10: 0x4ed, 44: 0x16c4f821daf1, 82: 0x40a9a332779f130084a4b}
        _is_irreducible_value.cache_clear()
        for n, value in pinned.items():
            assert sample_irreducible(n, Random(2718)) == value

    def test_degree_sixteen_sweep_fits_and_hits(self):
        # 2^14 of the 2^16 monic degree-16 values pass the parity checks,
        # well under the cap, so a second sweep never runs the ladder
        _is_irreducible_value.cache_clear()
        sweep = range(1 << 16, 1 << 17)
        first = [poly_is_irreducible(v) for v in sweep]
        info = _is_irreducible_value.cache_info()
        assert info.currsize <= 1 << 14
        assert [poly_is_irreducible(v) for v in sweep] == first
        again = _is_irreducible_value.cache_info()
        assert again.misses == info.misses
        assert again.hits - info.hits == info.currsize


class TestSampleDecode:
    def test_degree_two_unique(self):
        rng = Random(123)
        for _ in range(20):
            assert sample_irreducible(2, rng) == X2_X_1.value

    def test_encode_decode_roundtrip(self):
        rng = Random(7)
        for _ in range(1000):
            p = sample_irreducible(16, rng)
            assert decode_poly(p ^ 1 << 16, 16) == p

    def test_sampled_always_irreducible(self):
        rng = Random(11)
        for n in (2, 3, 5, 8, 13):
            v = sample_irreducible(n, rng)
            assert ben_or(v) and v.bit_length() - 1 == n

    def test_decode_rejects_reducible(self):
        # bits (0, 1) encode x^2 + x = x(x+1)
        assert decode_poly(0b10, 2) is None

    def test_decode_accepts_irreducible(self):
        assert decode_poly(0b11, 2) == X2_X_1.value

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            sample_irreducible(1, Random(0))

    def test_decode_checks_its_arguments(self):
        for r, n in ((0, 1), (1, 0), (0, -1), (1 << 4, 4), (-1, 4)):
            with pytest.raises(ValueError):
                decode_poly(r, n)

    def test_decode_equals_object_test_exhaustive(self, reducible):
        # every n-bit encoding for n <= 10, against the trial-division sieve
        for n in range(2, 11):
            for r in range(1 << n):
                v = r | 1 << n
                want = None if v in reducible else v
                assert decode_poly(r, n) == want

    @pytest.mark.parametrize("n", [2, 3, 10, 16, 44, 82])
    def test_draws_equal_the_object_loop(self, n):
        # the object loop the int sampler replaced, with the textbook test
        # in place of the sampler's: one Gf2Poly per draw, the accepted
        # draw with its encoding
        def object_loop(n, rng):
            while True:
                low = rng.getrandbits(n)
                p = Gf2Poly(low | 1 << n)
                if ben_or(p.value):
                    return p, BitString(low, n)

        for seed in range(20):
            ints, objects = Random(seed), Random(seed)
            v = sample_irreducible(n, ints)
            p, enc = object_loop(n, objects)
            assert v == p.value and v ^ 1 << n == enc.value
            assert ints.getstate() == objects.getstate()

    def test_sampling_uniform_over_irreducibles(self):
        # every degree-3 irreducible (x^3+x+1, x^3+x^2+1) appears about
        # half the time over many draws
        rng = Random(99)
        counts = {}
        trials = 4000
        for _ in range(trials):
            p = sample_irreducible(3, rng)
            counts[p] = counts.get(p, 0) + 1
        assert set(counts) == {0b1011, 0b1101}
        for c in counts.values():
            assert abs(c - trials / 2) < 3 * math.sqrt(trials * 0.25)


class TestIrreducibilityRouting:
    """Every sampler draw and every decode runs ``poly_is_irreducible``, the
    name the benchmark's tracer counts as irreducibility tests and draws."""

    @pytest.fixture
    def tested(self, monkeypatch):
        tested = []
        test = gf2_hash.poly_is_irreducible
        monkeypatch.setattr(gf2_hash, "poly_is_irreducible",
                            lambda v: tested.append(v) or test(v))
        return tested

    @pytest.mark.parametrize("n", [2, 10, 44])
    def test_sampler_tests_each_draw_once(self, tested, n):
        draws = []

        class Recording(Random):
            def getrandbits(self, k):
                draws.append(super().getrandbits(k))
                return draws[-1]

        v = sample_irreducible(n, Recording(n))
        assert tested == [d | 1 << n for d in draws]
        assert tested[-1] == v

    def test_decode_tests_once_per_call(self, tested):
        verdicts = [decode_poly(r, 4) for r in range(16)]
        assert tested == [r | 1 << 4 for r in range(16)]
        assert sum(v is not None for v in verdicts) == GAUSS_COUNTS[3]


# ---------------------------------------------------------------------------
# LFSR


class TestLfsrStream:
    def test_zero_seed_zero_stream(self):
        for count in (0, 1, 5, 40):
            s = lfsr_stream(X2_X_1, BitString(0, 2), count)
            assert s.value == 0 and s.length == count

    def test_hand_unrolled_period_three(self):
        # s0=1, s1=0, then s_{j+2} = s_j + s_{j+1}: 1,0,1,1,0,1,1,0,1
        s = lfsr_stream(X2_X_1, from_bits([1, 0]), 9)
        assert bits_of(s) == [1, 0, 1, 1, 0, 1, 1, 0, 1]

    def test_prefix_property(self):
        rng = Random(3)
        p = Gf2Poly(sample_irreducible(6, rng))
        seed = BitString.random(6, rng)
        long = lfsr_stream(p, seed, 50)
        for count in (0, 3, 6, 20):
            assert lfsr_stream(p, seed, count) == window(long, 0, count)

    def test_determinism(self):
        p = Gf2Poly(0b1011)
        seed = from_bits([1, 1, 0])
        assert lfsr_stream(p, seed, 30) == lfsr_stream(p, seed, 30)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_period_divides_order(self, n):
        # cycle detection: walk states until the initial window recurs
        rng = Random(n)
        p = Gf2Poly(sample_irreducible(n, rng))
        seed = BitString(rng.getrandbits(n) or 1, n)
        stream = lfsr_stream(p, seed, n + 2 ** n)
        first = window(stream, 0, n)
        period = next(j for j in range(1, 2 ** n + 1)
                      if window(stream, j, n) == first)
        assert (2 ** n - 1) % period == 0

    def test_seed_length_checked(self):
        with pytest.raises(ValueError):
            lfsr_stream(X2_X_1, BitString(0, 3), 5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 400), st.integers(0, 2**32))
    def test_matches_literal_recurrence(self, n, count, seed):
        rng = Random(seed)
        p = Gf2Poly(sample_irreducible(n, rng))
        key = BitString.random(n, rng)
        taps = bits_of(BitString(p.value ^ 1 << n, n))
        s = bits_of(key)[:count]
        while len(s) < count:
            j = len(s) - n
            s.append(sum(taps[i] * s[j + i] for i in range(n)) % 2)
        assert lfsr_stream(p, key, count) == from_bits(s)


# ---------------------------------------------------------------------------
# Hash vs oracle


# frozen vectors computed with the explicit-matrix oracle
HASH_VECTORS = [
    (0x163, 8, 24, "43", "598558", "49"),
    (0x185d, 12, 40, "bb30", "b0382e5034", "f6b0"),
    (0x13635, 16, 64, "0e6c", "d08b0dca88d9fc7c", "6a4f"),
]


class TestHash:
    def test_frozen_vectors(self):
        for pv, n, m, seed_hex, msg_hex, tag_hex in HASH_VECTORS:
            hasher = LfsrToeplitzHasher(Gf2Poly(pv), BitString.from_hex(seed_hex, n))
            tag = hasher.hash(BitString.from_hex(msg_hex, m))
            assert tag.to_hex() == tag_hex

    def test_zero_message_zero_tag(self):
        hasher = LfsrToeplitzHasher(X2_X_1, from_bits([1, 0]))
        assert hasher.hash(BitString(0, 12)).value == 0

    def test_rejects_empty_message(self):
        hasher = LfsrToeplitzHasher(X2_X_1, from_bits([1, 0]))
        with pytest.raises(ValueError):
            hasher.hash(BitString(0, 0))

    def test_rejects_reducible_polynomial(self):
        with pytest.raises(ValueError):
            LfsrToeplitzHasher(Gf2Poly(0b101), BitString(0, 2))

    def test_single_bit_message_extracts_window(self):
        rng = Random(5)
        p = Gf2Poly(sample_irreducible(6, rng))
        seed = BitString.random(6, rng)
        stream = lfsr_stream(p, seed, 6 + 15)
        for j in range(16):
            msg = BitString(1 << j, 16)
            assert toeplitz_oracle(p, seed, msg) == window(stream, j, 6)
            assert LfsrToeplitzHasher(p, seed).hash(msg) == window(stream, j, 6)

    def test_matches_oracle_exhaustive_n4_m4(self):
        rng = Random(17)
        p = Gf2Poly(sample_irreducible(4, rng))
        seed = BitString.random(4, rng)
        hasher = LfsrToeplitzHasher(p, seed)
        for v in range(16):
            msg = BitString(v, 4)
            assert hasher.hash(msg) == toeplitz_oracle(p, seed, msg)

    def test_matches_oracle_random_instances(self):
        rng = Random(2024)
        for _ in range(2000):
            n = rng.randint(2, 16)
            m = rng.randint(1, 64)
            p = Gf2Poly(sample_irreducible(n, rng))
            seed = BitString.random(n, rng)
            msg = BitString.random(m, rng)
            assert LfsrToeplitzHasher(p, seed).hash(msg) == \
                toeplitz_oracle(p, seed, msg)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 48), st.integers(0, 2**32))
    def test_linearity(self, n, m, seed):
        rng = Random(seed)
        p = Gf2Poly(sample_irreducible(n, rng))
        seed = BitString.random(n, rng)
        hasher = LfsrToeplitzHasher(p, seed)
        m1 = BitString.random(m, rng)
        m2 = BitString.random(m, rng)
        assert hasher.hash(m1 ^ m2) == hasher.hash(m1) ^ hasher.hash(m2)


def _random_hasher(n, seed):
    rng = Random(seed)
    p = Gf2Poly(sample_irreducible(n, rng))
    return LfsrToeplitzHasher(p, BitString.random(n, rng)), rng


class TestHashProperties:
    """The folding hash against the oracle across three fold levels.

    With n <= 40 the folds start at w = _FOLD = 256 bits, so m > 512, 1024
    and 2048 take one, two and three folds; the examples sit on those edges
    and one has n > _FOLD, where the first fold is at 512 bits.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 2100), st.integers(0, 2**32))
    @example(40, 63, 1)
    @example(40, 64, 2)
    @example(40, 65, 3)
    @example(2, 64, 4)
    @example(40, 511, 5)
    @example(40, 512, 6)
    @example(40, 513, 7)
    @example(2, 1024, 8)
    @example(40, 1025, 9)
    @example(40, 2049, 10)
    @example(300, 2049, 11)
    def test_matches_oracle(self, n, m, seed):
        hasher, rng = _random_hasher(n, seed)
        msg = BitString.random(m, rng)
        assert hasher.hash(msg) == toeplitz_oracle(hasher.poly, hasher.seed, msg)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 2100), st.integers(0, 2**32))
    def test_linearity(self, n, m, seed):
        hasher, rng = _random_hasher(n, seed)
        m1 = BitString.random(m, rng)
        m2 = BitString.random(m, rng)
        assert hasher.hash(m1 ^ m2) == hasher.hash(m1) ^ hasher.hash(m2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 2100), st.integers(1, 200),
           st.integers(0, 2**32))
    def test_prefix_property(self, n, m, extra, seed):
        # the n x m matrix is the first m columns of the n x (m + extra) one,
        # so trailing zero bits leave the tag unchanged
        hasher, rng = _random_hasher(n, seed)
        msg = BitString.random(m, rng)
        assert hasher.hash(BitString(msg.value, m + extra)) == hasher.hash(msg)


class TestSquare:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1 << 14), st.integers(0, 2**32))
    @example(0, 0)  # a = 0
    @example(1 << 14, 1)
    def test_equals_product_with_itself(self, bits, seed):
        a = Random(seed).getrandbits(bits)
        assert _sq(a) == _mul(a, a)


class TestSpreadProduct:
    """One int multiply of spread operands, masked to each lane's low bit,
    is the GF(2) product while no lane's count passes its width."""

    @pytest.mark.parametrize("bits", [*range(250, 261), 511, 2100])
    def test_dense_product_equals_mul(self, bits):
        # all ones: the middle lane of the square counts ``bits`` terms,
        # which overflows a byte lane from 256 bits on
        a = (1 << bits) - 1
        b = a ^ 1 << bits // 2
        w = _lane_bytes(bits)
        ones = _spread((1 << 2 * bits) - 1, w)
        for x, y in ((a, a), (a, b), (b, b)):
            assert _unspread(_spread(x, w) * _spread(y, w) & ones, w) == _mul(x, y)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2100), st.integers(1, 3), st.integers(0, 2**32))
    @example(0, 1, 0)  # a = 0
    def test_unspread_inverts_spread(self, bits, w, seed):
        a = Random(seed).getrandbits(bits)
        s = _spread(a, w)
        assert _unspread(s, w) == a
        assert all(s >> 8 * w * i & (1 << 8 * w) - 1 == a >> i & 1
                   for i in range(bits))


class TestFoldMod:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 1 << 14), st.integers(0, 2**32))
    @example(2, 0, 1)  # a = 0
    @example(300, 299, 2)  # a < p: no fold, no reduction
    @example(300, 1 << 14, 3)
    def test_equals_plain_mod(self, n, bits, seed):
        # any degree-n modulus: each fold is a congruence mod p, irreducible
        # or not
        rng = Random(seed)
        p = 1 << n | rng.getrandbits(n)
        a = rng.getrandbits(bits)
        assert _fold_mod(a, p) == _mod(a, p)


def xpow_mod(j, p):
    """x^j mod p by square-and-multiply, sharing no step with the folds."""
    r, b = 1, 2
    while j:
        if j & 1:
            r = _mod(_mul(r, b), p)
        b = _mod(_mul(b, b), p)
        j >>= 1
    return r


class TestPaperSize:
    """A 1 MB (2^23-bit) message at n = 91, the paper's eps = 1e-20 point."""

    M, N = 1 << 23, 91

    def test_sparse_message_matches_oracle_on_its_residue(self):
        # tag(M) = tag(M mod p), and M mod p is an n-bit message the oracle
        # can hash
        hasher, rng = _random_hasher(self.N, 23)
        p = hasher.poly.value
        bits = {self.M - 1, 0, 1 << 22, *rng.sample(range(self.M), 5)}
        residue = 0
        for j in bits:
            residue ^= xpow_mod(j, p)
        msg = BitString(sum(1 << j for j in bits), self.M)
        assert hasher.hash(msg) == toeplitz_oracle(
            hasher.poly, hasher.seed, BitString(residue, self.N))

    def test_adding_a_multiple_of_p_leaves_the_tag(self):
        # q p with q = x^(m-n-1) + random lower terms has degree m - 1; p
        # shifted alone would still pass some wrong folds (c = 1 above a
        # level), since its residues mod x^w + 1 stay multiples of p
        hasher, rng = _random_hasher(self.N, 91)
        msg = BitString.random(self.M, rng)
        q = 1 << (self.M - self.N - 1) | rng.getrandbits(self.M - self.N - 1)
        multiple = BitString(_mul(q, hasher.poly.value), self.M)
        assert hasher.hash(msg ^ multiple) == hasher.hash(msg)


class TestCollisionBound:
    def test_random_pair_stays_under_bound(self):
        # fixed distinct messages, hasher drawn fresh per trial
        n, m, trials = 10, 32, 20000
        rng = Random(31337)
        m1 = BitString.random(m, rng)
        m2 = m1.flip(*rng.sample(range(m), 5))
        collisions = 0
        for _ in range(trials):
            p = Gf2Poly(sample_irreducible(n, rng))
            hasher = LfsrToeplitzHasher(p, BitString.random(n, rng))
            if hasher.hash(m1) == hasher.hash(m2):
                collisions += 1
        bound = m / 2 ** (n - 1)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert collisions / trials <= bound + 3 * sigma

    def test_worst_case_difference_stays_under_bound(self):
        # adversarial pair: the difference is a product of three distinct
        # degree-10 irreducibles, so a hasher collides whenever its
        # polynomial divides the difference -- the regime the bound covers
        n, m, trials = 10, 32, 20000
        rng = Random(271828)
        irr = all_irreducibles(n)
        w = _mul(_mul(irr[3], irr[17]), irr[42])
        assert w.bit_length() <= m
        m1 = BitString.random(m, rng)
        m2 = m1 ^ BitString(w, m)
        collisions = 0
        for _ in range(trials):
            p = Gf2Poly(sample_irreducible(n, rng))
            hasher = LfsrToeplitzHasher(p, BitString.random(n, rng))
            if hasher.hash(m1) == hasher.hash(m2):
                collisions += 1
        bound = m / 2 ** (n - 1)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        rate = collisions / trials
        assert rate <= bound + 3 * sigma
        # and the attack is real: collisions do happen at roughly 3/99
        assert rate > bound / 8


class TestOracle:
    def test_zero_message(self):
        assert toeplitz_oracle(X2_X_1, from_bits([1, 1]),
                               BitString(0, 9)).value == 0

    def test_oracle_checks_lengths(self):
        with pytest.raises(ValueError):
            toeplitz_oracle(X2_X_1, BitString(0, 3), BitString(0, 4))
        with pytest.raises(ValueError):
            toeplitz_oracle(X2_X_1, BitString(0, 2), BitString(0, 0))
