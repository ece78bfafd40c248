"""Signing, verification, round close, and timeout claims."""

import gc
import math
import weakref
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqds import protocol
from aqds.gf2_hash import (
    BitString,
    Gf2Poly,
    LfsrToeplitzHasher,
    decode_poly,
    poly_is_irreducible,
    sample_irreducible,
    toeplitz_oracle,
)
from aqds.keymat import KeyBundle, SessionKeys, combine, distribute_keys
from aqds.protocol import (
    ForwardPacket,
    RoundAbortError,
    RoundRecord,
    SignatureBundle,
    VerificationOutcome,
    arbitrator_close_round,
    arbitrator_verify,
    receiver_verify,
    sign,
    timeout_forward_verify,
)

A = VerificationOutcome.ACCEPTED
R = VerificationOutcome.REJECTED


def honest_setup(n=16, k=3, m=64, seed=0):
    rng = Random(seed)
    bundles, arb = distribute_keys(n, k, rng)
    sk = combine(bundles, arb)
    message = BitString.random(m, rng)
    return rng, bundles, arb, sk, sign(message, sk, rng)


class TestSign:
    def test_honest_end_to_end(self):
        _, _, _, sk, bundle = honest_setup()
        assert receiver_verify(bundle, sk) is A

    def test_decrypt_identity(self):
        # stripping the pad recovers tag || encoding of the sampled polynomial
        _, _, _, sk, bundle = honest_setup(n=12, m=40)
        replay = Random(0)  # honest_setup's draws, up to the one sign makes
        distribute_keys(12, 3, replay)
        BitString.random(40, replay)
        poly, r_s = sample_irreducible(12, replay)
        tag, r = (sk.xs ^ bundle.signature).split(12)
        assert r == r_s
        assert tag == LfsrToeplitzHasher(poly, sk.ys).hash(bundle.message)

    def test_fresh_randomizer_per_signature(self):
        rng = Random(8)
        bundles, arb = distribute_keys(16, 2, rng)
        sk = combine(bundles, arb)
        message = BitString.random(64, rng)
        r1, r2 = ((sk.xs ^ sign(message, sk, Random(seed)).signature).split(16)[1]
                  for seed in (100, 101))
        assert r1 != r2

    def test_signature_length(self):
        _, _, _, sk, bundle = honest_setup(n=10)
        assert bundle.signature.length == 20

    def test_rejects_empty_message(self):
        _, _, _, sk, _ = honest_setup()
        with pytest.raises(ValueError):
            sign(BitString.zeros(0), sk, Random(0))


class TestReceiverVerify:
    def test_length_mismatch_invalid(self):
        _, _, _, sk, bundle = honest_setup(n=16)
        short = SessionKeys(BitString.zeros(24), BitString.zeros(12))
        assert receiver_verify(bundle, short) is VerificationOutcome.INVALID

    def test_single_flipped_bit_mostly_rejected(self):
        # Monte Carlo: acceptance of a one-bit tamper stays under m/2^(n-1)
        n, m, trials = 10, 32, 20000
        rng = Random(77)
        accepted = 0
        for _ in range(trials):
            bundles, arb = distribute_keys(n, 1, rng)
            sk = combine(bundles, arb)
            bundle = sign(BitString.random(m, rng), sk, rng)
            tampered = SignatureBundle(bundle.message.flip(rng.randrange(m)),
                                       bundle.signature)
            if receiver_verify(tampered, sk) is A:
                accepted += 1
        bound = m / 2 ** (n - 1)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert accepted / trials <= bound + 3 * sigma

    def test_random_signature_rarely_accepted(self):
        n, m, trials = 8, 32, 20000
        rng = Random(78)
        accepted = 0
        for _ in range(trials):
            sk = SessionKeys(BitString.random(2 * n, rng), BitString.random(n, rng))
            forged = SignatureBundle(BitString.random(m, rng),
                                     BitString.random(2 * n, rng))
            if receiver_verify(forged, sk) is A:
                accepted += 1
        bound = 2.0 ** -n
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert accepted / trials <= bound + 3 * sigma

    def test_reducible_decode_rejected_not_crashed(self):
        # force the decrypted encoding to decode reducible: n=2, encoding
        # (0, 0) is x^2, so craft the signature accordingly
        rng = Random(9)
        sk = SessionKeys(BitString.random(4, rng), BitString.random(2, rng))
        digest = BitString.zeros(2).concat(BitString.zeros(2)) ^ sk.xs
        bundle = SignatureBundle(BitString.random(8, rng), digest)
        assert receiver_verify(bundle, sk) is R


class TestArbitratorVerify:
    def test_untampered_forward_accepted(self):
        _, bundles, _, sk, bundle = honest_setup()
        packet = ForwardPacket("r1", bundle, bundles[0], sent_at=2)
        assert arbitrator_verify(packet, sk) is A

    def test_verdicts_agree_with_receiver(self):
        rng = Random(10)
        for trial in range(200):
            n = rng.choice([4, 8, 12])
            bundles, arb = distribute_keys(n, 1, rng)
            sk = combine(bundles, arb)
            bundle = sign(BitString.random(24, rng), sk, rng)
            if trial % 2:
                bundle = SignatureBundle(bundle.message,
                                         bundle.signature.flip(rng.randrange(2 * n)))
            packet = ForwardPacket("r1", bundle, bundles[0], sent_at=1)
            assert arbitrator_verify(packet, sk) is receiver_verify(bundle, sk)

    def test_packet_key_shape_validated(self):
        _, bundles, _, sk, bundle = honest_setup(n=16)
        wrong = KeyBundle(BitString.zeros(8), BitString.zeros(4))
        with pytest.raises(ValueError):
            ForwardPacket("r1", bundle, wrong, sent_at=0)


class TestCloseRound:
    def setup_round(self, k=3, n=8, timeouts=()):
        rng = Random(20)
        bundles, arb = distribute_keys(n, k, rng)
        sk = combine(bundles, arb)
        message = BitString.random(32, rng)
        bundle = sign(message, sk, rng)
        ids = tuple(f"r{i}" for i in range(1, k + 1))
        record = RoundRecord.open(ids, deadline=10, arbitrator_keys=arb)
        packets = [ForwardPacket(rid, bundle, kb, sent_at=2)
                   for rid, kb in zip(ids, bundles) if rid not in timeouts]
        keymap = dict(zip(ids, bundles))
        return sk, bundle, record, packets, keymap

    def test_all_on_time_matches_signer(self):
        sk, _, record, packets, _ = self.setup_round()
        session = arbitrator_close_round(record, packets, now=10, fetched={})
        assert session == sk

    def test_timeout_key_fetched_same_session(self):
        sk, _, record, packets, keymap = self.setup_round(timeouts=("r2",))
        session = arbitrator_close_round(record, packets, now=10,
                                         fetched={"r2": keymap["r2"]})
        assert session == sk
        assert record.verdicts["r2"] is VerificationOutcome.TIMED_OUT
        assert set(record.key_set) == {"r1", "r2", "r3"}

    def test_late_sent_packet_not_counted(self):
        sk, bundle, record, packets, keymap = self.setup_round(timeouts=("r3",))
        late = ForwardPacket("r3", bundle, keymap["r3"], sent_at=11)
        session = arbitrator_close_round(record, packets + [late], now=12,
                                         fetched={"r3": keymap["r3"]})
        assert record.verdicts["r3"] is VerificationOutcome.TIMED_OUT
        assert session == sk

    def test_cannot_close_early(self):
        _, _, record, packets, _ = self.setup_round()
        with pytest.raises(ValueError):
            arbitrator_close_round(record, packets, now=9, fetched={})

    def test_missing_timeout_key_aborts(self):
        _, _, record, packets, _ = self.setup_round(timeouts=("r1",))
        with pytest.raises(RoundAbortError, match="r1"):
            arbitrator_close_round(record, packets, now=10, fetched={})


class TestTimeoutForwardVerify:
    def closed_record(self):
        sk, bundle, record, packets, keymap = TestCloseRound().setup_round()
        arbitrator_close_round(record, packets, now=10, fetched=keymap)
        record.archive_verified(bundle)
        return record, bundle, keymap

    def test_genuine_replay_with_genuine_key(self):
        record, bundle, keymap = self.closed_record()
        assert timeout_forward_verify(record, "r2", bundle, keymap["r2"]) is True

    def test_fabricated_key_rejected(self):
        record, bundle, _ = self.closed_record()
        fake = KeyBundle(BitString.random(16, Random(99)),
                         BitString.random(8, Random(98)))
        assert timeout_forward_verify(record, "r1", bundle, fake) is False

    def test_modified_message_rejected(self):
        record, bundle, keymap = self.closed_record()
        tampered = SignatureBundle(bundle.message.flip(0), bundle.signature)
        assert timeout_forward_verify(record, "r1", tampered, keymap["r1"]) is False

    def test_no_archived_signature_rejects(self):
        _, bundle, record, packets, keymap = TestCloseRound().setup_round()
        arbitrator_close_round(record, packets, now=10, fetched=keymap)
        assert timeout_forward_verify(record, "r1", bundle, keymap["r1"]) is False

    def test_another_receivers_key_rejected(self):
        # r2's key belongs to the round, but not to the claimant r1
        record, bundle, keymap = self.closed_record()
        assert keymap["r1"] != keymap["r2"]
        assert timeout_forward_verify(record, "r1", bundle, keymap["r2"]) is False


def signed_tag(bundle, sk):
    """The tag and polynomial a signature carries under ``sk``."""
    tag, r = (sk.xs ^ bundle.signature).split(sk.n)
    return tag, decode_poly(r)


def fresh_verdict(bundle, sk):
    """``receiver_verify`` with the tag memo emptied, then put back."""
    saved = protocol._last_tag
    protocol._last_tag = None
    try:
        return receiver_verify(bundle, sk)
    finally:
        protocol._last_tag = saved


# one step: (action, message 0-3, key set 0-2, signature bit to flip or None)
STEPS = st.lists(st.tuples(st.sampled_from(("sign", "verify", "arbitrate")),
                           st.integers(0, 3), st.integers(0, 2),
                           st.none() | st.integers(0, 63)),
                 min_size=1, max_size=24)


class TestTagMemo:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 80), st.integers(0, 2**32), STEPS)
    def test_interleaved_calls_match_oracle_and_fresh_verdicts(self, n, m, seed,
                                                               steps):
        rng = Random(seed)
        keys = []
        for _ in range(3):
            bundles, arb = distribute_keys(n, 1, rng)
            keys.append((bundles[0], combine(bundles, arb)))
        message = BitString.random(m, rng)
        # the message, an equal-valued distinct object, and two tampered copies
        messages = [message, BitString(message.value, m),
                    message.flip(rng.randrange(m)), message.flip(0, m - 1)]
        signed = [sign(message, keys[0][1], rng)]
        for action, which, key, flip in steps:
            msg = messages[which]
            link, sk = keys[key]
            if action == "sign":
                bundle = sign(msg, sk, rng)
                tag, poly = signed_tag(bundle, sk)
                assert tag == toeplitz_oracle(poly, sk.ys, msg)
                signed.append(bundle)
                continue
            signature = signed[-1].signature
            if flip is not None:
                signature = signature.flip(flip % signature.length)
            bundle = SignatureBundle(msg, signature)
            if action == "verify":
                verdict = receiver_verify(bundle, sk)
            else:
                verdict = arbitrator_verify(
                    ForwardPacket("r1", bundle, link, sent_at=0), sk)
            assert verdict is fresh_verdict(bundle, sk)

    def test_same_message_with_flipped_tag_bit_rejected(self):
        _, _, _, sk, bundle = honest_setup()
        assert receiver_verify(bundle, sk) is A  # the memo now holds this message
        for bit in range(sk.n):
            forged = SignatureBundle(bundle.message, bundle.signature.flip(bit))
            assert receiver_verify(forged, sk) is R

    def test_same_message_under_another_seed_rejected(self):
        _, _, _, sk, bundle = honest_setup()
        assert receiver_verify(bundle, sk) is A
        tag, poly = signed_tag(bundle, sk)
        for bit in range(sk.n):
            other = SessionKeys(sk.xs, sk.ys.flip(bit))
            # the tag under the other seed really differs, so acceptance
            # could only come from a stale memo entry
            assert toeplitz_oracle(poly, other.ys, bundle.message) != tag
            assert receiver_verify(bundle, other) is R

    def test_memo_holds_only_the_last_message(self):
        rng, _, _, sk, bundle = honest_setup()
        first = weakref.ref(bundle.message)
        del bundle
        gc.collect()
        assert first() is not None  # one entry keeps the last message alive
        sign(BitString.random(64, rng), sk, rng)
        gc.collect()
        assert first() is None


class TestVerifyOffTheMemo:
    def test_every_signature_bit_flip_matches_fresh_verdict(self, monkeypatch):
        _, _, _, sk, bundle = honest_setup(n=16)
        decodes = []
        monkeypatch.setattr(protocol, "decode_poly",
                            lambda r: decodes.append(r) or decode_poly(r))
        for bit in range(2 * sk.n):
            assert receiver_verify(bundle, sk) is A  # the memo holds the bundle
            forged = SignatureBundle(bundle.message, bundle.signature.flip(bit))
            decodes.clear()
            verdict = receiver_verify(forged, sk)
            # bits 0..n-1 carry the tag and hit the memo; the rest carry the
            # polynomial, miss it and decode
            assert len(decodes) == (bit >= sk.n)
            assert verdict is fresh_verdict(forged, sk)
            if bit < sk.n:
                assert verdict is R

    def test_signature_wider_than_2n_bits_raises_on_a_memo_hit_too(self):
        _, _, _, sk, bundle = honest_setup(n=16)
        assert receiver_verify(bundle, sk) is A  # the memo holds the bundle
        wide = bundle.signature.value | 1 << 2 * sk.n
        with pytest.raises(ValueError):
            protocol.accepts(bundle.message, wide, sk.xs.value, sk.ys.value, sk.n)


class TestIntCoreExhaustive:
    @pytest.mark.parametrize("n, messages", [
        (2, [BitString(v, m) for m in range(1, 5) for v in range(1 << m)]),
        (3, [BitString(0b1, 1), BitString(0b0110, 4), BitString(0xA5, 8)]),
    ], ids=["n2-every-message-1-4-bits", "n3-three-messages"])
    def test_receiver_verify_equals_oracle_recomputation(self, n, messages):
        # every (xs, ys, signature): the signature is xs ^ plain, so running
        # plain and xs over all values covers every signature under every pad
        for message in messages:
            for plain in range(1 << 2 * n):
                poly = Gf2Poly(plain >> n | 1 << n)
                tag = BitString(plain & ((1 << n) - 1), n)
                for ys in range(1 << n):
                    seed = BitString(ys, n)
                    want = A if (poly_is_irreducible(poly)
                                 and toeplitz_oracle(poly, seed, message) == tag) else R
                    for xs in range(1 << 2 * n):
                        bundle = SignatureBundle(message, BitString(xs ^ plain, 2 * n))
                        sk = SessionKeys(BitString(xs, 2 * n), seed)
                        assert fresh_verdict(bundle, sk) is want, (bundle, sk)
