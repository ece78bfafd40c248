"""Signing, verification, round close, and timeout claims."""

import copy
import gc
import math
import pickle
import weakref
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqds import protocol
from aqds.adversary import forgery_known_signature
from aqds.gf2_hash import (
    BitString,
    Gf2Poly,
    LfsrToeplitzHasher,
    _mod,
    _mul,
    _toeplitz_tag,
    decode_poly,
    sample_irreducible,
    toeplitz_oracle,
)
from aqds.keymat import KeyBundle, SecurityParams, SessionKeys, combine, distribute_keys
from aqds.netsim import AdversaryScript, Rule, Topology, run_round
from aqds.protocol import (
    ForwardPacket,
    RoundRecord,
    SignatureBundle,
    TagMemo,
    VerificationOutcome,
    arbitrator_close_round,
    arbitrator_verify,
    receiver_verify,
    sign,
    timeout_forward_verify,
)

A = VerificationOutcome.ACCEPTED
R = VerificationOutcome.REJECTED


def honest_setup(n=16, k=3, m=64, seed=0, memo=None):
    rng = Random(seed)
    bundles, arb = distribute_keys(n, k, rng)
    sk = combine(bundles, arb)
    message = BitString.random(m, rng)
    return rng, bundles, arb, sk, sign(message, sk, rng, memo)


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
        poly = sample_irreducible(12, replay)
        tag, r = (sk.xs ^ bundle.signature).split(12)
        assert r == BitString(poly ^ 1 << 12, 12)
        assert tag == LfsrToeplitzHasher(Gf2Poly(poly), sk.ys).hash(bundle.message)

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
            sign(BitString(0, 0), sk, Random(0))


class TestReceiverVerify:
    def test_length_mismatch_invalid(self):
        _, _, _, sk, bundle = honest_setup(n=16)
        short = SessionKeys(0, 0, 12)
        with pytest.raises(ValueError):
            receiver_verify(bundle, short)

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
            sk = SessionKeys.random(n, rng)
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
        sk = SessionKeys.random(2, rng)
        digest = BitString(0, 4) ^ sk.xs
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
        wrong = KeyBundle(0, 0, 4)
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

    @pytest.mark.parametrize("sent_at, on_time", [(9, True), (10, True), (11, False)])
    def test_packet_sent_at_the_deadline_counts(self, sent_at, on_time):
        # netsim stops collecting at the close, so only a direct caller
        # reaches this boundary: the deadline is 10 and sent_at <= 10 counts
        sk, bundle, record, packets, keymap = self.setup_round(timeouts=("r3",))
        packet = ForwardPacket("r3", bundle, keymap["r3"], sent_at=sent_at)
        fetched = {} if on_time else {"r3": keymap["r3"]}  # {} raises on a timeout
        session = arbitrator_close_round(record, packets + [packet], now=11,
                                         fetched=fetched)
        assert session == sk
        assert record.verdicts == ({} if on_time else {"r3": VerificationOutcome.TIMED_OUT})

    def test_packet_from_outside_the_round_is_ignored(self):
        sk, bundle, record, packets, _ = self.setup_round()
        _, stranger = distribute_keys(8, 1, Random(21))
        outsider = ForwardPacket("r9", bundle, stranger, sent_at=2)
        session = arbitrator_close_round(record, [outsider] + packets, now=10,
                                         fetched={})
        assert set(record.key_set) == {"r1", "r2", "r3"}
        assert stranger not in record.key_set.values()
        assert session == sk

    def test_cannot_close_early(self):
        _, _, record, packets, _ = self.setup_round()
        with pytest.raises(ValueError):
            arbitrator_close_round(record, packets, now=9, fetched={})

    def test_missing_timeout_key_aborts(self):
        _, _, record, packets, _ = self.setup_round(timeouts=("r1",))
        with pytest.raises(ValueError, match="r1"):
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
        fake = KeyBundle(Random(99).getrandbits(16), Random(98).getrandbits(8), 8)
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


class TestValueTypes:
    """The per-round value types: immutable, equal by fields within one class."""

    @staticmethod
    def twins():
        # (type name, build) pairs: two builds give equal, distinct objects
        rng = Random(30)
        message, signature = BitString.random(32, rng), BitString.random(16, rng)
        x, y = BitString.random(16, rng), BitString.random(8, rng)
        return {
            "BitString": lambda: BitString(message.value, 32),
            "KeyBundle": lambda: KeyBundle(x.value, y.value, 8),
            "SessionKeys": lambda: SessionKeys(x.value, y.value, 8),
            "SignatureBundle": lambda: SignatureBundle(message, signature),
            "ForwardPacket": lambda: ForwardPacket(
                "r1", SignatureBundle(message, signature),
                KeyBundle(x.value, y.value, 8), sent_at=3),
        }

    @pytest.mark.parametrize("name", ["BitString", "KeyBundle", "SessionKeys",
                                      "SignatureBundle", "ForwardPacket"])
    def test_immutable_and_equal_by_fields(self, name):
        build = self.twins()[name]
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b
        for field in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(a, field))
            with pytest.raises(AttributeError):
                delattr(a, field)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b
        assert repr(a) == repr(b) and repr(a).startswith(name + "(")
        assert copy.copy(a) == a and copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a

    def test_types_never_compare_equal(self):
        rng = Random(31)
        x, y = rng.getrandbits(16), rng.getrandbits(8)
        assert KeyBundle(x, y, 8) != SessionKeys(x, y, 8)
        assert SessionKeys(x, y, 8) != KeyBundle(x, y, 8)
        assert BitString(5, 8) != (5, 8) and (5, 8) != BitString(5, 8)
        assert KeyBundle(x, y, 8) != (x, y, 8)

    def test_unequal_fields_unequal_objects(self):
        rng = Random(32)
        x, y = rng.getrandbits(16), rng.getrandbits(8)
        assert BitString(5, 8) != BitString(5, 9)
        assert KeyBundle(x, y, 8) != KeyBundle(x, y ^ 1, 8)
        assert SessionKeys(x, y, 8) != SessionKeys(x ^ 1 << 15, y, 8)

    def test_bit_string_can_be_weakly_referenced(self):
        b = BitString(3, 2)
        ref = weakref.ref(b)
        assert ref() is b
        del b
        gc.collect()
        assert ref() is None

    def test_key_bundle_halves_read_as_bit_strings(self):
        kb = KeyBundle(0xBEEF, 0x5A, 8)
        assert (kb.x, kb.y, kb.n) == (BitString(0xBEEF, 16), BitString(0x5A, 8), 8)
        assert (kb.x_value, kb.y_value) == (0xBEEF, 0x5A)
        sk = SessionKeys(0xBEEF, 0x5A, 8)
        assert (sk.xs, sk.ys, sk.n) == (kb.x, kb.y, 8)
        assert sk._fields == ("x_value", "y_value", "n")

    @pytest.mark.parametrize("build,match", [
        (lambda: BitString(0, -1), "length must be non-negative"),
        (lambda: BitString(4, 2), "does not fit in 2 bits"),
        (lambda: BitString(-1, 2), "does not fit in 2 bits"),
        (lambda: KeyBundle(1 << 8, 0, 4), "key halves must fit in 8 and 4 bits"),
        (lambda: SessionKeys(0, 1 << 4, 4), "key halves must fit in 8 and 4 bits"),
        (lambda: SignatureBundle(BitString(0, 8), BitString(0, 2)),
         "signature length must be even and at least 4"),
        (lambda: SignatureBundle(BitString(0, 8), BitString(0, 5)),
         "signature length must be even and at least 4"),
        (lambda: ForwardPacket("r1", SignatureBundle(BitString(0, 8), BitString(0, 8)),
                               KeyBundle(0, 0, 3), sent_at=0),
         "key length inconsistent with signature length"),
    ])
    def test_constructor_errors(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


def signed_tag(bundle, sk):
    """The tag and polynomial a signature carries under ``sk``."""
    tag, r = (sk.xs ^ bundle.signature).split(sk.n)
    return tag, Gf2Poly(decode_poly(r.value, sk.n))


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
        memo = TagMemo()
        signed = [sign(message, keys[0][1], rng, memo)]
        for action, which, key, flip in steps:
            msg = messages[which]
            link, sk = keys[key]
            if action == "sign":
                bundle = sign(msg, sk, rng, memo)
                tag, poly = signed_tag(bundle, sk)
                assert tag == toeplitz_oracle(poly, sk.ys, msg)
                signed.append(bundle)
                continue
            signature = signed[-1].signature
            if flip is not None:
                signature = signature.flip(flip % signature.length)
            bundle = SignatureBundle(msg, signature)
            if action == "verify":
                verdict = receiver_verify(bundle, sk, memo)
            else:
                verdict = arbitrator_verify(
                    ForwardPacket("r1", bundle, link, sent_at=0), sk, memo)
            assert verdict is receiver_verify(bundle, sk)

    def test_same_message_with_flipped_tag_bit_rejected(self):
        memo = TagMemo()
        _, _, _, sk, bundle = honest_setup(memo=memo)
        assert receiver_verify(bundle, sk, memo) is A
        entry = memo.entry
        assert entry[0] is bundle.message
        for bit in range(sk.n):
            forged = SignatureBundle(bundle.message, bundle.signature.flip(bit))
            assert receiver_verify(forged, sk, memo) is R
            assert memo.entry is entry  # a hit: nothing was hashed afresh

    def test_same_message_under_another_seed_rejected(self):
        memo = TagMemo()
        _, _, _, sk, bundle = honest_setup(memo=memo)
        tag, poly = signed_tag(bundle, sk)
        for bit in range(sk.n):
            assert receiver_verify(bundle, sk, memo) is A  # the memo holds sk's tag
            other = SessionKeys(sk.x_value, sk.y_value ^ 1 << bit, sk.n)
            # the tag under the other seed really differs, so acceptance
            # could only come from a stale memo entry
            assert toeplitz_oracle(poly, other.ys, bundle.message) != tag
            assert receiver_verify(bundle, other, memo) is R

    def test_memo_holds_only_the_last_message(self):
        memo = TagMemo()
        rng, _, _, sk, bundle = honest_setup(memo=memo)
        first = weakref.ref(bundle.message)
        del bundle
        gc.collect()
        assert first() is not None  # one entry keeps the last message alive
        sign(BitString.random(64, rng), sk, rng, memo)
        gc.collect()
        assert first() is None

    def test_round_frees_its_message_when_its_transcript_is_dropped(self):
        t = run_round(Topology.fully_connected(3), SecurityParams.for_n(16, 64, 3),
                      seed=5)
        message = weakref.ref(t.record.message)
        del t
        gc.collect()
        assert message() is None


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tampered_copy_leaves_the_signed_tag(self, monkeypatch, seed):
        # r2's tampered copy is hashed afresh and writes nothing, so r3 and
        # the arbitrator still verify off sign's tag: two kernel calls
        hashed = []
        monkeypatch.setattr(protocol, "_toeplitz_tag",
                            lambda *a: hashed.append(a[2]) or _toeplitz_tag(*a))
        script = AdversaryScript((Rule(action="tamper", kind="broadcast",
                                       receiver="r2", positions=(0,)),))
        t = run_round(Topology.fully_connected(3), SecurityParams.for_n(16, 64, 3),
                      script, seed=seed)
        assert t.outcomes == {"r1": A, "r2": R, "r3": A}
        assert hashed == [t.record.message, t.record.message.flip(0)]


class TestVerifyOffTheMemo:
    def test_every_signature_bit_flip_matches_fresh_verdict(self, monkeypatch):
        memo = TagMemo()
        _, _, _, sk, bundle = honest_setup(n=16, memo=memo)
        decodes = []
        monkeypatch.setattr(protocol, "decode_poly",
                            lambda r, n: decodes.append(r) or decode_poly(r, n))
        for bit in range(2 * sk.n):
            assert receiver_verify(bundle, sk, memo) is A  # the memo holds the bundle
            forged = SignatureBundle(bundle.message, bundle.signature.flip(bit))
            decodes.clear()
            verdict = receiver_verify(forged, sk, memo)
            # bits 0..n-1 carry the tag and hit the memo; the rest carry the
            # polynomial, miss it and decode
            assert len(decodes) == (bit >= sk.n)
            assert verdict is receiver_verify(forged, sk)
            if bit < sk.n:
                assert verdict is R

    def test_signature_wider_than_2n_bits_raises_on_a_memo_hit_too(self):
        memo = TagMemo()
        _, _, _, sk, bundle = honest_setup(n=16, memo=memo)
        assert receiver_verify(bundle, sk, memo) is A  # the memo holds the bundle
        wide = bundle.signature.value | 1 << 2 * sk.n
        with pytest.raises(ValueError):
            protocol.accepts(bundle.message, wide, sk.x_value, sk.y_value, sk.n,
                             memo)


def ben_or(v):
    """Textbook Ben-Or, degree >= 1: a gcd at every step, no sieve or cache."""
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


def oracle_accepts(message, signature, xs, ys, n):
    """The verdict by the textbook test and the explicit-matrix hash."""
    plain = xs ^ signature
    poly = Gf2Poly(plain >> n | 1 << n)
    return (ben_or(poly.value)
            and toeplitz_oracle(poly, BitString(ys, n), message)
            == BitString(plain & ((1 << n) - 1), n))


class TestAcceptsEqualsOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 64), st.integers(1, 96), st.integers(0, 2**32),
           st.sampled_from(("genuine", "flipped", "random")))
    def test_verdict_with_and_without_memo(self, n, m, seed, kind):
        rng = Random(seed)
        sk = SessionKeys.random(n, rng)
        message = BitString.random(m, rng)
        memo = TagMemo()
        signature = sign(message, sk, rng, memo).signature.value
        if kind == "flipped":
            signature ^= 1 << rng.randrange(2 * n)
        elif kind == "random":
            signature = rng.getrandbits(2 * n)
        xs, ys = sk.x_value, sk.y_value
        want = oracle_accepts(message, signature, xs, ys, n)
        assert want or kind != "genuine"
        assert protocol.accepts(message, signature, xs, ys, n) == want
        assert protocol.accepts(message, signature, xs, ys, n, memo) == want

    @pytest.mark.parametrize("n", [1, 0])
    def test_degree_below_two_raises(self, n):
        with pytest.raises(ValueError):
            protocol.accepts(BitString(1, 8), 0, 0, 0, n)

    def test_signature_wider_than_2n_bits_raises_on_a_memo_miss(self):
        _, _, _, sk, bundle = honest_setup(n=16)
        wide = bundle.signature.value | 1 << 2 * sk.n
        for memo in (None, TagMemo()):
            with pytest.raises(ValueError):
                protocol.accepts(bundle.message, wide, sk.x_value, sk.y_value,
                                 sk.n, memo)

    def test_empty_message_raises_once_the_encoding_decodes(self):
        # x^2 + x + 1 decodes, x^2 does not: the check sits in the hash
        empty = BitString(0, 0)
        for memo in (None, TagMemo()):
            with pytest.raises(ValueError):
                protocol.accepts(empty, 0b1100, 0, 0, 2, memo)
            assert protocol.accepts(empty, 0b0000, 0, 0, 2, memo) is False


class TestIntTagPath:
    def test_attack_trials_and_rounds_build_no_polynomial_or_hasher(self,
                                                                    monkeypatch):
        built = []
        for cls in (Gf2Poly, LfsrToeplitzHasher):
            post_init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, post_init=post_init:
                                built.append(type(self)) or post_init(self))
        assert Gf2Poly(0b111).degree == 2 and built == [Gf2Poly]  # counting works
        built.clear()
        forgery_known_signature(10, 32, 50, Random(1))
        t = run_round(Topology.fully_connected(3), SecurityParams.for_n(16, 64, 3),
                      seed=1)
        assert set(t.outcomes.values()) == {A}
        assert built == []


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
                    want = A if (ben_or(poly.value)
                                 and toeplitz_oracle(poly, seed, message) == tag) else R
                    for xs in range(1 << 2 * n):
                        bundle = SignatureBundle(message, BitString(xs ^ plain, 2 * n))
                        sk = SessionKeys(xs, ys, n)
                        assert receiver_verify(bundle, sk) is want, (bundle, sk)
