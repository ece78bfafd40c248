"""Signing, verification, and round bookkeeping for the three-stage protocol.

The signer tags the message with a freshly keyed LFSR-Toeplitz hash, appends
the polynomial encoding, and one-time-pads the result with the combined
encryption key.  Receivers and the arbitrator invert the pad with the same
combined key, rebuild the hasher from the decrypted encoding, and recompute
the tag; the arbitrator additionally archives each completed round so
late or forwarded signatures can be checked against it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Iterable, Mapping, Sequence

from .gf2_hash import (
    BitString,
    Gf2Poly,
    LfsrToeplitzHasher,
    decode_poly,
    sample_irreducible,
)
from .keymat import KeyBundle, SessionKeys, combine


class VerificationOutcome(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    TIMED_OUT = "timed-out"
    INVALID = "invalid"


class RoundAbortError(RuntimeError):
    """Raised when a round cannot complete (e.g. timeout keys unavailable)."""


@dataclass(frozen=True)
class SignatureBundle:
    """A message together with its 2n-bit signature."""

    message: BitString
    signature: BitString

    def __post_init__(self) -> None:
        if self.signature.length < 4 or self.signature.length % 2:
            raise ValueError("signature length must be even and at least 4")

    @property
    def n(self) -> int:
        return self.signature.length // 2


@dataclass(frozen=True)
class ForwardPacket:
    """What a receiver hands the arbitrator: its copy of the round and its key."""

    receiver_id: str
    bundle: SignatureBundle
    keys: KeyBundle
    sent_at: int

    def __post_init__(self) -> None:
        if self.keys.x.length != self.bundle.signature.length:
            raise ValueError("key length inconsistent with signature length")


# the last tag computed: (message object, polynomial value, seed, tag); one
# entry, so it holds at most one message alive
_last_tag: tuple[BitString, int, int, int] | None = None


def _tag(poly: Gf2Poly, seed: int, message: BitString) -> int:
    """The LFSR-Toeplitz tag of ``message`` under (poly, seed), as an int.

    In a round, the signer, every receiver and the arbitrator tag the same
    message object under the same keys, so the last tag is reused when the
    message *is* the last one hashed and the keys are equal.  The message
    is matched by identity, an O(1) test that is exact because a
    ``BitString`` never changes; a tampered message is a new object and is
    hashed afresh.
    """
    global _last_tag
    last = _last_tag
    if last and last[0] is message and last[1:3] == (poly.value, seed):
        return last[3]
    tag = LfsrToeplitzHasher(poly, BitString(seed, poly.degree)).hash(message).value
    _last_tag = (message, poly.value, seed, tag)
    return tag


def sign(message: BitString, sk: SessionKeys, rng: Random) -> SignatureBundle:
    """Sign a message: tag it, append the polynomial encoding, one-time-pad.

    Verifiers recover the n-bit polynomial encoding from the signature.
    """
    if message.length < 1:
        raise ValueError("message must be non-empty")
    n = sk.n
    poly, r_s = sample_irreducible(n, rng)
    plain = _tag(poly, sk.ys.value, message) | r_s.value << n
    return SignatureBundle(message, BitString(sk.xs.value ^ plain, 2 * n))


def accepts(message: BitString, signature: int, xs: int, ys: int, n: int) -> bool:
    """Whether a 2n-bit ``signature`` verifies ``message`` under keys (xs, ys).

    Strips the pad xs, decodes the upper n bits as the polynomial (a
    reducible decode rejects) and compares the lower n bits with the tag
    of ``message`` under (polynomial, ys).  A tag memo hit on all three skips
    the decode, exactly: only ``_tag`` writes the memo, after the hasher has
    accepted the polynomial.  Int arguments let attack trials skip key objects.
    """
    plain = xs ^ signature
    if (_last_tag and _last_tag[0] is message and not plain >> 2 * n
            and _last_tag[1:3] == (plain >> n | 1 << n, ys)):
        return _last_tag[3] == plain & ((1 << n) - 1)
    poly = decode_poly(BitString(plain >> n, n))
    return poly is not None and _tag(poly, ys, message) == plain & ((1 << n) - 1)


def receiver_verify(bundle: SignatureBundle, sk: SessionKeys) -> VerificationOutcome:
    """Receiver-side check of the broadcast bundle against the released keys.

    INVALID when the signature length does not match the keys; otherwise
    ``accepts`` decides between ACCEPTED and REJECTED.
    """
    if bundle.signature.length != sk.xs.length:
        return VerificationOutcome.INVALID
    if accepts(bundle.message, bundle.signature.value, sk.xs.value, sk.ys.value, sk.n):
        return VerificationOutcome.ACCEPTED
    return VerificationOutcome.REJECTED


def arbitrator_verify(packet: ForwardPacket, sk: SessionKeys) -> VerificationOutcome:
    """Arbitrator-side check of a forwarded (possibly tampered) bundle.

    It runs the receiver's check on the forwarded bundle, so receiver and
    arbitrator verdicts on identical inputs are identical by construction.
    """
    return receiver_verify(packet.bundle, sk)


@dataclass
class RoundRecord:
    """Arbitrator archive of one round: keys, deadline, verdicts, signed pair.

    ``message``/``signature`` hold the first pair the arbitrator verified
    successfully; they stay None if no forward ever verified.
    """

    receiver_ids: tuple[str, ...]
    deadline: int
    arbitrator_keys: KeyBundle
    key_set: dict[str, KeyBundle] = field(default_factory=dict)
    verdicts: dict[str, VerificationOutcome] = field(default_factory=dict)
    message: BitString | None = None
    signature: BitString | None = None

    @classmethod
    def open(cls, receiver_ids: Iterable[str], deadline: int,
             arbitrator_keys: KeyBundle) -> RoundRecord:
        ids = tuple(receiver_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("receiver ids must be distinct")
        return cls(receiver_ids=ids, deadline=deadline, arbitrator_keys=arbitrator_keys)

    def archive_verified(self, bundle: SignatureBundle) -> None:
        if self.message is None:
            self.message = bundle.message
            self.signature = bundle.signature


def arbitrator_close_round(
    record: RoundRecord,
    packets: Sequence[ForwardPacket],
    now: int,
    fetched: Mapping[str, KeyBundle],
) -> SessionKeys:
    """Close the collection window and combine the verification keys.

    Packets sent by the deadline contribute their keys; receivers without
    one are marked timed out and take their keys from ``fetched``, the
    keys the arbitrator fetched from the signer over the authenticated
    channel.  A timed-out receiver missing from ``fetched`` aborts the
    round.  Session keys are later released only to the on-time receivers.
    """
    if now < record.deadline:
        raise ValueError("cannot close before the deadline")
    for p in packets:
        if p.receiver_id in record.receiver_ids and p.sent_at <= record.deadline:
            record.key_set.setdefault(p.receiver_id, p.keys)
    timeouts = [r for r in record.receiver_ids if r not in record.key_set]
    missing = [r for r in timeouts if r not in fetched]
    if missing:
        raise RoundAbortError(
            f"signer did not supply timeout keys for {', '.join(missing)}")
    for r in timeouts:
        record.key_set[r] = fetched[r]
        record.verdicts[r] = VerificationOutcome.TIMED_OUT
    ordered = [record.key_set[r] for r in record.receiver_ids]
    return combine(ordered, record.arbitrator_keys)


def timeout_forward_verify(record: RoundRecord, receiver_id: str,
                           bundle: SignatureBundle, keys: KeyBundle) -> bool:
    """Check receiver ``receiver_id``'s post-round claim against the archive.

    True iff a (message, signature) is archived and the claimed pair bit-equals
    it, and the claimed key is the one the arbitrator holds for that receiver.
    """
    return (bundle.message == record.message
            and bundle.signature == record.signature
            and record.key_set.get(receiver_id) == keys)
