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

from .gf2_hash import BitString, LfsrToeplitzHasher, decode_poly, sample_irreducible
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


def sign(message: BitString, sk: SessionKeys, rng: Random) -> SignatureBundle:
    """Sign a message: tag it, append the polynomial encoding, one-time-pad.

    Verifiers recover the n-bit polynomial encoding from the signature.
    """
    if message.length < 1:
        raise ValueError("message must be non-empty")
    poly, r_s = sample_irreducible(sk.n, rng)
    tag = LfsrToeplitzHasher(poly, sk.ys).hash(message)
    return SignatureBundle(message, sk.xs ^ tag.concat(r_s))


def receiver_verify(bundle: SignatureBundle, sk: SessionKeys) -> VerificationOutcome:
    """Receiver-side check of the broadcast bundle against the released keys."""
    if bundle.signature.length != sk.xs.length:
        return VerificationOutcome.INVALID
    n = sk.n
    tag, r = (sk.xs ^ bundle.signature).split(n)
    poly = decode_poly(r)
    if poly is None:
        return VerificationOutcome.REJECTED
    expected = LfsrToeplitzHasher(poly, sk.ys).hash(bundle.message)
    if expected == tag:
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


def timeout_forward_verify(record: RoundRecord, bundle: SignatureBundle,
                           keys: KeyBundle) -> bool:
    """Check a post-round claim against the archived round.

    True iff the claimed pair bit-equals the archived (message, signature)
    and the claimed key belongs to the round's key set.
    """
    if record.message is None or record.signature is None:
        return False
    return (bundle.message == record.message
            and bundle.signature == record.signature
            and any(keys == held for held in record.key_set.values()))
