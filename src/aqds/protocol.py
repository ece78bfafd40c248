"""Signing, verification, and round bookkeeping for the three-stage protocol.

The signer tags the message with a freshly keyed LFSR-Toeplitz hash, appends
the polynomial encoding, and one-time-pads the result with the combined
encryption key.  Receivers and the arbitrator invert the pad with the same
combined key, decode the polynomial from the decrypted encoding, and
recompute the tag; the arbitrator additionally archives each completed
round so late or forwarded signatures can be checked against it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Iterable, Mapping

from .gf2_hash import (
    BitString,
    _set,
    _toeplitz_tag,
    _Value,
    decode_poly,
    sample_irreducible,
)
from .keymat import KeyBundle, SessionKeys, combine


class VerificationOutcome(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    TIMED_OUT = "timed-out"


class SignatureBundle(_Value):
    """A message together with its 2n-bit signature."""

    __slots__ = ("message", "signature")
    message: BitString
    signature: BitString

    def __init__(self, message: BitString, signature: BitString) -> None:
        if signature.length < 4 or signature.length % 2:
            raise ValueError("signature length must be even and at least 4")
        _set(self, "message", message)
        _set(self, "signature", signature)

    @property
    def n(self) -> int:
        return self.signature.length // 2


class ForwardPacket(_Value):
    """What a receiver hands the arbitrator: its copy of the round and its key."""

    __slots__ = ("receiver_id", "bundle", "keys", "sent_at")
    receiver_id: str
    bundle: SignatureBundle
    keys: KeyBundle
    sent_at: int

    def __init__(self, receiver_id: str, bundle: SignatureBundle, keys: KeyBundle,
                 sent_at: int) -> None:
        if 2 * keys.n != bundle.signature.length:
            raise ValueError("key length inconsistent with signature length")
        _set(self, "receiver_id", receiver_id)
        _set(self, "bundle", bundle)
        _set(self, "keys", keys)
        _set(self, "sent_at", sent_at)


@dataclass
class TagMemo:
    """The signed tag of a round: (message, polynomial value, seed, tag).

    In a round, the signer, every receiver and the arbitrator tag the same
    message object under the same keys, so ``sign`` records its tag here
    and ``accepts`` reuses it.  The polynomial came from
    ``sample_irreducible``, so it also vouches for any copy that carries
    it: such a copy skips the decode, even when its message or seed
    differs and it is hashed afresh.  A copy that misses leaves the memo as
    it is.  The memo dies with the round; callers that pass none decode
    and hash every time.
    """

    entry: tuple[BitString, int, int, int] | None = None


def sign(message: BitString, sk: SessionKeys, rng: Random,
         memo: TagMemo | None = None) -> SignatureBundle:
    """Sign a message: tag it, append the polynomial encoding, one-time-pad.

    Verifiers recover the n-bit polynomial encoding from the signature.
    The one writer of ``memo``.
    """
    if message.length < 1:
        raise ValueError("message must be non-empty")
    n = sk.n
    poly = sample_irreducible(n, rng)
    tag = _toeplitz_tag(poly, sk.y_value, message)
    if memo is not None:
        memo.entry = (message, poly, sk.y_value, tag)
    plain = tag | (poly ^ 1 << n) << n
    return SignatureBundle(message, BitString(sk.x_value ^ plain, 2 * n))


def accepts(message: BitString, signature: int, xs: int, ys: int, n: int,
            memo: TagMemo | None = None) -> bool:
    """Whether a 2n-bit ``signature`` verifies ``message`` under keys (xs, ys).

    Strips the pad xs, decodes the upper n bits as the polynomial (a
    reducible decode rejects) and compares the lower n bits with the tag
    of ``message`` under (polynomial, ys).  Upper bits that equal the
    ``memo`` entry's polynomial skip the decode, exactly: ``sign`` drew
    that polynomial with ``sample_irreducible``, so the decode would
    succeed.  For the same message object and seed too, the entry's tag
    also skips the hash: the message is matched by identity, which is
    exact because a ``BitString`` never changes.  Otherwise it hashes, and
    it writes nothing.  Int arguments let attack trials skip key objects.
    """
    plain = xs ^ signature
    tag = plain & ((1 << n) - 1)
    last = memo and memo.entry
    if last and not plain >> 2 * n and plain >> n | 1 << n == last[1]:
        if last[0] is message and last[2] == ys:
            return last[3] == tag
        poly = last[1]  # the signed polynomial: irreducible
    else:
        poly = decode_poly(plain >> n, n)
        if poly is None:
            return False
    return _toeplitz_tag(poly, ys, message) == tag


def receiver_verify(bundle: SignatureBundle, sk: SessionKeys,
                    memo: TagMemo | None = None) -> VerificationOutcome:
    """Receiver-side check of the broadcast bundle against the released keys.

    Raises ValueError when the signature length does not match the keys.
    """
    if bundle.signature.length != 2 * sk.n:
        raise ValueError("signature length does not match the keys")
    if accepts(bundle.message, bundle.signature.value, sk.x_value, sk.y_value,
               sk.n, memo):
        return VerificationOutcome.ACCEPTED
    return VerificationOutcome.REJECTED


def arbitrator_verify(packet: ForwardPacket, sk: SessionKeys,
                      memo: TagMemo | None = None) -> VerificationOutcome:
    """Arbitrator-side check of a forwarded (possibly tampered) bundle.

    It runs the receiver's check on the forwarded bundle, so receiver and
    arbitrator verdicts on identical inputs are identical by construction.
    """
    return receiver_verify(packet.bundle, sk, memo)


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
    on_time: Mapping[str, ForwardPacket],
    now: int,
    fetched: Mapping[str, KeyBundle],
) -> SessionKeys:
    """Close the collection window and combine the verification keys.

    ``on_time`` maps each receiver whose forward arrived before the deadline
    to that forward: the caller judges arrival, and the forward contributes
    its key.  Every other receiver of the round is marked timed out and
    takes its key from ``fetched``, the keys the arbitrator fetched from the
    signer over the authenticated channel; a timed-out receiver missing
    there raises ValueError.  Ids outside the round are ignored.  Session
    keys are later released only to the on-time receivers.
    """
    if now < record.deadline:
        raise ValueError("cannot close before the deadline")
    missing = [r for r in record.receiver_ids if r not in on_time and r not in fetched]
    if missing:
        raise ValueError(
            f"signer did not supply timeout keys for {', '.join(missing)}")
    for r in record.receiver_ids:
        if r in on_time:
            record.key_set[r] = on_time[r].keys
        else:
            record.key_set[r] = fetched[r]
            record.verdicts[r] = VerificationOutcome.TIMED_OUT
    return combine(list(record.key_set.values()), record.arbitrator_keys)


def timeout_forward_verify(record: RoundRecord, receiver_id: str,
                           bundle: SignatureBundle, keys: KeyBundle) -> bool:
    """Check receiver ``receiver_id``'s post-round claim against the archive.

    True iff a (message, signature) is archived and the claimed pair bit-equals
    it, and the claimed key is the one the arbitrator holds for that receiver.
    """
    return (bundle.message == record.message
            and bundle.signature == record.signature
            and record.key_set.get(receiver_id) == keys)
