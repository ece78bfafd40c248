"""Deterministic discrete-event simulator for full signing rounds.

Logical integer time, explicit tie-breaking, and a single seeded rng make
every transcript a pure function of (topology, security params, adversary
script, seed).  Adversary rules interpose on the two payloads a real
attacker could touch -- the signer's broadcast and receivers' forwards --
while key release and key fetch ride authenticated channels no rule can
match.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from random import Random
from typing import Mapping, NamedTuple

from .config import ConfigurationError, IniFile
from .gf2_hash import BitString
from .keymat import KeyBundle, SecurityParams, SessionKeys, combine, distribute_keys
from .protocol import (
    ForwardPacket,
    RoundRecord,
    SignatureBundle,
    VerificationOutcome,
    arbitrator_close_round,
    arbitrator_verify,
    receiver_verify,
    sign,
    timeout_forward_verify,
)


# ---------------------------------------------------------------------------
# Topology


SIGNER = "signer"
ARBITRATOR = "arbitrator"


@dataclass(frozen=True)
class Topology:
    """Star around the signer and the arbitrator; every hop takes one time unit.

    A late message is an adversary ``delay`` rule, not a slower link.
    """

    receiver_ids: tuple[str, ...]
    deadline: int = 10

    def __post_init__(self) -> None:
        if not self.receiver_ids:
            raise ValueError("at least one receiver is required")
        nodes = (SIGNER, ARBITRATOR, *self.receiver_ids)
        if len(set(nodes)) != len(nodes):
            raise ValueError("node identifiers must be distinct")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")

    @property
    def k(self) -> int:
        return len(self.receiver_ids)

    @classmethod
    def fully_connected(cls, k: int, deadline: int = 10) -> Topology:
        return cls(tuple(f"r{i}" for i in range(1, k + 1)), deadline=deadline)


# ---------------------------------------------------------------------------
# Events


class EventKind(IntEnum):
    # numeric value doubles as the tie-break rank: a deadline firing at t
    # precedes a delivery at t, so arrival exactly at the deadline is late
    DEADLINE_FIRE = 0
    DELIVER = 1


class Event(NamedTuple):
    """A queued event; as a tuple it orders by (at, kind, sender, seq).

    ``seq`` is unique per queue, so a comparison never reaches ``receiver``
    or ``payload``.
    """

    at: int
    kind: EventKind
    sender: str
    seq: int
    receiver: str
    payload: object

    @property
    def sort_key(self) -> tuple[int, int, str, int]:
        return self[:4]


class EventQueue:
    """Min-heap of events under the (time, kind, sender, seq) total order."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._next_seq = 0

    def push(self, at: int, kind: EventKind, sender: str, receiver: str,
             payload: object) -> Event:
        ev = Event(at, kind, sender, self._next_seq, receiver, payload)
        self._next_seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def advance(self) -> Event:
        return heapq.heappop(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# ---------------------------------------------------------------------------
# Wire payloads: every delivery carries a (kind, body) pair


# the last bundle encoded and its text: a round's broadcasts, forwards and
# claims carry one bundle object, so it is encoded once per round
_last_bundle: tuple[SignatureBundle, str] | None = None


def _canon_bundle(body: SignatureBundle) -> str:
    global _last_bundle
    last = _last_bundle
    if last is None or last[0] is not body:
        last = _last_bundle = (
            body, f"bundle:{body.message.to_hex()}/{body.message.length}"
                  f":{body.signature.to_hex()}/{body.signature.length}")
    return last[1]


# body type -> its wire text; any other type is written as str(body)
_CANON = {
    SignatureBundle: _canon_bundle,
    KeyBundle: lambda body: f"keys:{body.x.to_hex()}:{body.y.to_hex()}",
    SessionKeys: lambda body: f"session:{body.xs.to_hex()}:{body.ys.to_hex()}",
    ForwardPacket: lambda b: f"{b.receiver_id}:{_canon_bundle(b.bundle)}:keys:"
                             f"{b.keys.x.to_hex()}:{b.keys.y.to_hex()}:{b.sent_at}",
    tuple: lambda body: ":".join(map(_canon, body)),
    list: lambda body: ",".join(map(_canon, body)),
    VerificationOutcome: lambda body: body.value,
}


def _canon(body: object) -> str:
    return _CANON.get(type(body), str)(body)


def _wire(kind: str, body: object) -> str:
    """The text a transcript line digests for one (kind, body) pair."""
    return f"{kind}[{_canon(body)}]"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Adversary scripts

_KINDS = ("broadcast", "forward")
_ACTIONS = ("tamper", "delay", "drop", "replace")
_TARGETS = ("message", "signature")


@dataclass(frozen=True)
class Rule:
    """One interposition rule; None match fields are wildcards."""

    action: str
    kind: str | None = None
    sender: str | None = None
    receiver: str | None = None
    target: str = "message"
    positions: tuple[int, ...] = ()
    delta: int = 0
    payload_hex: str | None = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(f"unknown action {self.action!r}")
        if self.kind is not None and self.kind not in _KINDS:
            raise ConfigurationError(
                f"rules may only touch {_KINDS}, not {self.kind!r}")
        if self.target not in _TARGETS:
            raise ConfigurationError(f"unknown tamper target {self.target!r}")
        if self.action == "tamper" and not self.positions:
            raise ConfigurationError("tamper rule needs bit positions")
        if any(p < 0 for p in self.positions):
            raise ConfigurationError("bit positions must be non-negative")
        if self.action == "delay" and self.delta < 0:
            raise ConfigurationError("delay must be non-negative")
        if self.action == "replace" and not self.payload_hex:
            raise ConfigurationError("replace rule needs payload-hex")


@dataclass(frozen=True)
class AdversaryScript:
    rules: tuple[Rule, ...] = ()

    def validate_sized(self, m_bits: int, sig_bits: int) -> None:
        """Reject size-dependent rule problems before any event runs."""
        for rule in self.rules:
            if rule.action != "replace":
                continue
            width = m_bits if rule.target == "message" else sig_bits
            try:
                raw = bytes.fromhex(rule.payload_hex)
            except ValueError as exc:
                raise ConfigurationError(f"bad payload-hex: {exc}") from exc
            if len(raw) != (width + 7) // 8:
                raise ConfigurationError(
                    f"replace payload is {len(raw)} bytes but the "
                    f"{rule.target} needs {(width + 7) // 8}")

    def apply(self, kind: str, sender: str, receiver: str,
              bundle: SignatureBundle) -> tuple[SignatureBundle | None, int]:
        """Rewritten bundle (None = dropped) and extra delay after all rules."""
        extra = 0
        for rule in self.rules:
            if ((rule.kind is not None and rule.kind != kind)
                    or (rule.sender is not None and rule.sender != sender)
                    or (rule.receiver is not None and rule.receiver != receiver)):
                continue
            if rule.action == "drop":
                return None, extra
            if rule.action == "delay":
                extra += rule.delta
                continue
            part = bundle.message if rule.target == "message" else bundle.signature
            if rule.action == "tamper":
                part = part.flip(*(p % part.length for p in rule.positions))
            else:  # replace
                part = BitString.from_hex(rule.payload_hex, part.length)
            if rule.target == "message":
                bundle = SignatureBundle(part, bundle.signature)
            else:
                bundle = SignatureBundle(bundle.message, part)
        return bundle, extra


# ---------------------------------------------------------------------------
# Script loader


_RULE_KEYS = {
    "action": str, "kind": str, "sender": str, "receiver": str, "target": str,
    "positions": lambda text: tuple(int(x) for x in text.replace(",", " ").split()),
    "delta": int, "payload-hex": str}


def load_script(path: str | Path) -> AdversaryScript:
    """Read one ``[rule...]`` section per rule, applied in file order."""
    ini = IniFile(path)
    rules = []
    for name in ini.sections:
        if not name.startswith("rule"):
            raise ini.error(name, "unexpected section; rule sections start with 'rule'")
        kwargs = ini.fields(name, _RULE_KEYS)
        if "action" not in kwargs:
            raise ini.error(name, "missing key 'action'")
        rules.append(ini.build(name, Rule, kwargs))
    return AdversaryScript(tuple(rules))


# ---------------------------------------------------------------------------
# Round execution


@dataclass
class Transcript:
    """Full record of one simulated round."""

    security: SecurityParams
    lines: list[str]
    outcomes: dict[str, VerificationOutcome]
    announcements: dict[str, VerificationOutcome]
    timeout_claims: dict[str, bool]
    record: RoundRecord
    signer_keys: SessionKeys
    session_keys: SessionKeys | None

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


class _RoundRunner:
    def __init__(self, topology: Topology, security: SecurityParams,
                 script: AdversaryScript, seed: int) -> None:
        if topology.k != security.k:
            raise ValueError("topology and security params disagree on k")
        script.validate_sized(security.m_bits, 2 * security.n)
        self.top = topology
        self.sec = security
        self.script = script
        self.rng = Random(seed)

        bundles, self.arb_bundle = distribute_keys(security.n, security.k, self.rng)
        self.link_keys = dict(zip(topology.receiver_ids, bundles))
        self.signer_sk = combine(bundles, self.arb_bundle)
        message = BitString.random(security.m_bits, self.rng)
        self.bundle = sign(message, self.signer_sk, self.rng)

        self.record = RoundRecord.open(topology.receiver_ids, topology.deadline,
                                       self.arb_bundle)
        self.queue = EventQueue()
        self.lines: list[str] = []
        self.receiver_copy: dict[str, SignatureBundle] = {}
        self.packets: dict[str, ForwardPacket] = {}
        self.announcements: dict[str, VerificationOutcome] = {}
        self.session: SessionKeys | None = None
        self.closed = False
        self.last_time = 0
        # the last delivery's (kind, body, digest): a round's broadcasts and
        # key releases arrive in runs that carry one body object, so each run
        # is digested once; the body is matched by identity, like _last_bundle
        self.last_delivery: tuple[str, object, str] | None = None

    def _log(self, event: str, sender: str, receiver: str, at: int,
             digest: str) -> None:
        # the leading 0 is the round number the golden transcripts fix
        self.lines.append(f"0 {event} {sender} {receiver} {at} {digest}")

    def _delivery_digest(self, kind: str, body: object) -> str:
        last = self.last_delivery
        if last is None or last[1] is not body or last[0] != kind:
            last = self.last_delivery = (kind, body, _digest(_wire(kind, body)))
        return last[2]

    def _send(self, at: int, sender: str, receiver: str, kind: str,
              body: object) -> None:
        self.queue.push(at, EventKind.DELIVER, sender, receiver, (kind, body))

    def run(self) -> Transcript:
        for rid in self.top.receiver_ids:
            out, extra = self.script.apply("broadcast", SIGNER, rid, self.bundle)
            if out is not None:
                self._send(1 + extra, SIGNER, rid, "broadcast", out)
        self.queue.push(self.top.deadline, EventKind.DEADLINE_FIRE,
                        ARBITRATOR, ARBITRATOR, None)
        while self.queue:
            ev = self.queue.advance()
            self.last_time = ev.at  # the heap pops events in time order
            if ev.kind is EventKind.DEADLINE_FIRE:
                # the golden transcripts fix this text: the repr of a bare string
                self._log("deadline", ev.sender, ev.receiver, ev.at,
                          _digest(repr("deadline")))
                self._on_deadline(ev.at)
                continue
            kind, body = ev.payload
            event, handler = _DISPATCH[kind]
            self._log(event, ev.sender, ev.receiver, ev.at,
                      self._delivery_digest(kind, body))
            handler(self, ev, body)
        self._claims()
        return Transcript(
            security=self.sec,
            lines=self.lines,
            outcomes={r: self.record.verdicts[r] for r in self.top.receiver_ids},
            announcements=dict(self.announcements),
            timeout_claims=self.claims,
            record=self.record,
            signer_keys=self.signer_sk,
            session_keys=self.session,
        )

    def _on_broadcast(self, ev: Event, bundle: SignatureBundle) -> None:
        rid = ev.receiver
        self.receiver_copy[rid] = bundle
        out, extra = self.script.apply("forward", rid, ARBITRATOR, bundle)
        if out is not None:
            self._send(ev.at + 1 + extra, rid, ARBITRATOR, "forward",
                       ForwardPacket(rid, out, self.link_keys[rid], sent_at=ev.at))

    def _on_forward(self, ev: Event, packet: ForwardPacket) -> None:
        if not self.closed and packet.receiver_id not in self.packets:
            self.packets[packet.receiver_id] = packet

    def _on_deadline(self, now: int) -> None:
        self.closed = True
        timeouts = [r for r in self.top.receiver_ids if r not in self.packets]
        if timeouts:
            self._send(now + 1, ARBITRATOR, SIGNER, "key-request", timeouts)
        else:
            self._finish_close(now, {})

    def _on_key_request(self, ev: Event, timeouts: list[str]) -> None:
        self._send(ev.at + 1, SIGNER, ARBITRATOR, "key-response",
                   [(r, self.link_keys[r]) for r in timeouts])

    def _on_key_response(self, ev: Event, keys: list[tuple[str, KeyBundle]]) -> None:
        self._finish_close(ev.at, dict(keys))

    def _finish_close(self, now: int, fetched: Mapping[str, KeyBundle]) -> None:
        self.session = arbitrator_close_round(
            self.record, list(self.packets.values()), now, fetched)
        for rid in self.top.receiver_ids:
            if self.record.verdicts.get(rid) is VerificationOutcome.TIMED_OUT:
                self._log("verdict", ARBITRATOR, rid, now, _digest(
                    _wire("verdict", (rid, VerificationOutcome.TIMED_OUT))))
        for rid in self.top.receiver_ids:
            if rid in self.packets:
                self._send(now + 1, ARBITRATOR, rid, "key-release", self.session)

    def _on_key_release(self, ev: Event, session: SessionKeys) -> None:
        rid = ev.receiver
        verdict = receiver_verify(self.receiver_copy[rid], session)
        self.announcements[rid] = verdict
        self._send(ev.at + 1, rid, ARBITRATOR, "announce", (rid, verdict))

    def _on_announce(self, ev: Event,
                     announcement: tuple[str, VerificationOutcome]) -> None:
        rid, verdict = announcement
        if verdict is VerificationOutcome.ACCEPTED:
            outcome = arbitrator_verify(self.packets[rid], self.session)
            if outcome is VerificationOutcome.ACCEPTED:
                self.record.archive_verified(self.packets[rid].bundle)
        else:
            outcome = VerificationOutcome.REJECTED
        self.record.verdicts[rid] = outcome
        self._log("verdict", ARBITRATOR, rid, ev.at,
                  _digest(_wire("verdict", (rid, outcome))))

    def _claims(self) -> None:
        self.claims: dict[str, bool] = {}
        for rid in self.top.receiver_ids:
            if (self.record.verdicts.get(rid) is VerificationOutcome.TIMED_OUT
                    and rid in self.receiver_copy):
                bundle = self.receiver_copy[rid]
                ok = timeout_forward_verify(self.record, rid, bundle, self.link_keys[rid])
                self.claims[rid] = ok
                self._log("timeout-claim", rid, ARBITRATOR, self.last_time + 1,
                          _digest(_wire("claim", (rid, bundle, ok))))


# delivery kind -> (transcript event name, handler), resolved once
_DISPATCH = {kind: ("deliver:" + kind,
                    getattr(_RoundRunner, "_on_" + kind.replace("-", "_")))
             for kind in ("broadcast", "forward", "key-request", "key-response",
                          "key-release", "announce")}


def run_round(topology: Topology, security: SecurityParams,
              script: AdversaryScript | None = None, seed: int = 0) -> Transcript:
    """Execute one full round on a random message and return its transcript.

    The transcript (event lines, verdicts, claims) is a deterministic
    function of the arguments; malformed scripts fail before any event runs.
    """
    return _RoundRunner(topology, security, script or AdversaryScript(), seed).run()
