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
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Mapping

from .config import ConfigurationError, IniFile
from .gf2_hash import BitString
from .keymat import KeyBundle, SecurityParams, SessionKeys, combine, distribute_keys
from .protocol import (
    ForwardPacket,
    RoundRecord,
    SignatureBundle,
    TagMemo,
    VerificationOutcome,
    arbitrator_close_round,
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

# an event's tie-break rank at equal time: a deadline firing at t precedes a
# delivery at t, so arrival exactly at the deadline is late
DEADLINE_FIRE, DELIVER = 0, 1


class EventQueue:
    """Min-heap of transmissions, each a plain ``(at, rank, sender, seq,
    payload)`` tuple ordered as a tuple.

    ``seq`` is unique per queue, so a comparison never reaches ``payload``,
    which is ``(line kind, copies)``: ``copies`` lists the ``(receiver,
    body)`` pairs in receiver order, one pair for a unicast.  The deadline
    is one copy from the arbitrator to itself, with body None.

    A transmission to several receivers stands for copies that would
    otherwise be queued back to back under consecutive seqs: nothing else
    can order between them, so one event carries them all.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._next_seq = 0

    def push(self, at: int, rank: int, sender: str,
             payload: tuple[str, object]) -> tuple:
        ev = (at, rank, sender, self._next_seq, payload)
        self._next_seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def advance(self) -> tuple:
        return heapq.heappop(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# ---------------------------------------------------------------------------
# Transcript texts: each line kind has one text, built from the line's record
# when the transcript is read


def _bundle_text(bundle: SignatureBundle) -> str:
    return (f"bundle:{bundle.message.to_hex()}/{bundle.message.length}"
            f":{bundle.signature.to_hex()}/{bundle.signature.length}")


def _keys_text(keys: KeyBundle) -> str:
    return f"keys:{keys.x.to_hex()}:{keys.y.to_hex()}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# A record is one transcript line as plain data:
# (sender, receiver, at, kind, body).  Each text below builds a line's text
# from (sender, receiver, body); ``text_of`` gives a bundle's text.

def _broadcast_text(sender, receiver, bundle: SignatureBundle, text_of) -> str:
    return f"broadcast[{text_of(bundle)}]"


def _forward_text(sender, receiver, packet: ForwardPacket, text_of) -> str:
    return (f"forward[{packet.receiver_id}:{text_of(packet.bundle)}"
            f":{_keys_text(packet.keys)}:{packet.sent_at}]")


def _deadline_text(sender, receiver, body, text_of) -> str:
    # the golden transcripts fix this text: the repr of a bare string
    return repr("deadline")


def _key_request_text(sender, receiver, timeouts: tuple[str, ...], text_of) -> str:
    return f"key-request[{','.join(timeouts)}]"


def _key_response_text(sender, receiver, keys: Mapping[str, KeyBundle],
                       text_of) -> str:
    text = ",".join(f"{r}:{_keys_text(k)}" for r, k in keys.items())
    return f"key-response[{text}]"


def _key_release_text(sender, receiver, session: SessionKeys, text_of) -> str:
    return f"key-release[session:{session.xs.to_hex()}:{session.ys.to_hex()}]"


def _announce_text(sender, receiver, verdict: VerificationOutcome, text_of) -> str:
    return f"announce[{sender}:{verdict.value}]"


def _verdict_text(sender, receiver, outcome: VerificationOutcome, text_of) -> str:
    return f"verdict[{receiver}:{outcome.value}]"


def _claim_text(sender, receiver, claim: tuple[SignatureBundle, bool],
                text_of) -> str:
    return f"claim[{sender}:{text_of(claim[0])}:{claim[1]}]"


# line kind -> (transcript event name, text, by_body): the one place a line
# is named and given its text; a by_body text is a function of the body
# alone, so the lines that carry one body object share one digest
_LINES = {
    "broadcast": ("deliver:broadcast", _broadcast_text, True),
    "forward": ("deliver:forward", _forward_text, False),
    "key-request": ("deliver:key-request", _key_request_text, False),
    "key-response": ("deliver:key-response", _key_response_text, False),
    "key-release": ("deliver:key-release", _key_release_text, True),
    "announce": ("deliver:announce", _announce_text, False),
    "deadline": ("deadline", _deadline_text, False),
    "verdict": ("verdict", _verdict_text, False),
    "claim": ("timeout-claim", _claim_text, False),
}


def _render_lines(records: list[tuple]) -> list[str]:
    """The transcript lines of ``records``, each text built and digested once.

    A bundle object's text is built once, and so is the digest of a
    broadcast or key-release body shared by several lines.  Keys are object
    ids, which stay valid because the records keep every body alive.
    """
    bundle_texts: dict[int, str] = {}
    shared: dict[int, str] = {}

    def text_of(bundle: SignatureBundle) -> str:
        text = bundle_texts.get(id(bundle))
        if text is None:
            text = bundle_texts[id(bundle)] = _bundle_text(bundle)
        return text

    lines = []
    for sender, receiver, at, kind, body in records:
        event, text, by_body = _LINES[kind]
        digest = shared.get(id(body)) if by_body else None
        if digest is None:
            digest = _digest(text(sender, receiver, body, text_of))
            if by_body:
                shared[id(body)] = digest
        # the leading 0 is the round number the golden transcripts fix
        lines.append(f"0 {event} {sender} {receiver} {at} {digest}")
    return lines


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
    # kind -> sender -> positions of the rules that name them, None for a
    # wildcard: a copy can only match the rules filed under its kind or None
    # and, within those, its sender or None
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict = {}
        for pos, rule in enumerate(self.rules):
            index.setdefault(rule.kind, {}).setdefault(rule.sender, []).append(pos)
        object.__setattr__(self, "_index", index)

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
        positions: list[int] = []
        for by_sender in (self._index.get(kind), self._index.get(None)):
            if by_sender:
                positions += by_sender.get(sender, ())
                positions += by_sender.get(None, ())
        if not positions:
            return bundle, 0
        positions.sort()  # the groups are disjoint: this merges them in script order
        extra = 0
        for pos in positions:
            rule = self.rules[pos]
            if rule.receiver is not None and rule.receiver != receiver:
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
    """Full record of one simulated round.

    ``records`` holds one plain-data record per line; the line texts and
    their digests are built each time ``lines`` or ``render()`` is read,
    and never inside the round.
    """

    security: SecurityParams
    records: list[tuple]
    outcomes: dict[str, VerificationOutcome]
    announcements: dict[str, VerificationOutcome]
    timeout_claims: dict[str, bool]
    record: RoundRecord
    signer_keys: SessionKeys
    session_keys: SessionKeys | None

    @property
    def lines(self) -> list[str]:
        return _render_lines(self.records)

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
        # the round's one tag memo: every untampered copy verifies off sign's tag
        self.memo = TagMemo()
        self.bundle = sign(message, self.signer_sk, self.rng, self.memo)

        self.record = RoundRecord.open(topology.receiver_ids, topology.deadline,
                                       self.arb_bundle)
        self.queue = EventQueue()
        self.records: list[tuple] = []
        self.receiver_copy: dict[str, SignatureBundle] = {}
        self.packets: dict[str, ForwardPacket] = {}
        self.announcements: dict[str, VerificationOutcome] = {}
        self.session: SessionKeys | None = None

    def run(self) -> Transcript:
        """Play the round out; one record and one handler call per copy.

        Every event is one transmission, ``(kind, copies)``: the signer's
        broadcast is one per arrival time, the key release one, and the
        deadline one copy to the arbitrator itself.  Each copy gets its own
        record, in receiver order.  Handlers push their sends straight onto
        the queue, at ``at + 1`` or later, so none can come between the
        copies of a transmission.
        """
        queue = self.queue
        arrivals: dict[int, list[tuple[str, SignatureBundle]]] = {}
        for rid in self.top.receiver_ids:
            out, extra = self.script.apply("broadcast", SIGNER, rid, self.bundle)
            if out is not None:
                arrivals.setdefault(1 + extra, []).append((rid, out))
        for at, copies in arrivals.items():
            queue.push(at, DELIVER, SIGNER, ("broadcast", copies))
        queue.push(self.top.deadline, DEADLINE_FIRE, ARBITRATOR,
                   ("deadline", ((ARBITRATOR, None),)))
        records = self.records
        while queue:
            at, _, sender, _, (kind, copies) = queue.advance()
            handler = _DISPATCH[kind]
            for receiver, body in copies:
                records.append((sender, receiver, at, kind, body))
                handler(self, at, sender, receiver, body)
        # the deadline is always queued, and the heap pops events in time
        # order, so the claims come one unit after the last event
        self._claims(at + 1)
        return Transcript(
            security=self.sec,
            records=records,
            outcomes={r: self.record.verdicts[r] for r in self.top.receiver_ids},
            announcements=dict(self.announcements),
            timeout_claims=self.claims,
            record=self.record,
            signer_keys=self.signer_sk,
            session_keys=self.session,
        )

    # a handler takes (at, sender, receiver, body) of one copy

    def _on_broadcast(self, at: int, sender: str, rid: str,
                      bundle: SignatureBundle) -> None:
        self.receiver_copy[rid] = bundle
        out, extra = self.script.apply("forward", rid, ARBITRATOR, bundle)
        if out is not None:
            packet = ForwardPacket(rid, out, self.link_keys[rid], sent_at=at)
            self.queue.push(at + 1 + extra, DELIVER, rid,
                            ("forward", ((ARBITRATOR, packet),)))

    def _on_forward(self, at: int, rid: str, receiver: str,
                    packet: ForwardPacket) -> None:
        """Keep a forward that arrives before the deadline (one per receiver)."""
        # at the deadline is late: the deadline pops first at its own time
        if at < self.top.deadline:
            self.packets[rid] = packet

    def _on_deadline(self, at: int, sender: str, receiver: str, body: None) -> None:
        timeouts = tuple(r for r in self.top.receiver_ids if r not in self.packets)
        if timeouts:
            self.queue.push(at + 1, DELIVER, ARBITRATOR,
                            ("key-request", ((SIGNER, timeouts),)))
        else:
            self._on_key_response(at, sender, receiver, {})

    def _on_key_request(self, at: int, sender: str, receiver: str,
                        timeouts: tuple[str, ...]) -> None:
        self.queue.push(at + 1, DELIVER, SIGNER, ("key-response", (
            (ARBITRATOR, {r: self.link_keys[r] for r in timeouts}),)))

    def _on_key_response(self, at: int, sender: str, receiver: str,
                         fetched: Mapping[str, KeyBundle]) -> None:
        """Close the round on the on-time forwards, and release the session keys."""
        session = self.session = arbitrator_close_round(
            self.record, self.packets, at, fetched)
        # ``packets`` holds exactly the forwards that arrived before the
        # deadline, and ``fetched`` the keys of exactly the other receivers,
        # in receiver order
        for rid in fetched:
            self.records.append((ARBITRATOR, rid, at, "verdict",
                                 VerificationOutcome.TIMED_OUT))
        copies = [(rid, session) for rid in self.top.receiver_ids
                  if rid in self.packets]
        if copies:  # an empty transmission would still move the claims' time
            self.queue.push(at + 1, DELIVER, ARBITRATOR, ("key-release", copies))

    def _on_key_release(self, at: int, sender: str, rid: str,
                        session: SessionKeys) -> None:
        verdict = receiver_verify(self.receiver_copy[rid], session, self.memo)
        self.announcements[rid] = verdict
        self.queue.push(at + 1, DELIVER, rid, ("announce", ((ARBITRATOR, verdict),)))

    def _on_announce(self, at: int, rid: str, receiver: str,
                     verdict: VerificationOutcome) -> None:
        if verdict is VerificationOutcome.ACCEPTED:
            bundle = self.packets[rid].bundle
            outcome = receiver_verify(bundle, self.session, self.memo)
            if outcome is VerificationOutcome.ACCEPTED:
                self.record.archive_verified(bundle)
        else:
            outcome = VerificationOutcome.REJECTED
        self.record.verdicts[rid] = outcome
        self.records.append((ARBITRATOR, rid, at, "verdict", outcome))

    def _claims(self, at: int) -> None:
        """Each timed-out receiver (none in ``packets``) claims the copy it holds."""
        self.claims: dict[str, bool] = {}
        for rid in self.top.receiver_ids:
            if rid not in self.packets and rid in self.receiver_copy:
                bundle = self.receiver_copy[rid]
                ok = timeout_forward_verify(self.record, rid, bundle, self.link_keys[rid])
                self.claims[rid] = ok
                self.records.append((rid, ARBITRATOR, at, "claim", (bundle, ok)))


# transmission kind -> handler, resolved once
_DISPATCH = {kind: getattr(_RoundRunner, "_on_" + kind.replace("-", "_"))
             for kind in ("broadcast", "forward", "deadline", "key-request",
                          "key-response", "key-release", "announce")}


def run_round(topology: Topology, security: SecurityParams,
              script: AdversaryScript | None = None, seed: int = 0) -> Transcript:
    """Execute one full round on a random message and return its transcript.

    The transcript (event lines, verdicts, claims) is a deterministic
    function of the arguments; malformed scripts fail before any event runs.
    """
    return _RoundRunner(topology, security, script or AdversaryScript(), seed).run()
