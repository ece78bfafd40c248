"""Event ordering, round simulation, adversary scripts, config loading."""

import gc
import hashlib
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqds import netsim, protocol
from aqds.config import ConfigurationError
from aqds.gf2_hash import BitString
from aqds.keymat import SecurityParams, link_bits, total_consumption
from aqds.netsim import (
    AdversaryScript,
    Event,
    EventKind,
    EventQueue,
    Rule,
    Topology,
    _bundle_text,
    _digest,
    load_script,
    run_round,
)
from aqds.protocol import SignatureBundle, VerificationOutcome

A = VerificationOutcome.ACCEPTED
SEC3 = SecurityParams.for_n(16, 64, 3)


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(5, EventKind.DELIVER, "a", "later")
        q.push(1, EventKind.DELIVER, "a", "sooner")
        assert q.advance().payload == "sooner"
        assert q.advance().payload == "later"

    def test_deadline_precedes_deliver_at_equal_time(self):
        q = EventQueue()
        q.push(7, EventKind.DELIVER, "a", "deliver")
        q.push(7, EventKind.DEADLINE_FIRE, "arb", "deadline")
        assert q.advance().kind is EventKind.DEADLINE_FIRE

    def test_deadline_after_earlier_deliver(self):
        q = EventQueue()
        q.push(6, EventKind.DELIVER, "a", "deliver")
        q.push(7, EventKind.DEADLINE_FIRE, "arb", "deadline")
        assert q.advance().kind is EventKind.DELIVER

    def test_sender_then_sequence_tiebreak(self):
        q = EventQueue()
        q.push(3, EventKind.DELIVER, "z", "1")
        q.push(3, EventKind.DELIVER, "a", "2")
        q.push(3, EventKind.DELIVER, "a", "3")
        assert [q.advance().payload for _ in range(3)] == ["2", "3", "1"]

    def test_empty_queue_signals_completion(self):
        q = EventQueue()
        q.push(1, EventKind.DELIVER, "a", "only")
        assert q
        q.advance()
        assert not q

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(list(EventKind)),
                              st.sampled_from("abc")), max_size=30))
    def test_random_insertion_matches_sorted_reference(self, spec):
        q = EventQueue()
        events = [q.push(at, kind, sender, i)
                  for i, (at, kind, sender) in enumerate(spec)]
        reference = sorted(events, key=lambda e: e[:4])
        drained = []
        while q:
            drained.append(q.advance())
        assert drained == reference


class TestEventTuples:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(list(EventKind)),
                              st.sampled_from("abc")), max_size=30))
    def test_drained_events_equal_sorted_events(self, spec):
        # events order as tuples; the unique seq decides before the payload
        q = EventQueue()
        events = [q.push(at, kind, sender, object())
                  for at, kind, sender in spec]
        drained = []
        while q:
            drained.append(q.advance())
        assert drained == sorted(events)
        assert drained == sorted(events, key=lambda e: e[:4])

    def test_fields_in_order(self):
        ev = EventQueue().push(3, EventKind.DELIVER, "a", "body")
        assert Event._fields == ("at", "kind", "sender", "seq", "payload")
        assert ev == Event(3, EventKind.DELIVER, "a", 0, "body")
        assert ev[:4] == (3, EventKind.DELIVER, "a", 0)


class TestTopology:
    def test_fully_connected(self):
        top = Topology.fully_connected(3)
        assert top.receiver_ids == ("r1", "r2", "r3")
        assert top.k == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(())
        with pytest.raises(ValueError):
            Topology(("signer",))
        with pytest.raises(ValueError):
            Topology(("arbitrator",))
        with pytest.raises(ValueError):
            Topology(("r1", "r1"))
        with pytest.raises(ValueError):
            Topology(("r1",), deadline=0)


class TestRunRound:
    def test_empty_script_all_accepted(self):
        t = run_round(Topology.fully_connected(3), SEC3, seed=1)
        assert all(v is A for v in t.outcomes.values())

    def test_delay_script_times_out_one_receiver(self):
        script = AdversaryScript((Rule(action="delay", kind="forward",
                                       sender="r2", delta=20),))
        t = run_round(Topology.fully_connected(3), SEC3, script, seed=1)
        assert t.outcomes["r2"] is VerificationOutcome.TIMED_OUT
        assert t.outcomes["r1"] is A and t.outcomes["r3"] is A
        # the late receiver still learns the signature was genuine
        assert t.timeout_claims == {"r2": True}

    def test_timed_out_receiver_gets_no_key_release(self):
        script = AdversaryScript((Rule(action="drop", kind="forward",
                                       sender="r1"),))
        t = run_round(Topology.fully_connected(3), SEC3, script, seed=3)
        assert t.outcomes["r1"] is VerificationOutcome.TIMED_OUT
        assert not any(" deliver:key-release arbitrator r1 " in line
                       for line in t.lines)
        assert any(" deliver:key-release arbitrator r2 " in line
                   for line in t.lines)

    def test_deterministic_transcript(self):
        top = Topology.fully_connected(4)
        sec = SecurityParams.for_n(12, 48, 4)
        a = run_round(top, sec, seed=99)
        b = run_round(top, sec, seed=99)
        assert a.render() == b.render()
        assert a.outcomes == b.outcomes

    def test_different_seed_different_transcript(self):
        top = Topology.fully_connected(2)
        sec = SecurityParams.for_n(12, 48, 2)
        assert run_round(top, sec, seed=1).render() != \
            run_round(top, sec, seed=2).render()

    def test_tampered_forward_rejected_for_that_receiver(self):
        script = AdversaryScript((Rule(action="tamper", kind="forward",
                                       sender="r3", target="message",
                                       positions=(0, 5)),))
        t = run_round(Topology.fully_connected(3), SEC3, script, seed=4)
        assert t.outcomes["r3"] is VerificationOutcome.REJECTED
        assert t.announcements["r3"] is A  # the receiver itself saw a clean copy
        assert t.outcomes["r1"] is A and t.outcomes["r2"] is A

    def test_tampered_broadcast_rejected_by_receiver(self):
        script = AdversaryScript((Rule(action="tamper", kind="broadcast",
                                       receiver="r1", target="signature",
                                       positions=(3,)),))
        t = run_round(Topology.fully_connected(3), SEC3, script, seed=5)
        assert t.announcements["r1"] is VerificationOutcome.REJECTED
        assert t.outcomes["r1"] is VerificationOutcome.REJECTED

    def test_two_flips_of_one_bit_give_the_honest_round(self):
        # the second tamper undoes the first: the copy is a new object equal
        # to the genuine bundle, so its text, digests and verdicts are too
        flip = Rule(action="tamper", kind="broadcast", receiver="r1",
                    target="signature", positions=(3,))
        sec = SecurityParams.for_n(8, 32, 3)
        honest = run_round(Topology.fully_connected(3), sec, seed=5)
        t = run_round(Topology.fully_connected(3), sec,
                      AdversaryScript((flip, flip)), seed=5)
        assert t.render() == honest.render()

    def test_forward_tampered_back_is_still_rejected(self):
        # r1 holds a tampered copy and announces REJECTED; its forward,
        # flipped back to the genuine bundle, does not change the verdict
        script = AdversaryScript((
            Rule(action="tamper", kind="broadcast", receiver="r1",
                 target="signature", positions=(3,)),
            Rule(action="tamper", kind="forward", sender="r1",
                 target="signature", positions=(3,))))
        t = run_round(Topology.fully_connected(3), SecurityParams.for_n(8, 32, 3),
                      script, seed=5)
        R = VerificationOutcome.REJECTED
        assert t.announcements == {"r1": R, "r2": A, "r3": A}
        assert t.outcomes == {"r1": R, "r2": A, "r3": A}
        assert t.timeout_claims == {}

    def test_dropped_broadcast_times_out_with_no_claim(self):
        script = AdversaryScript((Rule(action="drop", kind="broadcast",
                                       receiver="r2"),))
        t = run_round(Topology.fully_connected(3), SEC3, script, seed=6)
        assert t.outcomes["r2"] is VerificationOutcome.TIMED_OUT
        assert t.timeout_claims == {}

    def test_causality_per_link_delays(self):
        # every hop takes one unit; delay rules hold back single links
        script = AdversaryScript((
            Rule(action="delay", kind="broadcast", receiver="r1", delta=2),
            Rule(action="delay", kind="forward", sender="r1", delta=1)))
        top = Topology.fully_connected(2, deadline=12)
        sec = SecurityParams.for_n(12, 48, 2)
        t = run_round(top, sec, script, seed=7)
        lines = {tuple(line.split()[1:4]): int(line.split()[4]) for line in t.lines}
        assert lines[("deliver:broadcast", "signer", "r1")] == 3
        assert lines[("deliver:forward", "r1", "arbitrator")] == 5
        assert lines[("deliver:broadcast", "signer", "r2")] == 1

    @pytest.mark.parametrize("delta, late", [(2, True), (1, False)])
    def test_arrival_exactly_at_deadline_is_late(self, delta, late):
        # r1's forward arrives at 1 + 1 + delta: exactly at the deadline the
        # deadline fires first and the forward is late; one unit before it
        # the forward is on time
        script = AdversaryScript((Rule(action="delay", kind="forward",
                                       sender="r1", delta=delta),))
        top = Topology.fully_connected(2, deadline=4)
        sec = SecurityParams.for_n(12, 48, 2)
        t = run_round(top, sec, script, seed=8)
        forward_at = 2 + delta
        at_forward = [line.split()[1:3] for line in t.lines
                      if line.split()[4] == str(forward_at)]
        if late:
            assert at_forward[:2] == [["deadline", "arbitrator"],
                                      ["deliver:forward", "r1"]]
        else:
            assert at_forward == [["deliver:forward", "r1"]]
        assert t.outcomes["r1"] is (VerificationOutcome.TIMED_OUT if late else A)
        assert t.outcomes["r2"] is A

    def test_topology_security_mismatch(self):
        with pytest.raises(ValueError):
            run_round(Topology.fully_connected(2), SEC3, seed=0)

    def test_session_keys_match_signer_when_honest(self):
        t = run_round(Topology.fully_connected(3), SEC3, seed=9)
        assert t.session_keys == t.signer_keys

    def test_key_accounting(self):
        sec = run_round(Topology.fully_connected(3), SEC3, seed=10).security
        assert link_bits(sec.m_bits, sec.eps_f) == 3 * 16
        assert total_consumption(sec.m_bits, sec.eps_f, sec.k) == 3 * 16 * 4


class TestGoldenTranscript:
    def test_frozen_round_replays_exactly(self):
        # timeout round frozen once; any drift in event ordering, digest
        # canonicalization, or rng consumption shows up here
        script = AdversaryScript((Rule(action="delay", kind="forward",
                                       sender="r2", delta=20),))
        sec = SecurityParams.for_n(8, 32, 2)
        t = run_round(Topology.fully_connected(2), sec, script, seed=123)
        from pathlib import Path
        golden = Path(__file__).parent / "data" / "golden_round_seed123.txt"
        assert t.render() == golden.read_text()

    def test_frozen_multi_timeout_round_replays_exactly(self):
        # k = 5: r5's broadcast dropped, r3 and r4 forward past the deadline
        # (three-item key request and response), r2's forward tampered so
        # the arbitrator rejects it
        script = AdversaryScript((
            Rule(action="drop", kind="broadcast", receiver="r5"),
            Rule(action="delay", kind="forward", sender="r3", delta=20),
            Rule(action="delay", kind="forward", sender="r4", delta=20),
            Rule(action="tamper", kind="forward", sender="r2", positions=(3,)),
        ))
        sec = SecurityParams.for_n(8, 32, 5)
        t = run_round(Topology.fully_connected(5), sec, script, seed=123)
        assert t.outcomes["r2"] is VerificationOutcome.REJECTED
        assert t.timeout_claims == {"r3": True, "r4": True}
        from pathlib import Path
        golden = Path(__file__).parent / "data" / "golden_round_multi.txt"
        assert t.render() == golden.read_text()


class TestBundleEncoding:
    def test_each_bundle_object_gets_its_own_text(self):
        # the text comes from the bundle's own bits, whatever was encoded before
        a = SignatureBundle(BitString(0x5A, 8), BitString(0x9, 4))
        tampered = SignatureBundle(a.message.flip(0), a.signature)
        twin = SignatureBundle(a.message, a.signature)
        texts = [_bundle_text(b) for b in (a, a, tampered, a, twin, tampered)]
        assert texts == ["bundle:5a/8:90/4", "bundle:5a/8:90/4", "bundle:da/8:90/4",
                         "bundle:5a/8:90/4", "bundle:5a/8:90/4", "bundle:da/8:90/4"]


def text_round():
    # k = 4 at n = 8, m = 32: r2 and r4 get tampered broadcasts, r3 and r4
    # forward late, so every line kind and every verdict shows up once
    script = AdversaryScript((
        Rule(action="tamper", kind="broadcast", receiver="r2", target="signature",
             positions=(1,)),
        Rule(action="tamper", kind="broadcast", receiver="r4", target="signature",
             positions=(1,)),
        Rule(action="delay", kind="forward", sender="r3", delta=20),
        Rule(action="delay", kind="forward", sender="r4", delta=20)))
    sec = SecurityParams.for_n(8, 32, 4)
    return run_round(Topology.fully_connected(4), sec, script, seed=5)


class TestWireText:
    # each line's digest is the digest of one text per line kind, pinned at
    # the texts the golden transcripts fix
    @pytest.mark.parametrize("line, text", [
        ("deliver:broadcast signer r1 1", "broadcast[bundle:05beb837/32:c844/16]"),
        ("deliver:forward r2 arbitrator 2",
         "forward[r2:bundle:05beb837/32:8844/16:keys:a7bd:da:1]"),
        ("deadline arbitrator arbitrator 10", "'deadline'"),
        ("deliver:key-request arbitrator signer 11", "key-request[r3,r4]"),
        ("deliver:key-response signer arbitrator 12",
         "key-response[r3:keys:89d3:0d,r4:keys:228f:eb]"),
        ("verdict arbitrator r3 12", "verdict[r3:timed-out]"),
        ("deliver:key-release arbitrator r1 13", "key-release[session:f4a5:db]"),
        ("deliver:announce r2 arbitrator 14", "announce[r2:rejected]"),
        ("verdict arbitrator r1 14", "verdict[r1:accepted]"),
        ("timeout-claim r3 arbitrator 23", "claim[r3:bundle:05beb837/32:c844/16:True]"),
        ("timeout-claim r4 arbitrator 23", "claim[r4:bundle:05beb837/32:8844/16:False]"),
    ])
    def test_text_per_line_kind(self, line, text):
        digests = {entry[2:-17]: entry[-16:] for entry in text_round().lines}
        assert digests[line] == _digest(text)

    def test_repeated_delivery_digest_is_per_body(self):
        # only r2's broadcast is a tampered copy: r3 follows it with the
        # genuine bundle again, so a reused digest must match the body too
        script = AdversaryScript((Rule(action="tamper", kind="broadcast",
                                       receiver="r2", positions=(0,)),))
        sec = SecurityParams.for_n(12, 48, 4)
        t = run_round(Topology.fully_connected(4), sec, script, seed=12)
        genuine = t.record.message, t.record.signature
        broadcasts = {line.split()[3]: line.split()[5] for line in t.lines
                      if line.split()[1] == "deliver:broadcast"}
        copy = SignatureBundle(genuine[0].flip(0), genuine[1])
        want = _digest(f"broadcast[{_bundle_text(SignatureBundle(*genuine))}]")
        tampered = _digest(f"broadcast[{_bundle_text(copy)}]")
        assert want != tampered
        assert broadcasts == {"r1": want, "r2": tampered, "r3": want, "r4": want}


class TestAuthenticatedChannels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_fuzzed_scripts_cannot_corrupt_key_material(self, seed):
        # random scripts over the tamperable kinds: the arbitrator's archived
        # key set and released session keys always match the distributed ones
        rng = Random(seed)
        rules = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["broadcast", "forward"])
            action = rng.choice(["tamper", "delay", "drop"])
            node = rng.choice(["r1", "r2", "r3", None])
            field = "receiver" if kind == "broadcast" else "sender"
            kwargs = {"action": action, "kind": kind, field: node}
            if action == "tamper":
                kwargs["target"] = rng.choice(["message", "signature"])
                kwargs["positions"] = (rng.randrange(16),)
            if action == "delay":
                kwargs["delta"] = rng.randrange(30)
            rules.append(Rule(**kwargs))
        t = run_round(Topology.fully_connected(3), SEC3,
                      AdversaryScript(tuple(rules)), seed=seed)
        # independently re-derive the distributed bundles from the seed
        clean = run_round(Topology.fully_connected(3), SEC3, seed=seed)
        assert t.record.key_set == clean.record.key_set
        assert t.session_keys == clean.session_keys

    def test_script_cannot_name_protected_kinds(self):
        for kind in ("key-release", "key-request", "announce"):
            with pytest.raises(ConfigurationError):
                Rule(action="drop", kind=kind)


class TestScriptValidation:
    def test_unknown_action(self):
        with pytest.raises(ConfigurationError):
            Rule(action="explode")

    def test_tamper_needs_positions(self):
        with pytest.raises(ConfigurationError):
            Rule(action="tamper")

    def test_negative_delay(self):
        with pytest.raises(ConfigurationError):
            Rule(action="delay", delta=-1)

    def test_replace_needs_payload(self):
        with pytest.raises(ConfigurationError):
            Rule(action="replace")

    def test_replace_rewrites_component(self):
        script = AdversaryScript((Rule(action="replace", kind="forward",
                                       sender="r1", target="message",
                                       payload_hex="00000000000000000000000000000000"),))
        sec = SecurityParams.for_n(16, 128, 1)
        t = run_round(Topology.fully_connected(1), sec, script, seed=11)
        assert t.outcomes["r1"] is VerificationOutcome.REJECTED


class TestApplyRuleTable:
    def test_wildcards_links_delay_order_and_drop(self):
        bundle = SignatureBundle(BitString(0x5A, 8), BitString(0x9, 4))
        script = AdversaryScript((
            Rule(action="delay", delta=1),  # every field a wildcard
            Rule(action="delay", kind="forward", delta=2),
            Rule(action="delay", kind="forward", sender="r1", delta=4),
            Rule(action="tamper", kind="broadcast", receiver="r2", positions=(0,)),
            Rule(action="drop", sender="r3"),
            Rule(action="delay", kind="forward", sender="r3", delta=8)))
        table = {
            ("broadcast", "signer", "r1"): (bundle, 1),
            ("broadcast", "signer", "r2"): (
                SignatureBundle(bundle.message.flip(0), bundle.signature), 1),
            ("broadcast", "signer", "r3"): (bundle, 1),
            ("forward", "r1", "arbitrator"): (bundle, 1 + 2 + 4),
            ("forward", "r2", "arbitrator"): (bundle, 1 + 2),
            # a drop returns the delay the rules before it added
            ("forward", "r3", "arbitrator"): (None, 1 + 2),
        }
        for (kind, sender, receiver), want in table.items():
            assert script.apply(kind, sender, receiver, bundle) == want

    def test_a_kind_no_rule_names_passes_untouched(self):
        bundle = SignatureBundle(BitString(0x5A, 8), BitString(0x9, 4))
        forwards_only = AdversaryScript((
            Rule(action="drop", kind="forward", sender="r1"),
            Rule(action="delay", kind="forward", delta=3)))
        assert forwards_only.apply("broadcast", "signer", "r1", bundle) == (bundle, 0)
        assert forwards_only.apply("forward", "r2", "arbitrator", bundle) == (bundle, 3)
        # a wildcard kind still reaches every kind, in rule order
        wildcard = AdversaryScript(forwards_only.rules + (
            Rule(action="tamper", receiver="r1", positions=(0,)),))
        tampered = SignatureBundle(bundle.message.flip(0), bundle.signature)
        assert wildcard.apply("broadcast", "signer", "r1", bundle) == (tampered, 0)
        assert wildcard.apply("forward", "r1", "arbitrator", bundle) == (None, 0)
        assert AdversaryScript().apply("forward", "r1", "arbitrator", bundle) == (bundle, 0)


# one receiver's fate in stage 3: (broadcast, forward); a dropped broadcast
# leaves nothing to forward
FATES = [(b, f) for b in ("genuine", "tampered")
         for f in ("on-time", "late", "dropped", "tampered")] + [("dropped", None)]


def fate_rules(rid, fate):
    # tampering flips tag bits of the signature (bit 1 on the broadcast,
    # bit 0 on the forward), so a tampered copy is rejected with certainty
    broadcast, forward = fate
    rules = {
        "dropped": [Rule(action="drop", kind="broadcast", receiver=rid)],
        "tampered": [Rule(action="tamper", kind="broadcast", receiver=rid,
                          target="signature", positions=(1,))],
    }.get(broadcast, [])
    rules += {
        "late": [Rule(action="delay", kind="forward", sender=rid, delta=20)],
        "dropped": [Rule(action="drop", kind="forward", sender=rid)],
        "tampered": [Rule(action="tamper", kind="forward", sender=rid,
                          target="signature", positions=(0,))],
    }.get(forward, [])
    return rules


def fates_of(case):
    return dict(zip(("r1", "r2", "r3"),
                    (FATES[case // 81], FATES[case // 9 % 9], FATES[case % 9])))


class TestStageThreeFates:
    # the case number is also the round's seed
    @pytest.mark.parametrize("case", range(len(FATES) ** 3), ids=lambda case: ",".join(
        f"{b}/{f or '-'}" for b, f in fates_of(case).values()))
    def test_every_fate_combination(self, case):
        fates = fates_of(case)
        rules = [rule for rid, fate in fates.items() for rule in fate_rules(rid, fate)]
        t = run_round(Topology.fully_connected(3), SEC3,
                      AdversaryScript(tuple(rules)), seed=case)
        # repudiated: a receiver announced ACCEPTED, the arbitrator confirmed none
        repudiated = (A in t.announcements.values()
                      and A not in t.outcomes.values())
        # only a tampered forward repudiates, and it does exactly when it is a
        # genuine holder's and no genuine holder's forward arrived on time
        assert not repudiated or any(f == "tampered" for _, f in fates.values())
        assert repudiated == (("genuine", "tampered") in fates.values()
                              and ("genuine", "on-time") not in fates.values())
        confirmed = ("genuine", "on-time") in fates.values()
        assert (t.record.message is not None) == confirmed
        for rid, (broadcast, forward) in fates.items():
            if broadcast == "genuine" and forward in ("late", "dropped"):
                assert t.timeout_claims[rid] is confirmed
            # no ACCEPTED verdict and no accepted claim on a non-genuine copy
            if broadcast != "genuine":
                assert t.announcements.get(rid) is not A
                assert t.timeout_claims.get(rid) is not True
            if broadcast != "genuine" or forward == "tampered":
                assert t.outcomes[rid] is not A

    def test_every_fate_transcript_is_frozen(self):
        # pins line texts no golden file covers: tampered broadcasts, an
        # announced REJECTED and false timeout claims
        digest = hashlib.sha256()
        for case in range(len(FATES) ** 3):
            rules = [rule for rid, fate in fates_of(case).items()
                     for rule in fate_rules(rid, fate)]
            t = run_round(Topology.fully_connected(3), SEC3,
                          AdversaryScript(tuple(rules)), seed=case)
            digest.update(t.render().encode())
        assert digest.hexdigest() == (
            "48593d36ac5acf5734514da1f0a7b1069046532d449ef30480561790d421a72c")


SEC4 = SecurityParams.for_n(8, 32, 4)  # 32-bit messages, 16-bit signatures

# name -> (k, deadline, security, rules): script shapes neither golden file
# nor the fate pin covers
PIN_SCRIPTS = {
    "replace": (4, 10, SEC4, (
        Rule(action="replace", kind="broadcast", receiver="r1", target="message",
             payload_hex="0badf00d"),
        Rule(action="replace", kind="broadcast", receiver="r2", target="signature",
             payload_hex="beef"),
        Rule(action="replace", kind="forward", sender="r3", target="message",
             payload_hex="00000000"),
        Rule(action="replace", kind="forward", sender="r4", target="signature",
             payload_hex="ffff"))),
    "message-tamper": (4, 10, SEC4, (
        Rule(action="tamper", kind="broadcast", receiver="r1", target="message",
             positions=(0, 7, 31)),
        Rule(action="tamper", kind="forward", sender="r2", target="message",
             positions=(5,)),
        Rule(action="tamper", kind="forward", sender="r3", target="message",
             positions=(40,)))),
    "wildcards": (4, 10, SEC4, (
        Rule(action="delay", delta=1),
        Rule(action="tamper", kind="broadcast", target="signature", positions=(2,)),
        Rule(action="delay", kind="forward", delta=3),
        Rule(action="drop", sender="r4"),
        Rule(action="tamper", receiver="r2", positions=(9,)))),
    "delay-and-tamper": (4, 10, SEC4, (
        Rule(action="delay", kind="broadcast", receiver="r1", delta=2),
        Rule(action="tamper", kind="broadcast", receiver="r1", target="signature",
             positions=(12,)),
        Rule(action="tamper", kind="forward", sender="r2", target="message",
             positions=(3,)),
        Rule(action="delay", kind="forward", sender="r2", delta=20))),
    "on-the-deadline": (4, 6, SEC4, (
        # r1's broadcast and r2's forward arrive at exactly 6; r3's forward
        # one unit before it
        Rule(action="delay", kind="broadcast", receiver="r1", delta=5),
        Rule(action="delay", kind="forward", sender="r2", delta=4),
        Rule(action="delay", kind="forward", sender="r3", delta=3))),
    "fanout": (100, 10, SecurityParams(m_bits=512, eps_f=1e-10, k=100), tuple(
        Rule(action="delay", kind="forward", sender=f"r{j}", delta=10)
        for j in range(10, 101, 10))),
}


def pin_round(name, seed):
    k, deadline, sec, rules = PIN_SCRIPTS[name]
    return run_round(Topology.fully_connected(k, deadline=deadline), sec,
                     AdversaryScript(rules), seed=seed)


class TestRenderPin:
    def test_rendered_scripts_are_frozen(self):
        # pinned before transcript lines were rendered on demand: the lazy
        # render must give these rounds byte for byte
        digest = hashlib.sha256()
        for name in PIN_SCRIPTS:
            for seed in (1, 2):
                digest.update(pin_round(name, seed).render().encode())
        assert digest.hexdigest() == (
            "dddbae67f4ec726b16bc27353153b72d36ab7185989b3c88fb6d74534a7b7e1e")


def count_queue_calls(monkeypatch):
    """Patch ``EventQueue.push`` and ``.advance`` to count their calls, and
    the pushes per transmission kind, the deadline included."""
    calls = {"push": 0, "advance": 0}
    pushed = {}
    push, advance = EventQueue.push, EventQueue.advance

    def counted_push(self, at, kind, sender, payload):
        calls["push"] += 1
        pushed[payload[0]] = pushed.get(payload[0], 0) + 1
        return push(self, at, kind, sender, payload)

    def counted_advance(self):
        calls["advance"] += 1
        return advance(self)

    monkeypatch.setattr(EventQueue, "push", counted_push)
    monkeypatch.setattr(EventQueue, "advance", counted_advance)
    return calls, pushed


class TestQueueRouting:
    """Every event of a round is pushed through ``EventQueue.push`` and popped
    through ``EventQueue.advance``, the names the benchmark's tracer counts
    as queue pushes and events."""

    def test_fanout_round_routes_every_event_through_the_queue(self, monkeypatch):
        calls, pushed = count_queue_calls(monkeypatch)
        t = pin_round("fanout", seed=3)
        # the broadcast multicast, the deadline, 90 forwards on time and 10
        # late, the key request and response, the key-release multicast and
        # 90 announcements
        assert calls == {"push": 195, "advance": 195}
        assert pushed["broadcast"] == pushed["key-release"] == 1
        # one record per copy: 100 broadcasts and 90 key releases
        assert len(t.records) == 383 + 90 + 10 + 10  # verdicts and claims

    def test_one_broadcast_event_per_arrival_time(self, monkeypatch):
        _, pushed = count_queue_calls(monkeypatch)
        script = AdversaryScript(tuple(
            Rule(action="delay", kind="broadcast", receiver=rid, delta=2)
            for rid in ("r2", "r4")))
        t = run_round(Topology.fully_connected(4), SEC4, script, seed=1)
        assert pushed["broadcast"] == 2
        assert pushed["key-release"] == 1
        assert [(r[1], r[2]) for r in t.records if r[3] == "broadcast"] == [
            ("r1", 1), ("r3", 1), ("r2", 3), ("r4", 3)]
        assert [r[1] for r in t.records if r[3] == "key-release"] == [
            "r1", "r2", "r3", "r4"]
        assert set(t.outcomes.values()) == {A}


class PerCopyRunner(netsim._RoundRunner):
    """The delivery-order reference: the round as run with one single-copy
    transmission per broadcast copy and per key release, each copy under its
    own seq.  Its loop takes exactly one copy from each event."""

    def run(self):
        queue = self.queue
        for rid in self.top.receiver_ids:
            out, extra = self.script.apply("broadcast", netsim.SIGNER, rid, self.bundle)
            if out is not None:
                queue.push(1 + extra, EventKind.DELIVER, netsim.SIGNER,
                           ("broadcast", [(rid, out)]))
        queue.push(self.top.deadline, EventKind.DEADLINE_FIRE, netsim.ARBITRATOR,
                   ("deadline", [(netsim.ARBITRATOR, None)]))
        while queue:
            at, _, sender, _, (kind, [(receiver, body)]) = queue.advance()
            self.records.append((sender, receiver, at, kind, body))
            handler = getattr(self, "_on_" + kind.replace("-", "_"))
            handler(at, sender, receiver, body)
        self._claims(at + 1)
        return netsim.Transcript(
            security=self.sec, records=self.records,
            outcomes={r: self.record.verdicts[r] for r in self.top.receiver_ids},
            announcements=dict(self.announcements), timeout_claims=self.claims,
            record=self.record, signer_keys=self.signer_sk,
            session_keys=self.session)

    def _on_key_response(self, at, sender, receiver, fetched):
        self.session = protocol.arbitrator_close_round(
            self.record, self.packets, at, fetched)
        for rid in self.top.receiver_ids:
            if self.record.verdicts.get(rid) is VerificationOutcome.TIMED_OUT:
                self.records.append((netsim.ARBITRATOR, rid, at, "verdict",
                                     VerificationOutcome.TIMED_OUT))
        for rid in self.top.receiver_ids:
            if rid in self.packets:
                self.queue.push(at + 1, EventKind.DELIVER, netsim.ARBITRATOR,
                                ("key-release", [(rid, self.session)]))


@st.composite
def scripted_rounds(draw, max_k, max_deadline, max_rules, n=8, m=32):
    """(topology, security, script, seed) with rules of every action on both
    kinds, at key length n and message length m.  Receiver ids come in a
    drawn order, so receiver order is not name order, and delays reach two
    past the deadline: a broadcast delayed by deadline + 1 arrives with the
    key response."""
    k = draw(st.integers(1, max_k))
    deadline = draw(st.integers(1, max_deadline))
    rids = tuple(draw(st.permutations([f"r{i}" for i in range(1, k + 1)])))
    sec = SecurityParams.for_n(n, m, k)  # m-bit messages, 2n-bit signatures
    rules = []
    for _ in range(draw(st.integers(0, max_rules))):
        action = draw(st.sampled_from(("tamper", "delay", "drop", "replace")))
        kind = draw(st.sampled_from(("broadcast", "forward", None)))
        node = draw(st.sampled_from((None, *rids)))
        link = "sender" if kind == "forward" else "receiver"
        target = draw(st.sampled_from(("message", "signature")))
        kwargs = {"action": action, "kind": kind, link: node, "target": target}
        if action == "tamper":
            kwargs["positions"] = tuple(draw(st.lists(st.integers(0, 40),
                                                      min_size=1, max_size=3)))
        elif action == "delay":
            kwargs["delta"] = draw(st.integers(0, deadline + 2))
        elif action == "replace":
            width = (m if target == "message" else 2 * n) // 8
            kwargs["payload_hex"] = draw(st.binary(min_size=width,
                                                   max_size=width)).hex()
        rules.append(Rule(**kwargs))
    return (Topology(rids, deadline=deadline), sec, AdversaryScript(tuple(rules)),
            draw(st.integers(0, 2**16)))


def assert_same_as_per_copy(case):
    topology, sec, script, seed = case
    got = run_round(topology, sec, script, seed)
    want = PerCopyRunner(topology, sec, script, seed).run()
    assert got.records == want.records
    assert got.render() == want.render()
    assert got.outcomes == want.outcomes
    assert got.announcements == want.announcements
    assert got.timeout_claims == want.timeout_claims


def delayed(kind, rid, delta):
    link = "sender" if kind == "forward" else "receiver"
    return Rule(action="delay", kind=kind, delta=delta, **{link: rid})


class TestMulticastDelivery:
    """A multicast event delivers its copies exactly where the per-copy
    events of ``PerCopyRunner`` would have: same records, same transcript."""

    @settings(max_examples=150, deadline=None)
    @given(scripted_rounds(max_k=6, max_deadline=12, max_rules=6))
    @example((Topology(("r3", "r1", "r2", "r4"), 10), SecurityParams.for_n(8, 32, 4),
              AdversaryScript((delayed("broadcast", "r1", 2),
                               delayed("broadcast", "r4", 2))), 1))
    @example((Topology(("r2", "r1", "r3"), 5), SecurityParams.for_n(8, 32, 3),
              AdversaryScript((delayed("broadcast", "r1", 6),
                               delayed("forward", "r3", 6),
                               Rule(action="drop", kind="broadcast", receiver="r2"))),
              2))
    def test_matches_per_copy_delivery(self, case):
        assert_same_as_per_copy(case)

    def test_delayed_broadcast_lands_on_the_key_response(self):
        # r1's broadcast arrives at deadline + 2 with the key response, which
        # the signer queued later, so the broadcast is delivered first
        case = (Topology.fully_connected(3, deadline=5), SecurityParams.for_n(8, 32, 3),
                AdversaryScript((delayed("broadcast", "r1", 6),)), 4)
        assert_same_as_per_copy(case)
        at_seven = [line.split()[1] for line in run_round(*case).lines
                    if line.split()[4] == "7"]
        assert at_seven == ["deliver:broadcast", "deliver:key-response", "verdict"]

    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None)
    @given(scripted_rounds(max_k=12, max_deadline=16, max_rules=10))
    def test_matches_per_copy_delivery_wide(self, case):
        assert_same_as_per_copy(case)


def final_copies(script, rid, genuine):
    """Receiver ``rid``'s broadcast copy, its forward copy (None = dropped)
    and the forward's arrival time, from the script's rules alone."""
    copy, extra = script.apply("broadcast", netsim.SIGNER, rid, genuine)
    if copy is None:
        return None, None, None
    forward, forward_extra = script.apply("forward", rid, netsim.ARBITRATOR, copy)
    # one time unit per hop, plus the rules' delays
    return copy, forward, 2 + extra + forward_extra


def genuine_bundle(topology, sec, seed):
    """The pair the signer signs in a round on ``seed``.  The rules take no
    draw, so an unattacked round on the same seed (with room for its
    forwards) archives it."""
    honest = run_round(Topology(topology.receiver_ids, deadline=3), sec, seed=seed)
    return SignatureBundle(honest.record.message, honest.record.signature)


class TestPaperInvariants:
    """PAPER.md's three claims on drawn rounds, read off the transcript and
    the script's rules, not the runner's state.  At n = 32 and m = 64 a
    tampered or replaced copy verifies with negligible probability.

    A runner that archives the last verified forward instead of the first
    passes by design: every verified forward is then the genuine pair."""

    @settings(max_examples=200, deadline=None)
    @given(scripted_rounds(max_k=6, max_deadline=12, max_rules=6, n=32, m=64))
    def test_simultaneous_verification_transferability_non_repudiation(self, case):
        topology, sec, script, seed = case
        t = run_round(topology, sec, script, seed)
        genuine = genuine_bundle(topology, sec, seed)
        archived = t.record.message is not None
        if archived:  # transferability
            assert SignatureBundle(t.record.message, t.record.signature) == genuine
        for rid in topology.receiver_ids:
            copy, forward, arrival = final_copies(script, rid, genuine)
            on_time = forward is not None and arrival < topology.deadline
            assert (t.outcomes[rid] is VerificationOutcome.TIMED_OUT) == (not on_time)
            if copy != genuine:
                continue
            if on_time:  # simultaneous verification
                assert t.announcements[rid] is A
            if forward == genuine:  # non-repudiation
                if on_time:
                    assert t.outcomes[rid] is A
                else:
                    # a claim is checked against the archive
                    assert t.timeout_claims[rid] is archived


def stage_three_reference(topology, script, genuine):
    """(announcements, verdicts, claims) of a round from README's stage-3
    rules alone, on the final copies ``final_copies`` derives:

    - a forward is on time iff it arrives before the deadline; exactly the
      on-time receivers get the session keys, and each announces ACCEPTED
      iff its broadcast copy verifies;
    - the arbitrator checks the forward of a receiver that announced
      ACCEPTED and confirms it iff the forward verifies; it rejects every
      other on-time receiver and marks the rest timed out;
    - it archives the first verified forward;
    - once the round is over, a timed-out receiver that holds a copy claims
      it, and the claim holds iff the copy bit-equals the archived pair.

    At n = 32 and m = 64 a copy verifies iff it equals the genuine bundle,
    up to a negligible forgery chance, so every verified forward is the
    genuine pair.
    """
    copies = {rid: final_copies(script, rid, genuine) for rid in topology.receiver_ids}
    announcements, verdicts, claims = {}, {}, {}
    for rid, (copy, forward, arrival) in copies.items():
        if forward is None or arrival >= topology.deadline:
            verdicts[rid] = VerificationOutcome.TIMED_OUT
            continue
        announcements[rid] = A if copy == genuine else VerificationOutcome.REJECTED
        verdicts[rid] = (A if announcements[rid] is A and forward == genuine
                         else VerificationOutcome.REJECTED)
    archived = A in verdicts.values()
    for rid, (copy, _, _) in copies.items():
        if verdicts[rid] is VerificationOutcome.TIMED_OUT and copy is not None:
            claims[rid] = archived and copy == genuine
    return announcements, verdicts, claims


SEC32 = SecurityParams.for_n(32, 64, 3)


class TestStageThreeReference:
    """``run_round`` gives every receiver the announcement, verdict and claim
    of ``stage_three_reference`` on drawn scripts.  The examples pin a
    forward on the deadline and one just before it, a timed-out receiver
    holding a tampered copy, and a round in which nothing was archived."""

    @settings(max_examples=300, deadline=None)
    @given(scripted_rounds(max_k=4, max_deadline=12, max_rules=6, n=32, m=64))
    @example((Topology(("r2", "r1", "r3"), 5), SEC32, AdversaryScript((
        delayed("forward", "r1", 3), delayed("forward", "r2", 2))), 1))
    @example((Topology(("r1", "r2", "r3"), 6), SEC32, AdversaryScript((
        Rule(action="tamper", kind="broadcast", receiver="r1", positions=(3,)),
        delayed("forward", "r1", 9))), 2))
    @example((Topology(("r1", "r2", "r3"), 4), SEC32, AdversaryScript((
        delayed("forward", None, 2),)), 3))
    def test_matches_the_reference(self, case):
        topology, sec, script, seed = case
        t = run_round(topology, sec, script, seed)
        want = stage_three_reference(topology, script,
                                     genuine_bundle(topology, sec, seed))
        assert (t.announcements, t.outcomes, t.timeout_claims) == want


class TestLazyTranscript:
    def test_digests_wait_for_the_first_read(self, monkeypatch):
        digest = netsim._digest
        calls = []

        def counted(text):
            calls.append(text)
            return digest(text)

        monkeypatch.setattr(netsim, "_digest", counted)
        t = pin_round("fanout", seed=3)
        assert calls == []
        text = t.render()
        # one digest per line, less the 99 broadcasts and the 89 key releases
        # that share the genuine bundle's and the session keys' digest
        assert 0 < len(calls) <= 305
        assert t.render() == text

    def test_rounds_leave_no_reference_cycle(self):
        # tampered, dropped and late copies on both kinds, read and unread
        rounds = [("replace", 1), ("message-tamper", 1), ("wildcards", 2),
                  ("delay-and-tamper", 1), ("on-the-deadline", 2)]
        gc.collect()
        gc.disable()
        try:
            for name, seed in rounds:
                pin_round(name, seed)
                pin_round(name, seed).render()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestConfigLoading:
    def test_script_roundtrip(self, tmp_path):
        cfg = tmp_path / "script.ini"
        cfg.write_text(
            "[rule:slow]\nkind = forward\nsender = r2\naction = delay\ndelta = 20\n"
            "[rule:flip]\nkind = broadcast\nreceiver = r1\naction = tamper\n"
            "target = message\npositions = 0, 5\n")
        script = load_script(cfg)
        assert len(script.rules) == 2
        assert script.rules[0].delta == 20
        assert script.rules[1].positions == (0, 5)

    def test_script_rejects_unknown_section(self, tmp_path):
        cfg = tmp_path / "script.ini"
        cfg.write_text("[attack]\naction = drop\n")
        with pytest.raises(ConfigurationError):
            load_script(cfg)

    def test_malformed_script_fails_before_any_event(self, tmp_path):
        cfg = tmp_path / "script.ini"
        cfg.write_text("[rule:bad]\naction = nonsense\n")
        with pytest.raises(ConfigurationError):
            load_script(cfg)


class TestSizedScriptValidation:
    def test_replace_wrong_length_fails_before_events(self):
        script = AdversaryScript((Rule(action="replace", kind="forward",
                                       target="message", payload_hex="00"),))
        sec = SecurityParams.for_n(16, 128, 1)
        with pytest.raises(ConfigurationError):
            run_round(Topology.fully_connected(1), sec, script, seed=0)

    def test_bad_hex_fails_before_events(self):
        script = AdversaryScript((Rule(action="replace", kind="forward",
                                       target="signature", payload_hex="zz"),))
        sec = SecurityParams.for_n(16, 128, 1)
        with pytest.raises(ConfigurationError):
            run_round(Topology.fully_connected(1), sec, script, seed=0)
