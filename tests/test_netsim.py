"""Event ordering, round simulation, adversary scripts, config loading."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqds.config import ConfigurationError
from aqds.gf2_hash import BitString
from aqds.keymat import KeyBundle, SecurityParams, SessionKeys, total_consumption
from aqds.netsim import (
    AdversaryScript,
    Event,
    EventKind,
    EventQueue,
    Rule,
    Topology,
    _canon,
    _digest,
    _wire,
    load_script,
    run_round,
)
from aqds.protocol import ForwardPacket, SignatureBundle, VerificationOutcome

A = VerificationOutcome.ACCEPTED
SEC3 = SecurityParams.for_n(16, 64, 3)


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(5, EventKind.DELIVER, "a", "b", "later")
        q.push(1, EventKind.DELIVER, "a", "b", "sooner")
        assert q.advance().payload == "sooner"
        assert q.advance().payload == "later"

    def test_deadline_precedes_deliver_at_equal_time(self):
        q = EventQueue()
        q.push(7, EventKind.DELIVER, "a", "b", "deliver")
        q.push(7, EventKind.DEADLINE_FIRE, "arb", "arb", "deadline")
        assert q.advance().kind is EventKind.DEADLINE_FIRE

    def test_deadline_after_earlier_deliver(self):
        q = EventQueue()
        q.push(6, EventKind.DELIVER, "a", "b", "deliver")
        q.push(7, EventKind.DEADLINE_FIRE, "arb", "arb", "deadline")
        assert q.advance().kind is EventKind.DELIVER

    def test_sender_then_sequence_tiebreak(self):
        q = EventQueue()
        q.push(3, EventKind.DELIVER, "z", "x", "1")
        q.push(3, EventKind.DELIVER, "a", "x", "2")
        q.push(3, EventKind.DELIVER, "a", "x", "3")
        assert [q.advance().payload for _ in range(3)] == ["2", "3", "1"]

    def test_empty_queue_signals_completion(self):
        q = EventQueue()
        q.push(1, EventKind.DELIVER, "a", "b", "only")
        assert q
        q.advance()
        assert not q

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(list(EventKind)),
                              st.sampled_from("abc")), max_size=30))
    def test_random_insertion_matches_sorted_reference(self, spec):
        q = EventQueue()
        events = [q.push(at, kind, sender, "x", i)
                  for i, (at, kind, sender) in enumerate(spec)]
        reference = sorted(events, key=lambda e: e.sort_key)
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
        events = [q.push(at, kind, sender, "x", object())
                  for at, kind, sender in spec]
        drained = []
        while q:
            drained.append(q.advance())
        assert drained == sorted(events)
        assert drained == sorted(events, key=lambda e: e.sort_key)

    def test_fields_in_order(self):
        ev = EventQueue().push(3, EventKind.DELIVER, "a", "b", "body")
        assert ev == Event(3, EventKind.DELIVER, "a", 0, "b", "body")
        assert ev.sort_key == (3, EventKind.DELIVER, "a", 0)


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

    def test_arrival_exactly_at_deadline_is_late(self):
        # r1's forward arrives at 1 + 1 + 2, exactly the deadline: the
        # deadline fires first
        script = AdversaryScript((Rule(action="delay", kind="forward",
                                       sender="r1", delta=2),))
        top = Topology.fully_connected(2, deadline=4)
        sec = SecurityParams.for_n(12, 48, 2)
        t = run_round(top, sec, script, seed=8)
        at_four = [line.split()[1:3] for line in t.lines if line.split()[4] == "4"]
        assert at_four[:2] == [["deadline", "arbitrator"], ["deliver:forward", "r1"]]
        assert t.outcomes["r1"] is VerificationOutcome.TIMED_OUT
        assert t.outcomes["r2"] is A

    def test_topology_security_mismatch(self):
        with pytest.raises(ValueError):
            run_round(Topology.fully_connected(2), SEC3, seed=0)

    def test_session_keys_match_signer_when_honest(self):
        t = run_round(Topology.fully_connected(3), SEC3, seed=9)
        assert t.session_keys == t.signer_keys

    def test_key_accounting(self):
        sec = run_round(Topology.fully_connected(3), SEC3, seed=10).security
        assert sec.bits_per_link == 3 * 16
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
        # the encoding is reused only for the very object last encoded
        a = SignatureBundle(BitString(0x5A, 8), BitString(0x9, 4))
        tampered = SignatureBundle(a.message.flip(0), a.signature)
        twin = SignatureBundle(a.message, a.signature)
        texts = [_canon(b) for b in (a, a, tampered, a, twin, tampered)]
        assert texts == ["bundle:5a/8:90/4", "bundle:5a/8:90/4", "bundle:da/8:90/4",
                         "bundle:5a/8:90/4", "bundle:5a/8:90/4", "bundle:da/8:90/4"]


BUNDLE = SignatureBundle(BitString(0x5A, 8), BitString(0x9, 4))
KEYS = KeyBundle(BitString(0xC, 4), BitString(0x2, 2))


class TestWireText:
    @pytest.mark.parametrize("body, text", [
        (BUNDLE, "bundle:5a/8:90/4"),
        (KEYS, "keys:30:40"),
        (SessionKeys(BitString(0x3, 4), BitString(0x1, 2)), "session:c0:80"),
        (ForwardPacket("r1", BUNDLE, KEYS, sent_at=2), "r1:bundle:5a/8:90/4:keys:30:40:2"),
        (("r1", VerificationOutcome.ACCEPTED), "r1:accepted"),
        ([("r1", KEYS), ("r2", KeyBundle(BitString(0x1, 4), BitString(0x3, 2)))],
         "r1:keys:30:40,r2:keys:80:c0"),
        (("r2", BUNDLE, True), "r2:bundle:5a/8:90/4:True"),
        (["r1", "r3"], "r1,r3"),
        (True, "True"),
        (7, "7"),
        (None, "None"),
    ])
    def test_text_per_body_type(self, body, text):
        # pinned at the isinstance-chain encoding the golden transcripts fix
        assert _canon(body) == text

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
        want = _digest(_wire("broadcast", SignatureBundle(*genuine)))
        tampered = _digest(_wire("broadcast", SignatureBundle(
            genuine[0].flip(0), genuine[1])))
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
