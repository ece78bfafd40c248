"""Attack experiments against their analytic bounds (reduced trial counts).

The full-size runs required for sign-off live in test_acceptance; these
exercise the experiment machinery and the brute-force cross-checks.
"""

import math
from fractions import Fraction
from functools import cache
from random import Random

import pytest

from aqds.adversary import (
    AttackResult,
    forgery_blind,
    forgery_known_signature,
    polynomial_guess_strategy,
    repudiation_experiment,
    robustness_experiment,
)
from aqds.gf2_hash import (
    BitString,
    Gf2Poly,
    LfsrToeplitzHasher,
    decode_poly,
    poly_is_irreducible,
)
from aqds.keymat import SecurityParams, SessionKeys
from aqds.netsim import Topology
from aqds.protocol import SignatureBundle, VerificationOutcome, receiver_verify

A = VerificationOutcome.ACCEPTED


def mobius(d: int) -> int:
    result, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    return -result if d > 1 else result


@cache
def irreducible_count(n: int) -> int:
    """I_n, the number of monic irreducibles of degree n over GF(2) (Gauss)."""
    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def blind_rate(n: int) -> Fraction:
    """Exact blind-forgery success: the pad hides a uniform digest, whose
    encoding half decodes w.p. I_n/2^n and whose tag half matches w.p. 2^-n."""
    return Fraction(irreducible_count(n), 4 ** n)


def guess_rate(n: int, m: int) -> Fraction:
    """Exact polynomial-guess success: the hidden polynomial is one of the g
    guessed factors, or else the tag of W mod p != 0 vanishes only for ys = 0."""
    hit = Fraction(max(1, (m - 1) // n), irreducible_count(n))
    return hit + (1 - hit) / 2 ** n


def guess_rate_over_every_key(n: int, m: int) -> Fraction:
    """One genuine message and one guessed W against every (irreducible
    p, ys): the share of the keys that accept the forgery."""
    rng = Random(12)
    message = BitString.random(m, rng)
    xs = BitString.random(2 * n, rng)
    polys = [p for p in map(Gf2Poly, range(1 << n, 2 << n)) if poly_is_irreducible(p)]
    accepted = 0
    for p in polys:
        for ys in (BitString(v, n) for v in range(1 << n)):
            tag = LfsrToeplitzHasher(p, ys).hash(message).value
            # tag in the low n bits, the encoding (p without x^n) above it
            plain = BitString(tag | (p.value ^ 1 << n) << n, 2 * n)
            bundle = SignatureBundle(message, xs ^ plain)
            forged = polynomial_guess_strategy(bundle, Random(13))
            accepted += receiver_verify(forged, SessionKeys(xs, ys)) is A
    return Fraction(accepted, len(polys) << n)


class TestAttackResult:
    def test_threshold_adds_three_sigma(self):
        r = AttackResult(trials=10000, successes=0, bound=0.01)
        sigma = math.sqrt(0.01 * 0.99 / 10000)
        assert r.threshold == pytest.approx(0.01 + 3 * sigma)

    def test_structural_zero_has_no_slack(self):
        r = AttackResult(trials=100, successes=0, bound=0.0)
        assert r.threshold == 0.0 and r.within_bound
        assert not AttackResult(trials=100, successes=1, bound=0.0).within_bound

    def test_zero_trials(self):
        r = AttackResult(trials=0, successes=0, bound=0.5)
        assert r.rate == 0.0 and r.within_bound

    def test_bound_of_one_or_more_is_its_own_threshold(self):
        for bound in (1.0, 1.5):
            r = AttackResult(trials=10, successes=10, bound=bound)
            assert r.threshold == bound and r.within_bound

    def test_successes_capped(self):
        with pytest.raises(ValueError):
            AttackResult(trials=5, successes=6, bound=0.1)


class TestForgeryBlind:
    def test_within_bound(self):
        res = forgery_blind(8, 20000, Random(1))
        assert res.bound == 2.0 ** -8
        assert res.within_bound

    def test_zero_trials(self):
        res = forgery_blind(8, 0, Random(0))
        assert res.successes == 0

    def test_exhaustive_n2(self):
        # brute force over all 16 signatures: exactly one is accepted, the
        # one whose decrypted digest carries the unique irreducible encoding
        # and the matching tag
        rng = Random(2)
        sk = SessionKeys(BitString.random(4, rng), BitString.random(2, rng))
        message = BitString.random(8, rng)
        accepted = [s for s in range(16)
                    if receiver_verify(SignatureBundle(message, BitString(s, 4)), sk)
                    is VerificationOutcome.ACCEPTED]
        assert len(accepted) == 1
        winner = BitString(accepted[0], 4)
        tag, r = (sk.xs ^ winner).split(2)
        poly = decode_poly(r)
        assert poly is not None
        assert LfsrToeplitzHasher(poly, sk.ys).hash(message) == tag


class TestForgeryKnownSignature:
    def test_within_bound(self):
        res = forgery_known_signature(10, 32, 5000, Random(3))
        assert res.bound == 32 / 2 ** 9
        assert res.within_bound

    def test_attack_actually_succeeds_sometimes(self):
        # the polynomial-guess strategy hits at roughly guesses/#irreducibles
        res = forgery_known_signature(8, 33, 5000, Random(4))
        # 4 guesses among 30 degree-8 irreducibles: expect around 13%
        assert res.successes > 0
        assert res.within_bound

    def test_collusion_size_invariant(self):
        # holding one receiver key or seven must not change the rate by
        # 3 sigma (the strategy has nothing to gain from XOR shares)
        trials = 4000
        one = forgery_known_signature(10, 32, trials, Random(5), known_keys=1)
        many = forgery_known_signature(10, 32, trials, Random(6), known_keys=7)
        p = (one.successes + many.successes) / (2 * trials)
        sigma = math.sqrt(2 * p * (1 - p) / trials) or 1 / trials
        assert abs(one.rate - many.rate) <= 3 * sigma

    def test_strategy_preserves_signature_and_changes_message(self):
        rng = Random(7)
        sk = SessionKeys(BitString.random(20, rng), BitString.random(10, rng))
        from aqds.protocol import sign
        bundle = sign(BitString.random(32, rng), sk, rng)
        forged = polynomial_guess_strategy(bundle, rng)
        assert forged.signature == bundle.signature
        assert forged.message != bundle.message

    def test_strategy_needs_room_for_guess(self):
        rng = Random(8)
        sk = SessionKeys(BitString.random(20, rng), BitString.random(10, rng))
        from aqds.protocol import sign
        bundle = sign(BitString.random(8, rng), sk, rng)
        with pytest.raises(ValueError):
            polynomial_guess_strategy(bundle, rng)

    def test_strategy_refuses_more_guesses_than_irreducibles(self):
        # m = 17 > 2^3 asks for 4 distinct quartics, but only 3 exist
        rng = Random(9)
        sk = SessionKeys(BitString.random(8, rng), BitString.random(4, rng))
        from aqds.protocol import sign
        bundle = sign(BitString.random(17, rng), sk, rng)
        with pytest.raises(ValueError):
            polynomial_guess_strategy(bundle, rng)

    def test_bound_evaluation(self):
        assert forgery_known_signature(8, 16, 1, Random(0)).bound == 0.125

    @pytest.mark.parametrize("n, m", [(2, 10**320), (4, 17), (8, 8), (8, 3), (1, 1)])
    def test_experiment_refuses_m_outside_the_guess_range(self, n, m):
        # checked before any trial: with no trial run, a bound above 1 used
        # to reach the float threshold (OverflowError at m = 10^320)
        with pytest.raises(ValueError, match="2\\^\\(n-1\\)"):
            forgery_known_signature(n, m, 0, Random(0))


class TestExactForgeryRates:
    def test_irreducible_count_matches_enumeration(self):
        for n in range(1, 11):
            count = sum(poly_is_irreducible(Gf2Poly(v))
                        for v in range(1 << n, 1 << (n + 1)))
            assert irreducible_count(n) == count

    def test_guesses_fit_among_irreducibles_up_to_largest_m(self):
        # the guess count g grows with m, so m = 2^(n-1) is the worst case
        for n in range(2, 64):
            assert max(1, (2 ** (n - 1) - 1) // n) <= irreducible_count(n)

    def test_exact_rates_within_analytic_bounds(self):
        # the bounds the experiments report are the paper's, exactly, also
        # where no float holds them (below 2^-1074 from n = 1075 on)
        for n in (*range(2, 25), 1075, 1100, 2048):
            bound = forgery_blind(n, 0, Random(0)).bound
            assert blind_rate(n) <= bound == Fraction(1, 2 ** n), n
            for m in range(n + 1, min(2 ** (n - 1), 5000) + 1):
                bound = forgery_known_signature(n, m, 0, Random(0)).bound
                assert guess_rate(n, m) <= bound == Fraction(m, 2 ** (n - 1)), (n, m)

    def test_blind_rate_is_exact_over_every_key(self):
        # one fixed forged bundle against all 2^12 (xs, ys) at n = 4: the pad
        # makes the digest uniform, so exactly I_4/4^4 of the keys accept it
        rng = Random(11)
        forged = SignatureBundle(BitString.random(32, rng), BitString.random(8, rng))
        keys = (SessionKeys(BitString(xs, 8), BitString(ys, 4))
                for xs in range(1 << 8) for ys in range(1 << 4))
        accepted = sum(receiver_verify(forged, sk) is A for sk in keys)
        assert Fraction(accepted, 1 << 12) == blind_rate(4) == Fraction(3, 256)

    def test_guess_rate_is_exact_over_every_key(self):
        # at n = 4, m = 8 W's one factor is p for 1 of the 3 quartics and a
        # miss otherwise, which the tag still forgives for ys = 0 only
        assert guess_rate_over_every_key(4, 8) == guess_rate(4, 8) == Fraction(3, 8)

    @pytest.mark.slow
    def test_guess_rate_is_exact_over_every_key_at_n10_m32(self):
        # W has 3 factors among the 99 degree-10 irreducibles: 3/99 hits,
        # and a miss passes for ys = 0 only, so 1/33 + (32/33)/2^10 = 1/32
        # over 99 * 2^10 = 101 376 verifies
        assert guess_rate_over_every_key(10, 32) == guess_rate(10, 32) == Fraction(1, 32)

    @pytest.mark.parametrize("experiment, exact", [
        (lambda rng: forgery_blind(4, 60_000, rng), blind_rate(4)),
        # 1/3 + (2/3)/16 = 0.375; g/I_n alone (1/3) is 6.7 sigma away
        (lambda rng: forgery_known_signature(4, 8, 6_000, rng), guess_rate(4, 8)),
    ], ids=["blind-n4", "guess-n4-m8"])
    def test_monte_carlo_matches_exact_rate(self, experiment, exact):
        res = experiment(Random(10))
        p = float(exact)
        assert abs(res.rate - p) <= 3 * math.sqrt(p * (1 - p) / res.trials)


class TestDrawOrder:
    # counts fixed by the rng draw order of each experiment: a change that
    # draws keys, messages, signatures or polynomials in another order (or
    # draws more or fewer bits) changes them
    @pytest.mark.parametrize("experiment, counts", [
        (lambda: forgery_blind(8, 20000, Random(5)), (20000, 7, None)),
        (lambda: forgery_known_signature(10, 32, 2000, Random(6), known_keys=1),
         (2000, 68, None)),
        (lambda: forgery_known_signature(10, 32, 2000, Random(7), known_keys=6),
         (2000, 79, None)),
        (lambda: repudiation_experiment(Topology.fully_connected(3), 200, Random(8)),
         (200, 0, 200)),
    ], ids=["blind", "known-signature-1", "known-signature-6", "repudiation"])
    def test_counts_pinned(self, experiment, counts):
        res = experiment()
        assert (res.trials, res.successes, res.applicable) == counts


class TestRepudiation:
    def test_single_honest_receiver_never_repudiated(self):
        res = repudiation_experiment(Topology.fully_connected(1), 300, Random(9))
        assert res.successes == 0
        assert res.within_bound

    def test_multi_receiver_rounds(self):
        res = repudiation_experiment(Topology.fully_connected(3), 200, Random(10))
        assert res.successes == 0
        assert res.applicable > 0

    def test_honest_signer_control_group(self):
        # all receivers get the genuine bundle: applicable, never a success
        top = Topology.fully_connected(2)
        res = robustness_experiment(top, 100, Random(11))
        assert res.successes == 0

    def test_accepting_receiver_always_confirmed_by_arbitrator(self):
        # exact transcript property behind the structural zero: an honest
        # receiver that announces acceptance forwards the same pair it
        # verified, so the arbitrator's verdict for it is also Accepted
        from aqds.netsim import AdversaryScript, Rule, run_round
        sec = SecurityParams.for_n(12, 48, 3)
        top = Topology.fully_connected(3)
        rng = Random(13)
        for trial in range(200):
            rules = tuple(
                Rule(action="tamper", kind="broadcast", receiver=rid,
                     target=rng.choice(["message", "signature"]),
                     positions=(rng.randrange(24),))
                for rid in top.receiver_ids if rng.random() < 0.5)
            t = run_round(top, sec, AdversaryScript(rules),
                          seed=rng.getrandbits(32))
            for rid in top.receiver_ids:
                if t.announcements.get(rid) is A:
                    assert t.outcomes[rid] is A


class TestRobustness:
    @pytest.mark.parametrize("k", [1, 3])
    def test_no_rejections(self, k):
        top = Topology.fully_connected(k)
        res = robustness_experiment(top, 200, Random(12),
                                    SecurityParams.for_n(8, 32, k))
        assert res.successes == 0
        assert res.within_bound

    def test_seed_sweep(self):
        top = Topology.fully_connected(2)
        sec = SecurityParams.for_n(8, 32, 2)
        for seed in range(100):
            res = robustness_experiment(top, 1, Random(seed), sec)
            assert res.successes == 0
