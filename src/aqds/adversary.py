"""Monte-Carlo attack experiments checked against the analytic bounds.

Each experiment splits a per-trial rng off a master seed, counts successes,
and reports them next to the bound it must stay under.  Robustness and
repudiation are structural zeroes (honest verdicts agree exactly); the two
forgery experiments are statistical and allow three binomial standard
deviations of slack above the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .gf2_hash import BitString, _mul, sample_irreducible
from .keymat import SecurityParams, SessionKeys
from .netsim import AdversaryScript, Rule, Topology, run_round
from .protocol import SignatureBundle, VerificationOutcome, accepts, sign


@dataclass(frozen=True)
class AttackResult:
    """Trial count, successes, and the exact analytic bound they are held to."""

    trials: int
    successes: int
    bound: Fraction
    applicable: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def threshold(self) -> float:
        """The bound plus three binomial standard deviations, as a float."""
        bound = float(self.bound)  # finite: m <= 2^(n-1) keeps a bound at most 1
        if self.trials == 0 or not 0 < self.bound < 1:
            return bound
        return bound + 3.0 * math.sqrt(bound * (1.0 - bound) / self.trials)

    @property
    def within_bound(self) -> bool:
        return self.rate <= self.threshold


def forgery_blind(n: int, trials: int, rng: Random, m_bits: int = 32) -> AttackResult:
    """Forgery with no information: submit a uniformly random pair.

    The submitted signature decrypts to a uniform digest, so acceptance
    needs the random polynomial field to decode and the random tag to match;
    the bound is 1/2^n.  Each trial draws the keys (2n then n bits), the
    message (m bits) and the signature (2n bits) as integers and judges them
    with ``protocol.accepts``, the check under ``receiver_verify``.
    """
    successes = 0
    for _ in range(trials):
        xs, ys = rng.getrandbits(2 * n), rng.getrandbits(n)
        message = BitString(rng.getrandbits(m_bits), m_bits)
        successes += accepts(message, rng.getrandbits(2 * n), xs, ys, n)
    return AttackResult(trials, successes, bound=Fraction(1, 2 ** n))


def _check_guess_room(n: int, m_bits: int) -> None:
    """Require n < m <= 2^(n-1) (so n >= 2): past 2^(n-1) guesses may run out."""
    if not n < m_bits or (m_bits - 1).bit_length() >= n:
        raise ValueError(f"the forgery suite needs n < m_bits <= 2^(n-1), "
                         f"got n={n}, m_bits={m_bits}")


def polynomial_guess_strategy(bundle: SignatureBundle, rng: Random) -> SignatureBundle:
    """Tamper the message by a product of freshly guessed irreducibles.

    XORing the message with W(x) = product of distinct random degree-n
    irreducibles leaves the tag unchanged for every seed exactly when the
    signer's hidden polynomial divides W, so each factor is one guess at it.
    The attacker's receiver keys carry no information about the combined
    keys, so the strategy takes none.  W is non-zero and of degree at most
    m - 1, so the tampered message always differs from the genuine one.
    """
    n = bundle.n
    m = bundle.message.length
    _check_guess_room(n, m)
    guesses = max(1, (m - 1) // n)
    factors: set[int] = set()
    while len(factors) < guesses:
        factors.add(sample_irreducible(n, rng))
    w = 1
    for v in factors:  # the product does not depend on the order
        w = _mul(w, v)
    return SignatureBundle(BitString(bundle.message.value ^ w, m), bundle.signature)


def forgery_known_signature(n: int, m_bits: int, trials: int, rng: Random,
                            known_keys: int = 1) -> AttackResult:
    """Forgery holding a genuine (message, signature) and receiver keys.

    Per trial a full honest signing happens, the attacker is handed the
    bundle plus ``known_keys`` receiver-link key pairs (never the arbitrator
    link), and its forgery is judged by the arbitrator's check.  The link
    pairs are drawn as ``distribute_keys`` draws them (per link 2n bits of
    x, then n bits of y) and XORed as ``combine`` does; the strategy reads
    only their XOR, so no per-link object is built.  Bound: m / 2^(n-1),
    which n < m <= 2^(n-1) keeps in (0, 1] even when no trial runs.
    """
    _check_guess_room(n, m_bits)
    if known_keys < 1:
        raise ValueError("the attacker is a receiver and holds its own keys")
    successes = 0
    for _ in range(trials):
        xs = ys = 0
        for _ in range(known_keys + 1):  # the known links, then the arbitrator's
            xs ^= rng.getrandbits(2 * n)
            ys ^= rng.getrandbits(n)
        message = BitString(rng.getrandbits(m_bits), m_bits)
        bundle = sign(message, SessionKeys(xs, ys, n), rng)
        forged = polynomial_guess_strategy(bundle, rng)
        successes += accepts(forged.message, forged.signature.value, xs, ys, n)
    return AttackResult(trials, successes, bound=Fraction(m_bits, 2 ** (n - 1)))


def _tamper_rules(rid: str, m_bits: int, n: int, rng: Random) -> list[Rule]:
    rules = []
    for target, width in (("message", m_bits), ("signature", 2 * n)):
        if rng.random() < 0.75:
            count = rng.randint(1, 3)
            positions = tuple(sorted(rng.sample(range(width), count)))
            rules.append(Rule(action="tamper", kind="broadcast", receiver=rid,
                              target=target, positions=positions))
    if not rules:
        rules.append(Rule(action="tamper", kind="broadcast", receiver=rid,
                          target="message", positions=(rng.randrange(m_bits),)))
    return rules


def repudiation_experiment(topology: Topology, trials: int, rng: Random,
                           security: SecurityParams | None = None) -> AttackResult:
    """Dishonest signer sends inconsistent broadcasts and tries to deny.

    Per trial some receivers get the genuine bundle and the rest get
    tampered copies.  Repudiation succeeds only if a receiver validated the
    signature yet the arbitrator confirms it for no receiver; trials where
    no receiver accepts anything are void (nothing was signed) and counted
    as non-applicable.  Expected successes: exactly zero.
    """
    if security is None:
        security = SecurityParams.for_n(16, 64, topology.k)
    successes = 0
    applicable = 0
    for _ in range(trials):
        genuine = rng.sample(topology.receiver_ids, rng.randint(1, topology.k))
        rules: list[Rule] = []
        for rid in topology.receiver_ids:
            if rid not in genuine:
                rules.extend(_tamper_rules(rid, security.m_bits, security.n, rng))
        t = run_round(topology, security, AdversaryScript(tuple(rules)),
                      seed=rng.getrandbits(64))
        validated = [r for r, v in t.announcements.items()
                     if v is VerificationOutcome.ACCEPTED]
        if not validated:
            continue
        applicable += 1
        if all(t.outcomes[r] is not VerificationOutcome.ACCEPTED
               for r in topology.receiver_ids):
            successes += 1
    return AttackResult(trials, successes, bound=Fraction(0), applicable=applicable)


def robustness_experiment(topology: Topology, trials: int, rng: Random,
                          security: SecurityParams | None = None) -> AttackResult:
    """All-honest rounds; any non-accepted verdict counts as a failure."""
    if security is None:
        security = SecurityParams.for_n(16, 64, topology.k)
    successes = 0
    for _ in range(trials):
        t = run_round(topology, security, seed=rng.getrandbits(64))
        if any(v is not VerificationOutcome.ACCEPTED for v in t.outcomes.values()):
            successes += 1
    return AttackResult(trials, successes, bound=Fraction(0))
