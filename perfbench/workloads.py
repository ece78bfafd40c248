"""The three benchmark workloads: what one op is, how its inputs are drawn, how
its output is checked.

Every op calls into the ``aqds`` package through the module namespace it
was imported with (``aq.netsim.run_round``, ``aq.adversary.forgery_blind``),
never through a reference kept from set-up, so a traced run that patches
those namespaces sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import pkgutil
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from types import ModuleType
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"


def import_aqds() -> ModuleType:
    """Import the ``aqds`` package and all its modules afresh from ``src/``.

    Dropping the cached modules first makes each set-up pay the import again
    and start from empty lru caches, as a new process would.  Every module
    is imported so that a traced run can patch every namespace that binds a
    layer function.
    """
    for name in [m for m in sys.modules if m == "aqds" or m.startswith("aqds.")]:
        del sys.modules[name]
    pkg = importlib.import_module("aqds")
    if Path(pkg.__file__).resolve().parent != SRC / "aqds":
        raise ImportError(f"aqds was imported from {pkg.__file__}, not from {SRC}")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"aqds.{info.name}")
    return pkg


def op_seed(workload: str, seed: int, i: int) -> int:
    """64-bit input seed of op ``i``; a pure function of (workload, seed, i)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HonestRound:
    """One op is one honest ``netsim.run_round``.

    Receivers listed in ``delayed`` have their forward held back past the
    deadline by the adversary script, so they must end timed out and their
    timeout claims must be accepted; every other receiver must be accepted.
    """

    def __init__(self, aq: ModuleType, k: int, message_bytes: int,
                 epsilon: float, delayed: tuple[str, ...] = ()) -> None:
        netsim = aq.netsim
        self.aq = aq
        self.topology = netsim.Topology.fully_connected(k)
        self.security = aq.keymat.SecurityParams(
            m_bits=8 * message_bytes, eps_f=epsilon, k=k)
        self.delayed = delayed
        self.script = netsim.AdversaryScript(tuple(
            netsim.Rule(action="delay", kind="forward", sender=rid,
                        delta=self.topology.deadline)
            for rid in delayed))

    def describe(self) -> str:
        s = self.security
        script = "none"
        if self.delayed:
            script = (f"delay forward of {','.join(self.delayed)} "
                      f"by {self.topology.deadline} (deadline {self.topology.deadline})")
        return (f"run_round k={s.k} message_bits={s.m_bits} epsilon={s.eps_f:g} "
                f"n={s.n} script={script}")

    def op(self, seed: int):
        return self.aq.netsim.run_round(self.topology, self.security,
                                        self.script, seed=seed)

    def check(self, t) -> str | None:
        accepted = self.aq.protocol.VerificationOutcome.ACCEPTED
        timed_out = self.aq.protocol.VerificationOutcome.TIMED_OUT
        want = {r: timed_out if r in self.delayed else accepted
                for r in self.topology.receiver_ids}
        if t.outcomes != want:
            wrong = sorted(r for r in want if t.outcomes.get(r) is not want[r])
            return f"unexpected verdicts for {', '.join(wrong)}"
        if t.announcements != {r: accepted for r in want if r not in self.delayed}:
            return "an on-time receiver did not announce acceptance"
        if t.timeout_claims != {r: True for r in self.delayed}:
            return f"timeout claims {t.timeout_claims} are not all accepted"
        return None

    def fingerprint(self, t) -> bytes:
        return t.render().encode()

    def oracle_check(self, t) -> str | None:
        """Recompute the round's tag with ``toeplitz_oracle``."""
        gf2 = self.aq.gf2_hash
        n = self.security.n
        sk = t.signer_keys
        tag, r = (sk.xs ^ t.record.signature).split(n)
        poly = gf2.Gf2Poly(r.value | 1 << n)
        if gf2.toeplitz_oracle(poly, sk.ys, t.record.message) != tag:
            return "signed tag differs from toeplitz_oracle"
        return None


class AttackPass:
    """One op is one fixed pass of the Monte-Carlo attack suite.

    ``scale`` divides the blind-forgery trials and the round counts (smoke
    mode).  The known-signature trials stay at 100: with fewer, its 3-sigma
    bound check would fail on chance alone.
    """

    def __init__(self, aq: ModuleType, scale: int = 1) -> None:
        netsim, keymat = aq.netsim, aq.keymat
        self.aq = aq
        self.blind_trials = 1000 // scale
        self.known_trials = 100
        self.rounds = max(1, 10 // scale)
        self.robust_topology = netsim.Topology.fully_connected(6)
        self.robust_security = keymat.SecurityParams.for_n(32, 64, 6)
        self.repud_topology = netsim.Topology.fully_connected(3)
        self.repud_security = keymat.SecurityParams.for_n(16, 64, 3)

    def describe(self) -> str:
        return (f"forgery_blind(n=8, m=32, trials={self.blind_trials}); "
                f"forgery_known_signature(n=10, m=32, trials={self.known_trials}, "
                f"known_keys=1 then 6); "
                f"robustness_experiment(k=6, n=32, m=64, rounds={self.rounds}); "
                f"repudiation_experiment(k=3, n=16, m=64, rounds={self.rounds}); "
                f"script=tamper rules drawn per repudiation round")

    def op(self, seed: int):
        adv = self.aq.adversary
        rng = Random(seed)
        return (
            adv.forgery_blind(8, self.blind_trials, rng),
            adv.forgery_known_signature(10, 32, self.known_trials, rng, known_keys=1),
            adv.forgery_known_signature(10, 32, self.known_trials, rng, known_keys=6),
            adv.robustness_experiment(self.robust_topology, self.rounds, rng,
                                      security=self.robust_security),
            adv.repudiation_experiment(self.repud_topology, self.rounds, rng,
                                       security=self.repud_security),
        )

    def check(self, results) -> str | None:
        names = ("forgery_blind", "forgery_known_signature/1",
                 "forgery_known_signature/6", "robustness", "repudiation")
        for name, res in zip(names, results):
            if not res.within_bound:
                return (f"{name}: {res.successes}/{res.trials} successes "
                        f"exceed the threshold {res.threshold:.4g}")
        if results[3].successes or results[4].successes:
            return "robustness or repudiation succeeded"
        return None

    def fingerprint(self, results) -> bytes:
        return repr([(r.trials, r.successes, r.applicable) for r in results]).encode()


EVERY_TENTH = tuple(f"r{j}" for j in range(10, 101, 10))


@dataclass(frozen=True)
class Spec:
    why: str
    window: int  # ops 0..window-1 feed the fingerprint and the layer counts
    full: Callable[[ModuleType], object]
    smoke: Callable[[ModuleType], object]


WORKLOADS = {
    "bulk-sign": Spec(
        "a few long hashes: one k=1 round on a 2 KB message at eps=1e-20 (n=82); "
        "stand-in for the paper's 1 MB point",
        10,
        lambda aq: HonestRound(aq, k=1, message_bytes=2048, epsilon=1e-20),
        lambda aq: HonestRound(aq, k=1, message_bytes=32, epsilon=1e-20),
    ),
    "fanout": Spec(
        "181 short hashes under one keystream, 383 events, 493 digests, 100-bundle XOR "
        "combines and the full key-request/timeout-claim path",
        10,
        lambda aq: HonestRound(aq, k=100, message_bytes=64, epsilon=1e-10,
                               delayed=EVERY_TENTH),
        lambda aq: HonestRound(aq, k=20, message_bytes=8, epsilon=1e-10,
                               delayed=EVERY_TENTH[:2]),
    ),
    "attack-mc": Spec(
        "the C06-C08 mix: irreducible sampling and tests at small n, the verify "
        "reject path and adversary-scripted rounds",
        4,
        lambda aq: AttackPass(aq),
        lambda aq: AttackPass(aq, scale=10),
    ),
}


def make(name: str, aq: ModuleType, smoke: bool):
    spec = WORKLOADS[name]
    return (spec.smoke if smoke else spec.full)(aq)


def oracle_checks(aq: ModuleType, seed: int, smoke: bool) -> list[str]:
    """Recompute one bulk-sign tag and one fanout tag with the oracle.

    Returns the problems found; empty when both tags match.
    """
    problems = []
    for name in ("bulk-sign", "fanout"):
        wl = make(name, aq, smoke)
        t = wl.op(op_seed(name, seed, 0))
        problem = wl.check(t) or wl.oracle_check(t)
        if problem:
            problems.append(f"{name} oracle check: {problem}")
    return problems
