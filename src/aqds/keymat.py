"""Per-link key bundles, XOR session-key algebra, and key-sizing formulas.

Each signer-adjacent link carries a (2n, n)-bit key pair: the 2n-bit half
encrypts the digest, the n-bit half seeds the hash.  Session keys are the
bitwise XOR of all receiver-link pairs with the arbitrator-link pair, so
signer and arbitrator derive identical keys from identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Sequence

from .gf2_hash import BitString, _set, _Value


class KeyBundle(_Value):
    """One link's key pair: x encrypts (2n bits), y seeds the hash (n bits).

    The halves are kept as the ints ``x_value`` < 2^(2n) and ``y_value`` <
    2^n with n; ``x`` and ``y`` build them as ``BitString``s when read.
    """

    __slots__ = ("x_value", "y_value", "n")
    x_value: int
    y_value: int
    n: int

    def __init__(self, x_value: int, y_value: int, n: int) -> None:
        # a half too wide, or negative (it shifts to -1), leaves bits set
        if x_value >> 2 * n or y_value >> n:
            raise ValueError(f"key halves must fit in {2 * n} and {n} bits")
        _set(self, "x_value", x_value)
        _set(self, "y_value", y_value)
        _set(self, "n", n)

    @property
    def x(self) -> BitString:
        return BitString(self.x_value, 2 * self.n)

    @property
    def y(self) -> BitString:
        return BitString(self.y_value, self.n)

    @classmethod
    def random(cls, n: int, rng: Random) -> KeyBundle:
        """Uniform halves: 2n bits of x, then n bits of y."""
        return cls(rng.getrandbits(2 * n), rng.getrandbits(n), n)


class SessionKeys(KeyBundle):
    """Combined encryption/seed keys as held by the signer or the arbitrator.

    ``xs`` and ``ys`` read the halves as ``BitString``s.
    """

    __slots__ = ()
    xs = KeyBundle.x
    ys = KeyBundle.y


def distribute_keys(n: int, k: int, rng: Random) -> tuple[list[KeyBundle], KeyBundle]:
    """Fresh uniform key bundles for k receiver links plus the arbitrator link.

    Models a perfectly executed key-distribution stage.  Draw order is fixed
    (receiver bundles first, arbitrator last, x before y) so a seeded rng
    reproduces the same bundles.
    """
    if n < 2:
        raise ValueError("security parameter n must be at least 2")
    if k < 1:
        raise ValueError("at least one receiver is required")
    receivers = [KeyBundle.random(n, rng) for _ in range(k)]
    return receivers, KeyBundle.random(n, rng)


def combine(bundles: Sequence[KeyBundle], arb: KeyBundle) -> SessionKeys:
    """XOR of all receiver-link keys with the arbitrator-link keys."""
    n = arb.n
    xs, ys = arb.x_value, arb.y_value
    for b in bundles:
        if b.n != n:
            raise ValueError("XOR requires equal lengths")
        xs ^= b.x_value
        ys ^= b.y_value
    return SessionKeys(xs, ys, n)


def required_n(m_bits: int, eps_f: float | Fraction) -> int:
    """Minimal digest half-length n with m / 2^(n-1) <= eps_f.

    The comparison is exact: a float bound is taken at its binary value,
    subnormals included, and a ``Fraction`` as it stands, so table
    reproductions cannot drift by one from rounding.
    """
    if m_bits < 1:
        raise ValueError("message length must be at least 1 bit")
    if not 0.0 < eps_f < 1.0:
        raise ValueError("forgery bound must be in (0, 1)")
    eps = Fraction(eps_f)
    # 2^(n-1) >= m / eps holds iff 2^(n-1) >= ceil(m / eps), an integer
    ceiling = -(-m_bits * eps.denominator // eps.numerator)
    return (ceiling - 1).bit_length() + 1


def link_bits(m_bits: int, eps_f: float) -> int:
    """Key bits one signing round costs each link: 3n (2n pad, n seed)."""
    return 3 * required_n(m_bits, eps_f)


def total_consumption(m_bits: int, eps_f: float, k: int) -> int:
    """Total key bits across all links for one signing round: 3n(k+1)."""
    if k < 0:
        raise ValueError("receiver count must be non-negative")
    return link_bits(m_bits, eps_f) * (k + 1)


@dataclass(frozen=True)
class SecurityParams:
    """Signing-round security configuration with the derived parameter n.

    n is always the minimal value meeting the forgery bound for (m_bits,
    eps_f); it is computed, never supplied.
    """

    m_bits: int
    eps_f: float | Fraction
    k: int
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("at least one receiver is required")
        object.__setattr__(self, "n", required_n(self.m_bits, self.eps_f))

    @classmethod
    def for_n(cls, n: int, m_bits: int, k: int) -> SecurityParams:
        """Parameters that make a chosen n minimal: eps_f = m / 2^(n-1).

        The bound is the exact ``Fraction``, so every n >= 2 with
        m < 2^(n-1) is reachable.  Convenient for experiments that sweep n
        directly.
        """
        if n < 2:
            raise ValueError("n must be at least 2")
        if m_bits >= 2 ** (n - 1):
            raise ValueError("m too long for this n")
        return cls(m_bits=m_bits, eps_f=Fraction(max(m_bits, 1), 2 ** (n - 1)), k=k)
