"""GF(2) polynomial arithmetic and the LFSR-based Toeplitz one-time hash.

Polynomials over GF(2) are stored as nonnegative integers, bit i holding the
coefficient of x^i (so 0b111 is x^2 + x + 1).  Bit strings carry an explicit
length; bit 0 is the first transmitted bit, and byte/hex serialization is
most-significant-bit-first per byte.

All functions are pure: random choices come from an explicitly passed
``random.Random``, and every value is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterator


# ---------------------------------------------------------------------------
# Bit strings

# byte b -> b with its 8 bits in reverse order: maps between the LSB-first
# bytes of ``int.to_bytes(..., "little")`` and the MSB-first wire format
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True)
class BitString:
    """Fixed-length bit string; bit j of ``value`` is the j-th transmitted bit."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value does not fit in {self.length} bits")

    @classmethod
    def from_bits(cls, bits) -> BitString:
        bits = list(bits)
        value = 0
        for j, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value |= b << j
        return cls(value, len(bits))

    @classmethod
    def random(cls, length: int, rng: Random) -> BitString:
        return cls(rng.getrandbits(length) if length else 0, length)

    @classmethod
    def from_hex(cls, text: str, length: int) -> BitString:
        raw = bytes.fromhex(text)
        if len(raw) != (length + 7) // 8:
            raise ValueError("hex length does not match bit length")
        value = int.from_bytes(raw.translate(_BIT_REVERSE), "little")
        return cls(value & ((1 << length) - 1), length)  # padding bits ignored

    def to_bytes(self) -> bytes:
        raw = self.value.to_bytes((self.length + 7) // 8, "little")
        return raw.translate(_BIT_REVERSE)

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return ((self.value >> j) & 1 for j in range(self.length))

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError("bit index out of range")
        return (self.value >> j) & 1

    def __xor__(self, other: BitString) -> BitString:
        if self.length != other.length:
            raise ValueError("XOR requires equal lengths")
        return BitString(self.value ^ other.value, self.length)

    def split(self, n: int) -> tuple[BitString, BitString]:
        """First n bits and the remainder."""
        if not 0 <= n <= self.length:
            raise ValueError("split point out of range")
        return (BitString(self.value & ((1 << n) - 1), n),
                BitString(self.value >> n, self.length - n))

    def flip(self, *positions: int) -> BitString:
        v = self.value
        for j in positions:
            if not 0 <= j < self.length:
                raise ValueError("flip position out of range")
            v ^= 1 << j
        return BitString(v, self.length)


# ---------------------------------------------------------------------------
# Polynomials over GF(2), integer-encoded


def _mul(a: int, b: int) -> int:
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("reduction modulo zero polynomial")
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


# squaring over GF(2) spreads each bit to an even position; per-byte table
_SQ_BYTE = tuple(
    sum(((byte >> i) & 1) << (2 * i) for i in range(8)) for byte in range(256))


def _sq(a: int) -> int:
    out = 0
    shift = 0
    while a:
        out |= _SQ_BYTE[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return out


# Below 2 * _FOLD bits one _mod, a shift-and-XOR per leading bit on a few
# machine words, is cheaper than squaring up x^w mod p and multiplying.  Of
# the bases 64 .. 512 timed at m = 32, 64, 512 and 16 384 bits, 256 was the
# fastest at 16 384 and within 6 % of the fastest at the others.
_FOLD = 256


def _fold_mod(a: int, p: int) -> int:
    """a mod p by folds a = hi x^w + lo == hi (x^w mod p) + lo, w halving.

    The widths are w = _FOLD 2^j above deg p (a fold at w <= deg p cannot
    shrink a), up to the first one with a in 2w bits; each fold is exact
    mod p, so the cost is log m big-int multiplies by n-bit constants
    rather than an interpreted step per message word.
    """
    w = _FOLD
    while w < p.bit_length():
        w <<= 1
    ladder = []  # (w, x^w mod p), widths doubling
    if a.bit_length() > 2 * w:
        ladder.append((w, _mod(1 << w, p)))
        while a.bit_length() > 2 * w:
            w <<= 1
            ladder.append((w, _mod(_sq(ladder[-1][1]), p)))
    for w, c in reversed(ladder):
        a = _mul(a >> w, c) ^ (a & ((1 << w) - 1))
    return _mod(a, p)


@dataclass(frozen=True)
class Gf2Poly:
    """Polynomial over GF(2); bit i of ``value`` is the coefficient of x^i."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("polynomial encoding must be non-negative")

    @property
    def degree(self) -> int:
        """Degree of the polynomial (-1 for the zero polynomial)."""
        return self.value.bit_length() - 1

    def coeff(self, i: int) -> int:
        return (self.value >> i) & 1 if i >= 0 else 0


@lru_cache(maxsize=1 << 15)
def _is_irreducible_value(v: int) -> bool:
    """Ben-Or's ladder alone: is the degree >= 1 polynomial v irreducible?

    Walks b = x^(2^d) mod v for d = 1..deg/2 and rejects as soon as
    gcd(b + x, v) is non-trivial; any factor of degree d <= deg/2 divides
    x^(2^d) + x, so survival of the full ladder proves irreducibility.  It
    is exact for every v: step d = 1 takes the gcd with x^2 + x, which finds
    the factors x and x + 1.

    The callers reject those two factors in O(1) first, so the cache holds
    only values that need the ladder.  A degree-n value that passes both
    parity checks is one of 2^(n-2), so the 2^15 entries hold every verdict
    up to degree 17 without eviction.
    """
    b = 2
    for _ in range((v.bit_length() - 1) // 2):
        b = _mod(_sq(b), v)
        if _gcd(b ^ 2, v) != 1:
            return False
    return True


def poly_is_irreducible(p: Gf2Poly) -> bool:
    """Deterministic irreducibility test over GF(2).

    Degree 1 is irreducible.  Above it, p(0) = 0 (a factor x) and p(1) = 0
    (an even number of terms, a factor x + 1) reject at once; what is left
    goes to the cached ladder ``_is_irreducible_value``.
    """
    if p.degree < 1:
        raise ValueError("zero or constant polynomial has no factorization")
    if p.degree == 1:
        return True
    v = p.value
    if not v & 1 or not v.bit_count() & 1:
        return False  # p(0) = 0 or p(1) = 0: a factor x or x + 1
    return _is_irreducible_value(v)


def decode_poly(r: BitString) -> Gf2Poly | None:
    """Degree-n polynomial from its n-bit encoding; None when it is reducible.

    The encoding holds the coefficients of x^0..x^(n-1) and the leading x^n
    coefficient is an implicit 1; a decode that fails the
    irreducibility check signals tampering and the caller must reject.
    """
    n = r.length
    if n < 2:
        raise ValueError("encoded polynomial needs at least 2 bits")
    p = Gf2Poly(r.value | (1 << n))
    return p if poly_is_irreducible(p) else None


def sample_irreducible(n: int, rng: Random) -> tuple[Gf2Poly, BitString]:
    """Uniformly random irreducible degree-n polynomial and its n-bit encoding.

    Rejection-samples the n low coefficients until the polynomial (with
    implicit leading 1) is irreducible, so the draw is uniform over all
    monic irreducibles of degree n.  Draws are tested as plain integers:
    the parity checks of ``poly_is_irreducible`` reject about three in four
    of them, and only the rest reach the cached ladder
    ``_is_irreducible_value``.  Only the accepted draw becomes a ``Gf2Poly``
    and a ``BitString``.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    lead = 1 << n
    while True:
        low = rng.getrandbits(n)
        v = low | lead
        if v & 1 and v.bit_count() & 1 and _is_irreducible_value(v):
            return Gf2Poly(v), BitString(low, n)


# ---------------------------------------------------------------------------
# LFSR keystream and Toeplitz hashing


def lfsr_stream(p: Gf2Poly, seed: BitString, count: int) -> BitString:
    """First ``count`` bits of the LFSR sequence s with s_{j+n} = sum c_i s_{j+i}.

    The register taps c_0..c_{n-1} are the coefficients of p below its
    degree; the first n outputs are the seed itself.
    """
    n = p.degree
    if n < 1:
        raise ValueError("LFSR needs a polynomial of degree >= 1")
    if seed.length != n:
        raise ValueError("seed length must equal the polynomial degree")
    if count < 0:
        raise ValueError("count must be non-negative")
    mask = (1 << n) - 1
    if count <= n:
        return BitString(seed.value & ((1 << count) - 1), count)
    taps = p.value & mask
    window = seed.value
    bits = []
    for _ in range(count - n):
        nxt = (window & taps).bit_count() & 1
        window = (window >> 1) | (nxt << (n - 1))
        bits.append("01"[nxt])
    bits.reverse()  # most significant (latest) bit first, as int() reads it
    return BitString(seed.value | int("".join(bits), 2) << n, count)


@dataclass(frozen=True)
class LfsrToeplitzHasher:
    """One-time universal hash keyed by an irreducible polynomial and a seed.

    The tag of an m-bit message M is the XOR, over all positions j with
    M_j = 1, of the n-bit keystream window (s_j, ..., s_{j+n-1}); equivalent
    to multiplying M by the n x m Toeplitz matrix whose rows are keystream
    windows.

    ``hash`` never materialises the keystream.  Let L be the linear map on
    polynomials of degree < n with L(x^i) = s_i, i.e. L(a) = parity(a & seed).
    The recurrence s_{j+n} = sum c_i s_{j+i} is reduction by p, so
    s_j = L(x^j mod p) for every j, and tag bit i is

        sum_j M_j s_{i+j} = L(x^i * M(x) mod p),   M(x) = sum_j M_j x^j.

    ``_fold_mod`` computes R = M(x) mod p in log m folds, each one big-int
    multiply by the n-bit x^w mod p, then n multiply-by-x steps read off
    the tag.  No interpreted step runs once per message bit or word, and no
    m-bit keystream is built (Krawczyk, "LFSR-based hashing and
    authentication", CRYPTO '94).
    """

    poly: Gf2Poly
    seed: BitString

    def __post_init__(self) -> None:
        if not poly_is_irreducible(self.poly):
            raise ValueError("hasher polynomial must be irreducible")
        if self.seed.length != self.poly.degree:
            raise ValueError("seed length must equal the polynomial degree")

    @property
    def n(self) -> int:
        return self.poly.degree

    def hash(self, message: BitString) -> BitString:
        if message.length < 1:
            raise ValueError("message must be non-empty")
        n = self.n
        p = self.poly.value
        seed = self.seed.value
        r = _fold_mod(message.value, p)  # R = M(x) mod p
        # tag bit i = L(x^i R mod p)
        tag = 0
        for i in range(n):
            tag |= ((r & seed).bit_count() & 1) << i
            r <<= 1
            if r >> n:
                r ^= p
        return BitString(tag, n)


def toeplitz_oracle(p: Gf2Poly, seed: BitString, msg: BitString) -> BitString:
    """Reference hash by explicit Toeplitz matrix-vector multiply.

    Materializes the keystream with a literal per-bit recurrence and the
    full n x m matrix row by row; deliberately shares no code with
    ``LfsrToeplitzHasher.hash`` so the two can cross-check each other.
    """
    n = p.degree
    if seed.length != n:
        raise ValueError("seed length must equal the polynomial degree")
    m = msg.length
    if m < 1:
        raise ValueError("message must be non-empty")
    taps = [p.coeff(i) for i in range(n)]
    s = list(seed)
    while len(s) < m + n - 1:
        j = len(s) - n
        s.append(sum(taps[i] * s[j + i] for i in range(n)) % 2)
    msg_bits = list(msg)
    tag = []
    for i in range(n):
        row = s[i:i + m]  # row i of the matrix: (s_i, ..., s_{i+m-1})
        tag.append(sum(r * b for r, b in zip(row, msg_bits)) % 2)
    return BitString.from_bits(tag)
