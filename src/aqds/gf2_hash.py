"""GF(2) polynomial arithmetic and the LFSR-based Toeplitz one-time hash.

Polynomials over GF(2) are stored as nonnegative integers, bit i holding the
coefficient of x^i (so 0b111 is x^2 + x + 1).  Bit strings carry an explicit
length; bit 0 is the first transmitted bit, and byte/hex serialization is
most-significant-bit-first per byte.

All functions are pure: random choices come from an explicitly passed
``random.Random``, and every value is immutable after construction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress
from operator import xor
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


def _sq(a: int) -> int:
    # squaring over GF(2) moves bit i to bit 2i: a's binary digits read in
    # base 4 (which the int-string digit limit exempts)
    return int(f"{a:b}", 4)


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


# The small-factor sieve: lane j of a packed residue, bits 8j .. 8j + 7,
# holds a value mod _SIEVE_POLYS[j].  These are the irreducibles of degree 1
# .. _SIEVE_DEG in increasing order (the tests rebuild them by trial
# division), so the lanes of degree <= d are a prefix.  A sample at n = 82
# took 1767, 1619, 1538 and 1516 us with the sieve cut at degree 5, 6, 7 and
# 8 (2-vCPU x86-64 VM, Python 3.11.7); 8 is the widest that fits a byte lane.
_SIEVE_DEG = 8
_SIEVE_POLYS = (
    0x2, 0x3,  # degree 1
    0x7,  # degree 2
    0xb, 0xd,  # degree 3
    0x13, 0x19, 0x1f,  # degree 4
    0x25, 0x29, 0x2f, 0x37, 0x3b, 0x3d,  # degree 5
    0x43, 0x49, 0x57, 0x5b, 0x61, 0x67, 0x6d, 0x73, 0x75,  # degree 6
    0x83, 0x89, 0x8f, 0x91, 0x9d, 0xa7, 0xab, 0xb9, 0xbf, 0xc1, 0xcb,
    0xd3, 0xd5, 0xe5, 0xef, 0xf1, 0xf7, 0xfd,  # degree 7
    0x11b, 0x11d, 0x12b, 0x12d, 0x139, 0x13f, 0x14d, 0x15f, 0x163,
    0x165, 0x169, 0x171, 0x177, 0x17b, 0x187, 0x18b, 0x18d, 0x19f,
    0x1a3, 0x1a9, 0x1b1, 0x1bd, 0x1c3, 0x1cf, 0x1d7, 0x1dd, 0x1e7,
    0x1f3, 0x1f5, 0x1f9,  # degree 8
)
# _LANE_POWERS[i]: x^i mod every lane polynomial, packed, from x^0 = 1 in
# every lane; grown on demand to the widest v seen
_LANE_POWERS = [int.from_bytes(bytes([1]) * len(_SIEVE_POLYS), "little")]
_BIT_VALUE = bytes.maketrans(b"01", bytes([0, 1]))  # binary digits to 0 / 1


def _small_residues(v: int) -> int:
    """v mod every lane polynomial, packed: the XOR of x^i over v's bits i."""
    powers = _LANE_POWERS
    while len(powers) < v.bit_length():
        lanes = list(powers[-1].to_bytes(len(_SIEVE_POLYS), "little"))
        for j, f in enumerate(_SIEVE_POLYS):  # times x in each lane
            r = lanes[j] << 1
            lanes[j] = min(r, r ^ f)  # r ^ f clears bit deg f when r has it
        powers.append(int.from_bytes(bytes(lanes), "little"))
    bits = f"{v:b}"[::-1].encode().translate(_BIT_VALUE)  # lowest bit first
    return reduce(xor, compress(powers, bits), 0)


@lru_cache(maxsize=1 << 15)
def _is_irreducible_value(v: int) -> bool:
    """Is the degree >= 1 polynomial v irreducible?  Exact for every v.

    Ben-Or's ladder walks b = x^(2^d) mod v for d = 1..deg/2 and rejects as
    soon as gcd(b + x, v) is non-trivial; any factor of degree d <= deg/2
    divides x^(2^d) + x, so survival of the full ladder proves
    irreducibility.  The gcds at d <= top = min(_SIEVE_DEG, deg/2) would
    find exactly the factors of degree <= top, so a sieve stands in for
    them: v has one exactly when a lane of ``_small_residues(v)`` up to
    degree top is zero.  The ladder then starts at b = x^(2^top) mod v.

    The callers reject the factors x and x + 1 in O(1) first, so the cache
    holds only values that need the sieve.  A degree-n value that passes
    both parity checks is one of 2^(n-2), so the 2^15 entries hold the
    verdicts of any one degree up to 17 without eviction, not of all those
    degrees together.
    """
    half = (v.bit_length() - 1) // 2
    top = min(_SIEVE_DEG, half)
    residues = _small_residues(v).to_bytes(len(_SIEVE_POLYS), "little")
    if 0 in residues[:bisect_left(_SIEVE_POLYS, 2 << top)]:
        return False
    b = _mod(1 << (1 << top), v)
    for _ in range(half - top):
        b = _mod(_sq(b), v)
        a, c = v, b ^ 2  # gcd(b + x, v) by Euclid, each step an inline _mod
        while c:
            dc = c.bit_length()
            da = a.bit_length()
            while da >= dc:
                a ^= c << (da - dc)
                da = a.bit_length()
            a, c = c, a
        if a != 1:
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
