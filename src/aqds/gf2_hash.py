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


# ---------------------------------------------------------------------------
# Bit strings

# byte b -> b with its 8 bits in reverse order: maps between the LSB-first
# bytes of ``int.to_bytes(..., "little")`` and the MSB-first wire format
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class _Value:
    """Base of the immutable value types that a round builds per receiver.

    A subclass lists its fields in ``__slots__``, after those of its
    bases.  Its validating ``__init__`` takes them in that order and writes
    each once through ``_set``; copy and pickle call it with the stored
    fields, and assignment afterwards raises AttributeError.  Equality,
    hash and repr are built from the fields, and an instance equals only
    instances of its own class.
    ``BitString(v, n)`` took 0.6 us this way against 1.4 us as a frozen
    dataclass (2-vCPU x86-64 VM, Python 3.11.7).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(s for c in reversed(cls.__mro__)
                            for s in c.__dict__.get("__slots__", ())
                            if s != "__weakref__")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple()


_set = object.__setattr__  # writes a _Value's field past its __setattr__


class BitString(_Value):
    """Fixed-length bit string; bit j of ``value`` is the j-th transmitted bit.

    It takes weak references, which can watch a round free its message.
    """

    __slots__ = ("value", "length", "__weakref__")
    value: int
    length: int

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= value < (1 << length):
            raise ValueError(f"value does not fit in {length} bits")
        _set(self, "value", value)
        _set(self, "length", length)

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


# Ben-Or's ladder runs in spread form: bit i of a polynomial sits at bit
# 8wi, one w-byte lane per coefficient.  One int multiply then sums the
# terms of each product coefficient in its own lane, and ``& ones`` keeps
# their parity, the GF(2) product: 0.6 us for two 82-bit operands against
# 10-14 us for ``_mul`` (2-vCPU x86-64 VM, Python 3.11.7).  A lane is exact
# while no count in it passes 2^(8w) - 1, so byte lanes fail from 256 terms
# on; two-byte lanes make a product 2-6 times dearer (4.1 against 0.7 us
# at 82 bits, 144 against 65 us at 1100 bits).


def _lane_bytes(terms: int) -> int:
    """Bytes per lane, so that a lane holds a count of up to ``terms``."""
    return (terms.bit_length() + 7) // 8


def _spread(a: int, w: int) -> int:
    """a with bit i moved to bit 8wi, the low bit of lane i."""
    digits = f"{a:b}".encode().translate(_BIT_VALUE)
    lanes = bytearray(w * len(digits))
    lanes[w - 1::w] = digits  # big-endian: a lane's last byte is its low one
    return int.from_bytes(lanes, "big")


def _unspread(s: int, w: int) -> int:
    """The inverse of ``_spread`` on an s whose every lane is 0 or 1."""
    h = f"{s:x}"  # 2w hex digits a lane, its bit the lane's last digit
    return int(h[(len(h) - 1) % (2 * w)::2 * w], 2)


# The ladder takes one gcd per _BATCH steps, of the product of their b + x.
# A sample at n = 82 took 2309, 1742, 1426, 1310, 1344, 1330 and 1381 us
# with batches of 1, 2, 4, 6, 8, 12 and 16 steps (medians of 8 alternating
# runs, 2-vCPU x86-64 VM, Python 3.11.7): 6 to 12 are within 3 %.
_BATCH = 8


@lru_cache(maxsize=1 << 15)
def _is_irreducible_value(v: int) -> bool:
    """Is the degree >= 1 polynomial v irreducible?  Exact for every such v.

    Ben-Or's ladder walks b = x^(2^d) mod v for d = 1..deg/2, and v is
    reducible exactly when gcd(b + x, v) is non-trivial at some d: any
    factor of degree d <= deg/2 divides x^(2^d) + x.  The gcds at
    d <= top = min(_SIEVE_DEG, deg/2) would find exactly the factors of
    degree <= top, so a sieve stands in for them: v has one exactly when a
    lane of ``_small_residues(v)`` up to degree top is zero.  Up to degree
    17 top = deg/2 and the sieve alone decides.

    Above it the ladder runs on spread ints (``_spread``), in lanes wide
    enough for deg v terms.  Each step squares b and multiplies it, plus x,
    into a running product; both products reduce mod v exactly by Barrett
    with mu = x^(2 deg) div v.  One gcd of the product with v per _BATCH
    steps, and one at d = deg/2, takes the place of a gcd per step: an
    irreducible factor of v divides the product only if it divides one of
    its factors b + x.  A product that reaches 0 leaves gcd v, a reject.

    ``__wrapped__`` is the uncached test.  ``poly_is_irreducible``, the
    sampler's and decoder's one test, rejects the factors x and x + 1 in
    O(1) first and sends only values of degree <= 2 _SIEVE_DEG + 1 = 17,
    those the sieve alone decides, through the cache.  There a degree has
    2^(n-2) <= 2^15 parity survivors, so the cache holds the verdicts of
    any one such degree without eviction, and a small degree's verdicts
    repeat.  A larger draw almost never comes up twice, so its verdict
    would be dead memory that evicts the ones that do repeat.
    """
    if v < 2:  # v = 1 is the one value below degree 2 that passes both parities
        raise ValueError(f"the irreducibility test needs degree >= 2, got v={v}")
    n = v.bit_length() - 1
    half = n // 2
    top = min(_SIEVE_DEG, half)
    residues = _small_residues(v).to_bytes(len(_SIEVE_POLYS), "little")
    if 0 in residues[:bisect_left(_SIEVE_POLYS, 2 << top)]:
        return False
    if top == half:
        return True
    mu, r = 0, 1 << 2 * n  # mu = x^(2n) div v
    while (k := r.bit_length() - 1 - n) >= 0:
        mu |= 1 << k
        r ^= v << k
    w = _lane_bytes(n)  # no product below sums more than n terms in a lane
    shift, xs = 8 * w * n, 1 << 8 * w  # x^n is a shift by n lanes; x, spread
    low = ((1 << shift) - 1) // (xs - 1)  # a 1 in each of lanes 0 .. n-1
    vs, mus = _spread(v, w), _spread(mu, w)
    j = min(top, (n - 1).bit_length() - 1)  # x^(2^j) is its own residue
    b, acc = 1 << (8 * w << j), 1
    for d in range(j + 1, half + 1):
        # a of degree < 2n reduces mod v as a + q v, q = (a div x^n) mu div x^n
        a = b * b
        b = (a ^ ((a >> shift & low) * mus >> shift & low) * vs) & low
        if d <= top:
            continue
        a = acc * (b ^ xs)
        acc = (a ^ ((a >> shift & low) * mus >> shift & low) * vs) & low
        if (d - top) % _BATCH and d < half:
            continue
        a, c = v, _unspread(acc, w)  # Euclid, each step an inline _mod
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


def poly_is_irreducible(v: int) -> bool:
    """Is the polynomial v of degree >= 2 irreducible?

    v(0) = 0 (a factor x) and v(1) = 0 (an even number of terms, a factor
    x + 1) reject at once; what is left goes to ``_is_irreducible_value``,
    through its cache up to degree 2 _SIEVE_DEG + 1 = 17 and past it
    uncached.  The one irreducibility test, and the one owner of the
    parity checks.  Below degree 2 (v < 4) it raises ValueError, in the
    parity branch or, for v = 1, in the test.
    """
    if not v & 1 or not v.bit_count() & 1:
        # 0, x and x + 1 end here and 1 in the test on a cache miss, so an
        # accepted or cached test pays nothing for the degree check
        if v < 4:
            raise ValueError(f"the irreducibility test needs degree >= 2, got v={v}")
        return False  # v(0) = 0 or v(1) = 0: a factor x or x + 1
    if v >> 2 * _SIEVE_DEG + 2:  # degree >= 18: its verdict will not repeat
        return _is_irreducible_value.__wrapped__(v)
    return _is_irreducible_value(v)


def decode_poly(r: int, n: int) -> int | None:
    """Degree-n polynomial value from its n-bit encoding r; None when reducible.

    The encoding holds the coefficients of x^0..x^(n-1) and the leading x^n
    coefficient is an implicit 1; a decode that fails the
    irreducibility check signals tampering and the caller must reject.
    """
    if n < 2:
        raise ValueError("encoded polynomial needs at least 2 bits")
    if not 0 <= r < 1 << n:
        raise ValueError(f"encoding does not fit in {n} bits")
    v = r | 1 << n
    return v if poly_is_irreducible(v) else None


def sample_irreducible(n: int, rng: Random) -> int:
    """Uniformly random irreducible degree-n polynomial, as its value.

    Rejection-samples the n low coefficients until the polynomial (with
    implicit leading 1, bit n of the value) is irreducible, so the draw is
    uniform over all monic irreducibles of degree n.  The encoding a
    signature carries is the value without bit n.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    lead = 1 << n
    while True:
        v = rng.getrandbits(n) | lead
        if poly_is_irreducible(v):
            return v


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

    ``hash`` and its kernel ``_toeplitz_tag`` never materialise the
    keystream.  Let L be the linear map on polynomials of degree < n with
    L(x^i) = s_i, i.e. L(a) = parity(a & seed).  The recurrence
    s_{j+n} = sum c_i s_{j+i} is reduction by p, so s_j = L(x^j mod p) for
    every j, and tag bit i is

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
        n = self.poly.degree
        if n < 1:
            raise ValueError("zero or constant polynomial has no factorization")
        # x and x + 1 are irreducible; the int test starts at degree 2
        if n > 1 and not poly_is_irreducible(self.poly.value):
            raise ValueError("hasher polynomial must be irreducible")
        if self.seed.length != n:
            raise ValueError("seed length must equal the polynomial degree")

    @property
    def n(self) -> int:
        return self.poly.degree

    def hash(self, message: BitString) -> BitString:
        return BitString(_toeplitz_tag(self.poly.value, self.seed.value, message),
                         self.n)


def _toeplitz_tag(p: int, seed: int, message: BitString) -> int:
    """The tag of ``message`` under the irreducible p and the seed, as an int.

    The one hash kernel: ``LfsrToeplitzHasher.hash`` and the protocol's
    tags call it.  p must be irreducible and the seed must fit in deg p
    bits; the callers vouch for both.
    """
    if message.length < 1:
        raise ValueError("message must be non-empty")
    n = p.bit_length() - 1
    r = _fold_mod(message.value, p)  # R = M(x) mod p
    # tag bit i = L(x^i R mod p)
    tag = 0
    for i in range(n):
        tag |= ((r & seed).bit_count() & 1) << i
        r <<= 1
        if r >> n:
            r ^= p
    return tag


def toeplitz_oracle(p: Gf2Poly, seed: BitString, msg: BitString) -> BitString:
    """Reference hash by explicit Toeplitz matrix-vector multiply.

    Materializes the keystream s_0 .. s_{m+n-2} (bit j of an int) with a
    literal per-bit recurrence, then takes each tag bit as the parity of
    one matrix row ANDed with the message; deliberately shares no code with
    the hash kernel ``_toeplitz_tag`` so the two can cross-check each other.
    """
    n = p.degree
    if seed.length != n:
        raise ValueError("seed length must equal the polynomial degree")
    m = msg.length
    if m < 1:
        raise ValueError("message must be non-empty")
    taps = p.value & ((1 << n) - 1)  # c_0 .. c_{n-1}
    s = seed.value
    for j in range(m - 1):  # s_{j+n} = sum_i c_i s_{j+i}
        s |= (((s >> j) & taps).bit_count() & 1) << (j + n)
    tag = 0
    for i in range(n):  # row i of the matrix: (s_i, ..., s_{i+m-1})
        tag |= (((s >> i) & msg.value).bit_count() & 1) << i
    return BitString(tag, n)
