"""Arbitrated one-to-many quantum digital signatures, simulated end to end.

Subpackages: ``gf2_hash`` (bit strings, GF(2) polynomials, LFSR-Toeplitz
hashing), ``keymat`` (key bundles and sizing), ``protocol`` (sign/verify
state machine pieces), ``netsim`` (deterministic round simulator),
``adversary`` (attack experiments), ``qkd_model`` (CW-pumped link rates and
planners), ``baselines`` (fixed-trusted-party comparison), ``config`` (the
INI reader and ``ConfigurationError``), ``cli``.
"""

from .gf2_hash import (
    BitString,
    decode_poly,
    poly_is_irreducible,
    sample_irreducible,
)
from .keymat import (
    KeyBundle,
    SecurityParams,
    SessionKeys,
    combine,
    distribute_keys,
    required_n,
    total_consumption,
)
from .protocol import (
    ForwardPacket,
    RoundRecord,
    SignatureBundle,
    VerificationOutcome,
    arbitrator_close_round,
    receiver_verify,
    sign,
    timeout_forward_verify,
)

__all__ = [
    "BitString", "decode_poly", "poly_is_irreducible", "sample_irreducible",
    "KeyBundle", "SecurityParams", "SessionKeys", "combine", "distribute_keys",
    "required_n", "total_consumption",
    "ForwardPacket", "RoundRecord", "SignatureBundle", "VerificationOutcome",
    "arbitrator_close_round", "receiver_verify", "sign",
    "timeout_forward_verify",
]

__version__ = "0.1.0"
