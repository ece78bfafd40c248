"""Secure-key rate model for CW-pumped entangled-photon links and planners.

The chain goes: true coincidences from source brightness and the arm
transmittance, accidental coincidences from singles rates inside the
coincidence window, a window efficiency for how many true pairs the window
catches, then QBER and the distilled secure rate after error correction and
privacy amplification.  Planners on top convert a secure rate or a stored
key stock into signing time or supported signing rounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .config import ConfigurationError, IniFile
from .keymat import link_bits, required_n


class NoSignalError(ValueError):
    """Measured coincidence rate is zero; the error rate is undefined."""


class InfeasibleDistanceError(ValueError):
    """No secure key can be distilled at this distance."""


def binary_entropy(x: float) -> float:
    """H2(x) in bits; 0 by continuity at x = 0 and x = 1."""
    if x < 0.0 or x > 1.0:
        raise ValueError("entropy argument must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def window_efficiency(t_cc: float, t_delta: float) -> float:
    """Fraction of true coincidences inside a window of width t_cc.

    Integrates the normalized Gaussian arrival-time spread (FWHM t_delta)
    over [-t_cc/2, t_cc/2], which closes to erf(sqrt(ln 2) t_cc / t_delta).
    """
    if t_cc <= 0.0 or t_delta <= 0.0:
        raise ValueError("window width and jitter must be positive")
    return math.erf(math.sqrt(math.log(2.0)) * t_cc / t_delta)


@dataclass(frozen=True)
class SourceParams:
    """Physical parameters of one CW-pumped entangled link; defaults: Table 1."""

    brightness: float = 1e8          # pairs/s at the source
    e_pol_a: float = 0.0181          # per-side polarization error probability
    e_pol_b: float = 0.0181
    dark_count: float = 300.0        # counts/s per side
    t_cc: float = 500e-12            # coincidence window, s
    receiver_loss_db: float = 3.0    # per-side receiving loss
    eta_tcc: float | None = 0.761    # direct window efficiency, or None
    t_delta: float | None = None     # timing jitter FWHM, s; alternative input
    alpha_db_per_km: float = 0.2     # fiber attenuation
    q_sift: float = 0.5              # sifting factor q
    f_ec: float = 1.1                # error-correction inefficiency f

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, not {value!r}")
        if self.brightness < 0 or self.dark_count < 0 or self.t_cc < 0:
            raise ValueError("rates and window width must be non-negative")
        for e in (self.e_pol_a, self.e_pol_b):
            if not 0.0 <= e <= 1.0:
                raise ValueError("polarization errors are probabilities")
        if self.eta_tcc is None and self.t_delta is None:
            raise ValueError("either eta_tcc or t_delta must be given")
        if self.eta_tcc is not None and not 0.0 < self.eta_tcc <= 1.0:
            raise ValueError("eta_tcc must be in (0, 1]")
        if self.eta_tcc is None:
            window_efficiency(self.t_cc, self.t_delta)  # fail here, not at first use
        if self.receiver_loss_db < 0 or self.alpha_db_per_km < 0:
            raise ValueError("losses must be non-negative")
        if not 0.0 < self.q_sift <= 1.0 or not self.f_ec >= 1.0:
            raise ValueError("q_sift in (0, 1] and f_ec >= 1 required")

    @property
    def e_pol(self) -> float:
        """Pair polarization error: either side errs, not both."""
        ea, eb = self.e_pol_a, self.e_pol_b
        return ea * (1.0 - eb) + eb * (1.0 - ea)

    def resolved_eta_tcc(self) -> float:
        if self.eta_tcc is not None:
            if self.t_delta is not None:
                warnings.warn("both eta_tcc and t_delta given; using eta_tcc",
                              stacklevel=2)
            return self.eta_tcc
        return window_efficiency(self.t_cc, self.t_delta)


_SOURCE_KEYS = {f.name.replace("_", "-"): float for f in fields(SourceParams)}


def load_source_params(path: str | Path) -> SourceParams:
    """Read a [source] section (keys ``q-sift`` etc.); unset keys keep defaults."""
    ini = IniFile(path)
    kwargs = ini.fields("source", _SOURCE_KEYS)
    ini.only_sections("source")
    if "t_delta" in kwargs and "eta_tcc" not in kwargs:
        kwargs["eta_tcc"] = None  # derive from the given jitter instead
    return ini.build("source", SourceParams, kwargs)


@dataclass(frozen=True)
class RateResult:
    """All intermediate rates of the chain plus the final secure rate."""

    cc_true: float
    cc_acc: float
    cc_measured: float
    cc_err: float
    qber: float
    secure_rate: float


def rate_at_distance(params: SourceParams, distance_km: float) -> RateResult:
    """Evaluate the full rate chain over a signer-user fiber span.

    The source sits at the midpoint, so both arms lose d/2 alpha + L_rx dB
    and share one transmittance.  The secure rate applies one measured QBER
    to both the bit and phase entropy terms and clamps at zero when the
    bracket goes negative.
    """
    arm_db = distance_km / 2.0 * params.alpha_db_per_km + params.receiver_loss_db
    eta = 10.0 ** (-arm_db / 10.0)
    cc_true = params.brightness * eta * eta
    singles = params.brightness * eta + params.dark_count
    cc_acc = singles * singles * params.t_cc
    eta_tcc = params.resolved_eta_tcc()
    cc_measured = eta_tcc * cc_true + cc_acc
    if cc_measured <= 0.0:
        raise NoSignalError("no coincidences; QBER undefined")
    cc_err = eta_tcc * cc_true * params.e_pol + 0.5 * cc_acc
    qber = cc_err / cc_measured
    h = binary_entropy(qber)
    secure = params.q_sift * cc_measured * (1.0 - params.f_ec * h - h)
    return RateResult(cc_true, cc_acc, cc_measured, cc_err, qber, max(secure, 0.0))


def time_to_sign(params: SourceParams, distance_km: float, m_bits: int,
                 eps_f: float) -> float:
    """Seconds of key generation needed per signing round at this distance.

    One round costs 3n bits on each link and all links run in parallel, so
    the wait is 3n over the per-link secure rate.
    """
    result = rate_at_distance(params, distance_km)
    if result.secure_rate <= 0.0:
        raise InfeasibleDistanceError(
            f"secure rate is zero at {distance_km} km")
    return link_bits(m_bits, eps_f) / result.secure_rate


def supported_rounds(key_bits_per_link: Sequence[int], m_bits: int,
                     eps_f: float) -> int:
    """Signing rounds the bottleneck link's key stock can fund."""
    if not key_bits_per_link:
        raise ValueError("need at least one link key stock")
    return min(key_bits_per_link) // link_bits(m_bits, eps_f)


EIGHT_USER_NETWORK = Path(__file__).parent / "data" / "eight_user_network.ini"
_STOCK_METADATA = {"message-bytes": int, "epsilon": float, "arbitrator-link": str}


def load_link_keys(path: str | Path):
    """Scenarios, one per section; every key that is not metadata is a link."""
    ini = IniFile(path)
    scenarios = {}
    for name, sec in ini.sections.items():
        meta = {"message-bytes": 1024, "epsilon": 1e-10, "arbitrator-link": "AI"}
        links = {}
        for key in sec:
            if key in _STOCK_METADATA:
                meta[key] = ini.value(name, key, _STOCK_METADATA[key])
            else:
                links[key] = ini.value(name, key, int)
                if links[key] < 0:
                    raise ini.error(name, f"key {key!r}: a stock cannot be negative")
        # a size no signing round can have is a configuration error
        ini.build(name, required_n, {"m_bits": 8 * meta["message-bytes"],
                                     "eps_f": meta["epsilon"]})
        if meta["arbitrator-link"] not in links:
            raise ini.error(name, f"lacks its arbitrator link "
                                  f"{meta['arbitrator-link']!r}")
        scenarios[name] = (meta, links)
    if not scenarios:
        raise ConfigurationError(f"{path}: defines no scenarios")
    return scenarios
