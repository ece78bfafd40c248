"""Fixed-trusted-party baseline and the key-consumption comparison table.

The baseline extends a three-party signature to k receivers by running one
independent flow per receiver through a fixed trusted party: each flow signs
with the XOR of the trusted-party pair and that receiver's pair, costing 6n
bits per receiver against 3n(k+1) total for the arbitrated scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from .keymat import required_n, total_consumption


def ext_consumption(k: int, n: int) -> int:
    """Total key bits for the baseline: 6n per receiver flow."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    return 6 * n * k


@dataclass(frozen=True)
class ComparisonRow:
    """One line of the key-consumption comparison."""

    scheme: str
    k: int
    m_bits: int
    eps_f: float
    total_kbit: float
    source: str  # "computed" or "literature"


# Published totals for transferable multi-receiver schemes, echoed verbatim;
# kbit here is decimal (1 kbit = 1000 bits).
LITERATURE_ROWS = (
    ComparisonRow("Amiri et al. 2016 (unconditionally secure signatures)",
                  7, 8, 1e-10, 21.888, "literature"),
    ComparisonRow("Pelet et al. 2022 (eight-user network signatures)",
                  7, 8, 1e-10, 35.898, "literature"),
    ComparisonRow("Kiktenko et al. 2022 (QKD-network multiparty signatures)",
                  4, 8 * 2 ** 20, 1e-10, 279.400, "literature"),
)

DEFAULT_SCENARIOS = ((7, 8, 1e-10), (4, 8 * 2 ** 20, 1e-10))


def comparison_table(scenarios=DEFAULT_SCENARIOS) -> list[ComparisonRow]:
    """Literature rows echoed, arbitrated and baseline rows computed."""
    rows = list(LITERATURE_ROWS)
    for k, m_bits, eps_f in scenarios:
        n = required_n(m_bits, eps_f)
        rows.append(ComparisonRow("extended three-party, fixed trusted party",
                                  k, m_bits, eps_f, ext_consumption(k, n) / 1000.0,
                                  "computed"))
    for k, m_bits, eps_f in scenarios:
        rows.append(ComparisonRow("arbitrated multi-receiver (this package)",
                                  k, m_bits, eps_f,
                                  total_consumption(m_bits, eps_f, k) / 1000.0,
                                  "computed"))
    return rows
