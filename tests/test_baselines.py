"""Fixed-trusted-party baseline flows and the comparison table."""

from random import Random

import pytest

from aqds.baselines import (
    ComparisonRow,
    ExtBaselineKeys,
    LITERATURE_ROWS,
    comparison_table,
    ext_consumption,
    ext_round,
)
from aqds.gf2_hash import BitString
from aqds.protocol import SignatureBundle, VerificationOutcome, receiver_verify

A = VerificationOutcome.ACCEPTED


class TestExtRound:
    def test_honest_round_all_accept(self):
        rng = Random(0)
        results, _ = ext_round(BitString.random(64, rng), k=3, n=16, rng=rng)
        assert len(results) == 3
        for r in results:
            assert r.receiver_verdict is A

    def test_honest_acceptance_over_ten_thousand_flows(self):
        rng = Random(1)
        flows = 0
        for _ in range(2500):
            results, _ = ext_round(BitString.random(24, rng), k=4, n=8, rng=rng)
            assert all(r.receiver_verdict is A for r in results)
            flows += len(results)
        assert flows == 10_000

    def test_signatures_pairwise_distinct(self):
        rng = Random(2)
        for _ in range(100):
            results, _ = ext_round(BitString.random(48, rng), k=4, n=16, rng=rng)
            sigs = [r.bundle.signature for r in results]
            assert len({s.value for s in sigs}) == len(sigs)

    def test_tampering_flags_only_that_flow(self):
        rng = Random(3)
        results, keys = ext_round(BitString.random(64, rng), k=3, n=16, rng=rng)
        tampered = SignatureBundle(results[1].bundle.message.flip(5),
                                   results[1].bundle.signature)
        assert receiver_verify(tampered, keys.session(1)) is not A
        for i in (0, 2):
            assert receiver_verify(results[i].bundle, keys.session(i)) is A

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            ext_round(BitString.random(8, Random(0)), k=0, n=8, rng=Random(0))


class TestExtConsumption:
    def test_table_values(self):
        assert ext_consumption(7, 38) == 1596
        assert ext_consumption(4, 58) == 1392

    def test_single_receiver_doubles_per_link_cost(self):
        assert ext_consumption(1, 38) == 2 * 3 * 38

    def test_validates(self):
        with pytest.raises(ValueError):
            ext_consumption(0, 8)


class TestComparisonTable:
    def test_arbitrated_rows(self):
        rows = {(r.scheme, r.k, r.m_bits): r for r in comparison_table()}
        arb7 = rows[("arbitrated multi-receiver (this package)", 7, 8)]
        arb4 = rows[("arbitrated multi-receiver (this package)", 4, 8 * 2 ** 20)]
        assert arb7.total_kbit == pytest.approx(0.912)
        assert arb4.total_kbit == pytest.approx(0.870)
        assert arb7.source == "computed"

    def test_extended_rows(self):
        rows = {(r.scheme, r.k): r for r in comparison_table()}
        ext7 = rows[("extended three-party, fixed trusted party", 7)]
        ext4 = rows[("extended three-party, fixed trusted party", 4)]
        assert ext7.total_kbit == pytest.approx(1.596)
        assert ext4.total_kbit == pytest.approx(1.392)

    def test_literature_rows_echoed_verbatim(self):
        rows = comparison_table()
        for lit in LITERATURE_ROWS:
            assert lit in rows
            assert lit.source == "literature"
        amiri = next(r for r in rows if r.scheme.startswith("Amiri"))
        assert amiri.total_kbit == 21.888

    def test_savings_ratio(self):
        # arbitrated over extended cost is (k+1)/(2k) for every k
        for k in range(1, 12):
            rows = comparison_table(scenarios=((k, 8, 1e-10),))
            arb = next(r for r in rows if r.scheme.startswith("arbitrated"))
            ext = next(r for r in rows if r.scheme.startswith("extended"))
            assert arb.total_kbit / ext.total_kbit == pytest.approx(
                (k + 1) / (2 * k))
