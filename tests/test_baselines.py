"""Fixed-trusted-party baseline key cost and the comparison table."""

import pytest

from aqds.baselines import LITERATURE_ROWS, comparison_table, ext_consumption


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
