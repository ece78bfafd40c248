#!/usr/bin/env python3
"""Print the key-consumption comparison and the eight-user network capacity.

Everything is analytic; runs in well under a second.  --csv emits the
comparison with machine-readable columns instead of the aligned table.
"""

import argparse
import csv
import sys

from aqds.baselines import comparison_table
from aqds.cli import main as cli_main
from aqds.keymat import link_bits, required_n


def show_comparison(as_csv: bool) -> None:
    rows = comparison_table()
    if as_csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["scheme", "k", "m_bits", "eps_f", "total_kbit", "source"])
        for row in rows:
            writer.writerow([row.scheme, row.k, row.m_bits, f"{row.eps_f:g}",
                             f"{row.total_kbit:.3f}", row.source])
        return
    print("Total key consumption by scheme")
    print(f"{'scheme':55} {'k':>2} {'m (bit)':>9} {'eps':>7} {'kbit':>8}  source")
    for row in rows:
        print(f"{row.scheme:55} {row.k:>2} {row.m_bits:>9} {row.eps_f:>7.0e} "
              f"{row.total_kbit:>8.3f}  {row.source}")
    print()


def show_network() -> None:
    n = required_n(2 ** 13, 1e-10)
    print(f"Eight-user network, 1 KB messages, eps = 1e-10 (n = {n}, "
          f"{link_bits(2 ** 13, 1e-10)} bits per round and link)")
    cli_main(["scenario", "--format", "table"])
    print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", action="store_true",
                        help="emit the comparison as CSV and skip the rest")
    args = parser.parse_args()
    show_comparison(args.csv)
    if not args.csv:
        show_network()
