"""Full-scale sign-off checks, one test per criterion.

Each test prints a PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` yields one line per criterion.
The statistical criteria run at their full trial counts; expect a few
minutes for the forgery bounds.
"""

import math
from random import Random
from time import perf_counter

from aqds.adversary import (
    forgery_blind,
    forgery_known_signature,
    repudiation_experiment,
    robustness_experiment,
)
from aqds.baselines import ext_consumption
from aqds.cli import main
from aqds.gf2_hash import (
    BitString,
    Gf2Poly,
    LfsrToeplitzHasher,
    sample_irreducible,
    toeplitz_oracle,
)
from aqds.keymat import SecurityParams, required_n, total_consumption
from aqds.netsim import Topology
from aqds.qkd_model import (
    SourceParams,
    supported_rounds,
    time_to_sign,
    window_efficiency,
)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c01_key_consumption_comparison_exact():
    arb7 = total_consumption(8, 1e-10, 7)
    arb4 = total_consumption(2 ** 23, 1e-10, 4)
    ext7 = ext_consumption(7, required_n(8, 1e-10))
    ext4 = ext_consumption(4, required_n(2 ** 23, 1e-10))
    assert arb7 == 912
    assert arb4 == 870
    assert ext7 == 1596
    assert ext4 == 1392
    report("C1", f"arbitrated {arb7}/{arb4} bits, baseline {ext7}/{ext4} bits")


def test_c02_eight_user_network_rounds_exact():
    lab = supported_rounds([7140816], 2 ** 13, 1e-10)
    metro = supported_rounds([901], 2 ** 13, 1e-10)
    assert lab == 49589
    assert metro == 6
    report("C2", f"laboratory {lab} rounds, metropolitan {metro} rounds")


def test_c03_consumption_spot_values():
    ten = total_consumption(2 ** 13, 1e-14, 10)
    eight = total_consumption(2 ** 23, 1e-14, 8)
    assert ten == 2013 and ten <= 2048
    assert eight == 1917 and eight <= 2048
    report("C3", f"k=10 -> {ten} bits, k=8 -> {eight} bits, both under 2K")


def test_c04_signing_time_at_360km():
    # 1 MB message: 2^20 bytes = 2^23 bits
    seconds = time_to_sign(SourceParams(), 360.0, 2 ** 23, 1e-20)
    assert 3.3e2 <= seconds <= 3e3
    report("C4", f"1 MB at 360 km takes {seconds:.0f} s")


def test_c05_window_efficiency_consistency():
    eta = window_efficiency(500e-12, 500e-12)
    assert round(eta, 3) == 0.761
    report("C5", f"erf(sqrt(ln 2)) = {eta:.4f} matches tabulated 0.761")


def test_c06_robustness_zero_rejections():
    rng = Random(600)
    total_rounds = 0
    failures = 0
    for k in (1, 3, 6):
        topology = Topology.fully_connected(k)
        for n in (8, 32):
            sec = SecurityParams.for_n(n, 64, k)
            res = robustness_experiment(topology, 1667, rng, sec)
            total_rounds += res.trials
            failures += res.successes
    assert total_rounds >= 10_000
    assert failures == 0
    report("C6", f"{total_rounds} honest rounds, {failures} rejections")


def test_c07_forgery_bounds_full_scale():
    blind = forgery_blind(8, 1_000_000, Random(700))
    assert blind.within_bound, (blind.rate, blind.threshold)

    known = forgery_known_signature(10, 32, 100_000, Random(701), known_keys=1)
    assert known.within_bound, (known.rate, known.threshold)

    colluding = forgery_known_signature(10, 32, 100_000, Random(702),
                                        known_keys=6)
    assert colluding.within_bound
    pooled = (known.successes + colluding.successes) / (known.trials
                                                        + colluding.trials)
    sigma = math.sqrt(2 * pooled * (1 - pooled) / known.trials)
    assert abs(known.rate - colluding.rate) <= 3 * sigma
    report("C7", f"blind {blind.rate:.2e} <= {blind.threshold:.2e}, "
                 f"known {known.rate:.4f} <= {known.threshold:.4f}, "
                 f"collusion gap {abs(known.rate - colluding.rate):.4f}")


def test_c08_repudiation_structurally_zero():
    res = repudiation_experiment(Topology.fully_connected(3), 10_000, Random(800))
    assert res.successes == 0
    assert res.applicable > 9_000
    report("C8", f"{res.trials} adversarial rounds, {res.applicable} applicable, "
                 f"{res.successes} repudiations")


def irreducible_by_trial_division(v: int) -> bool:
    """No divisor of degree 1 .. deg/2; shares no code with ``aqds``."""
    def rem(a, d):
        while a.bit_length() >= d.bit_length():
            a ^= d << (a.bit_length() - d.bit_length())
        return a

    return all(rem(v, d) for d in range(2, 2 << (v.bit_length() - 1) // 2))


def test_c09_hash_equals_oracle():
    rng = Random(900)
    checked = 0
    for n in range(2, 7):
        irreducibles = [Gf2Poly(v) for v in range(1 << n, 1 << (n + 1))
                        if irreducible_by_trial_division(v)]
        seeds = [BitString.random(n, rng) for _ in range(16)]
        for p in irreducibles:
            for seed in seeds:
                hasher = LfsrToeplitzHasher(p, seed)
                for m in range(1, 9):
                    for value in range(1 << m):
                        msg = BitString(value, m)
                        assert hasher.hash(msg) == toeplitz_oracle(p, seed, msg)
                        checked += 1
    for _ in range(10_000):
        n = rng.randint(2, 16)
        m = rng.randint(1, 64)
        p = Gf2Poly(sample_irreducible(n, rng))
        seed = BitString.random(n, rng)
        msg = BitString.random(m, rng)
        assert LfsrToeplitzHasher(p, seed).hash(msg) == toeplitz_oracle(p, seed, msg)
    for _ in range(10_000):
        n = rng.randint(2, 12)
        m = rng.randint(1, 48)
        p = Gf2Poly(sample_irreducible(n, rng))
        hasher = LfsrToeplitzHasher(p, BitString.random(n, rng))
        m1, m2 = BitString.random(m, rng), BitString.random(m, rng)
        assert hasher.hash(m1 ^ m2) == hasher.hash(m1) ^ hasher.hash(m2)
    report("C9", f"{checked} exhaustive + 10^4 random oracle matches "
                 f"+ 10^4 linearity pairs")


def test_c10_collision_frequency_bound():
    n, m, trials = 10, 32, 100_000
    rng = Random(1000)
    m1 = BitString.random(m, rng)
    m2 = m1.flip(*rng.sample(range(m), 7))
    collisions = 0
    for _ in range(trials):
        p = Gf2Poly(sample_irreducible(n, rng))
        hasher = LfsrToeplitzHasher(p, BitString.random(n, rng))
        if hasher.hash(m1) == hasher.hash(m2):
            collisions += 1
    bound = 2.0 ** -5
    sigma = math.sqrt(bound * (1 - bound) / trials)
    rate = collisions / trials
    assert rate <= bound + 3 * sigma
    report("C10", f"collision frequency {rate:.2e} <= {bound + 3 * sigma:.4f}")


def test_c11_cli_determinism(tmp_path, capsys):
    args = ["sign-round", "--seed", "42"]
    t1, t2 = tmp_path / "t1.log", tmp_path / "t2.log"
    assert main(args + ["--transcript", str(t1)]) == 0
    out1 = capsys.readouterr().out
    assert main(args + ["--transcript", str(t2)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and out1
    assert t1.read_bytes() == t2.read_bytes()
    report("C11", "sign-round --seed 42 reproduced byte-identically")


def test_one_megabyte_round_at_paper_epsilon(capsys):
    # the paper's budgeted point: a 2^23-bit message at eps = 1e-20 (n = 91);
    # 0.5-0.6 s in-process on a 2-vCPU x86-64 VM, so the 10 s bound leaves
    # room for a slow host while an O(m^2) hash would take over an hour
    start = perf_counter()
    code = main(["sign-round", "--message-bytes", "1M", "--epsilon", "1e-20",
                 "--receivers", "1"])
    seconds = perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == ("receiver,outcome,n,bits_per_link\n"
                                       "r1,accepted,91,273\n")
    assert seconds < 10.0
    report("1 MB round", f"2^23-bit message at eps=1e-20 accepted in "
                         f"{seconds:.2f} s (bound 10 s)")


def test_one_megabyte_round_hundred_receivers(capsys):
    # ROADMAP item 1's headline point: the signer, 100 receivers and the
    # arbitrator check one 2^23-bit signature.  0.8-1.8 s in-process on a
    # 2-vCPU x86-64 VM, because the round hashes once and encodes its bundle
    # once; 1 + 2k = 201 hashes took about 110 s
    start = perf_counter()
    code = main(["sign-round", "--message-bytes", "1M", "--epsilon", "1e-20",
                 "--receivers", "100"])
    seconds = perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == "receiver,outcome,n,bits_per_link\n" + "".join(
        f"r{i},accepted,91,273\n" for i in range(1, 101))
    assert seconds < 10.0
    report("1 MB round, k=100", f"2^23-bit message at eps=1e-20 accepted by "
                                f"100 receivers in {seconds:.2f} s (bound 10 s)")
