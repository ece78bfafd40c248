#!/usr/bin/env python3
"""Host-time benchmark of aqds signing rounds and attack-suite passes.

    python3 perfbench/run.py --workload bulk-sign --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                  # all three workloads in turn
    python3 perfbench/run.py --trace 1        # per-layer numbers instead
    python3 perfbench/run.py --smoke          # all three at tiny sizes, self-checking

Each workload is a closed loop with one client: op i starts when op i-1 has
finished, and its inputs are drawn from (workload, seed, i).  Every op's
output is checked outside the timed window.  Times are host seconds from
``time.perf_counter``, not the simulator's logical time.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage
or when ``src/aqds`` is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

from workloads import SRC, WORKLOADS, import_aqds, make, op_seed, oracle_checks
from tracer import COUNTS, UNITS, Tracer

ROOT = SRC.parent
OUT = ROOT / ".perfbench-out"
SETUPS = 7  # set-ups per untraced run; setup_s is their median
# peak_rss_mb is read after this many ops: the lru cache grows with every op,
# so reading it at the end would charge a faster program for doing more ops
RSS_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed in the report but left out of the result line: on a shared host
# whose speed wanders by up to 1.5x for minutes at a time, the mean and the
# median of a 40 s loop spread across runs past the largest bound allowed,
# and the 90th percentile about half as much (see README.md)
REPORT_ONLY = ("ops_per_s", "op_p50_ms")

# bench.hash_path_frac expectation per workload: (more than half?, reason)
HASH_PATH_EXPECTED = {
    "bulk-sign": (True, "a few long hashes dominate"),
    "attack-mc": (False, "irreducibility, verify-reject and netsim dominate"),
}


@dataclass
class Loop:
    """Outcome of one timed loop."""

    durations: list[float] = field(default_factory=list)  # every op, in order
    passed: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    fingerprint: str = ""
    rss_mb: float = 0.0  # ru_maxrss after RSS_OPS ops, or at the end if fewer

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def latencies(self) -> list[float]:
        return [d for d, ok in zip(self.durations, self.passed) if ok]

    @property
    def ops_per_s(self) -> float:
        """Passed ops per second of op time."""
        return sum(self.passed) / sum(self.durations)


def setup(name: str, seed: int, smoke: bool, j: int = 0):
    """Import aqds, build the workload and run one untimed warm-up op.

    Set-up ``j`` warms up on op ``-1 - j``: the warm-up's cost depends on its
    inputs (how many polynomials are drawn before one is irreducible), so
    each set-up of a run draws its own and their median evens that out.
    """
    aq = import_aqds()
    wl = make(name, aq, smoke)
    problem = wl.check(wl.op(op_seed(name, seed, -1 - j)))
    return aq, wl, [f"warm-up op: {problem}"] if problem else []


def timed_loop(name: str, wl, seed: int, seconds: float, execute) -> Loop:
    """Run ops 0, 1, ... for ``seconds``, and at least the fingerprint window."""
    window = WORKLOADS[name].window
    loop = Loop()
    fp = hashlib.sha256()
    start = perf_counter()
    while loop.attempted < window or perf_counter() - start < seconds:
        i = loop.attempted
        s = op_seed(name, seed, i)
        t0 = perf_counter()
        try:
            result = execute(i, s)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        dur = perf_counter() - t0
        if isinstance(result, Exception):
            problem = f"raised {type(result).__name__}: {result}"
        else:
            problem = wl.check(result)
        loop.durations.append(dur)
        loop.passed.append(not problem)
        if problem:
            loop.failures.append(f"op {i}: {problem}")
        if i < window:
            fp.update(problem.encode() if problem else wl.fingerprint(result))
        if i < RSS_OPS:
            loop.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.fingerprint = fp.hexdigest()
    return loop


def p90(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""
    rank = math.ceil(0.9 * len(samples))
    return sorted(samples)[rank - 1], len(samples) - rank


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def header(names, args) -> None:
    print(f"# perfbench python={platform.python_version()} nproc={nproc()} "
          f"git={git_revision()} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)} closed-loop clients=1")
    aq = import_aqds()
    for name in names:
        print(f"# workload {name}: {make(name, aq, args.smoke).describe()}")
        print(f"#   why: {WORKLOADS[name].why}")


def run_untraced(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, str]:
    """Set up SETUPS times, then run the timed loop; return result and fingerprint."""
    setup_s, problems = [], []
    for j in range(SETUPS):
        t0 = perf_counter()
        aq, wl, warm = setup(name, seed, smoke, j)
        setup_s.append(perf_counter() - t0)
        problems += warm
    loop = timed_loop(name, wl, seed, seconds, lambda i, s: wl.op(s))
    problems += oracle_checks(aq, seed, smoke)
    lat = loop.latencies or [0.0]
    high, beyond = p90(lat)
    busy_s = sum(loop.durations)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * high,
        "peak_rss_mb": loop.rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups",
        "ops_per_s": f"{len(loop.latencies)} passed ops in {busy_s:.3f} s of op time",
        "op_p50_ms": f"{len(loop.latencies)} samples",
        "op_p90_ms": f"{beyond} samples beyond it"
                     + ("" if beyond >= 10 else " (fewer than 10: raise --seconds)"),
        "peak_rss_mb": f"ru_maxrss after op {min(RSS_OPS, loop.attempted)}",
    }
    for key, value in metrics.items():
        print(f"{name:10} {key:12} {value:14.6f} {END_TO_END_UNITS[key]:5} {notes[key]}")
    print_outcome(name, loop)
    return finish(loop.attempted, loop.failures, problems,
                  {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items() if k not in REPORT_ONLY}
                  ), loop.fingerprint


def run_traced(name: str, seed: int, seconds: float,
               smoke: bool) -> tuple[dict, str, dict]:
    """Untraced then traced loop, each for half the time, each after a fresh set-up.

    Returns the result, the fingerprint and the counts that must repeat.
    """
    aq, wl, problems = setup(name, seed, smoke)
    plain = timed_loop(name, wl, seed, seconds / 2, lambda i, s: wl.op(s))
    problems += oracle_checks(aq, seed, smoke)

    aq, wl, warm = setup(name, seed, smoke)
    problems += warm
    tracer = Tracer(aq, WORKLOADS[name].window)
    try:
        tracer.install()
        traced = timed_loop(name, wl, seed, seconds / 2,
                            lambda i, s: tracer.run_op(i, wl.op, s))
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)

    if traced.fingerprint != plain.fingerprint:
        problems.append("tracing changed the outputs: fingerprints differ")
    if len(traced.failures) != len(plain.failures):
        problems.append("tracing changed the number of failed ops")
    # same ops on both sides, so differing inputs do not pose as overhead
    m = min(plain.attempted, traced.attempted)
    values = tracer.metrics(sum(traced.durations[:m]) / sum(plain.durations[:m]) - 1)
    op_s = tracer.op_time / tracer.ops
    for key, value in values.items():
        share = f"{value / op_s:7.1%} of op time" if key.endswith(".self_s") else ""
        print(f"{name:10} {key:42} {value:14.6f} {UNITS[key]:5} {share}")
    print(f"{name:10} counts cover traced ops 0..{tracer.window - 1}; self times are "
          f"per op over {tracer.ops} traced ops ({op_s * 1000:.2f} ms each); "
          f"spans written to {spans_path.relative_to(ROOT)}")
    for func, namespaces in tracer.bindings.items():
        print(f"{name:10} patched {func} in {', '.join(namespaces)}")
    print_outcome(name, traced)
    print(f"{name:10} untraced and traced loops agree on the fingerprint: "
          f"{traced.fingerprint == plain.fingerprint}")
    if name in HASH_PATH_EXPECTED:
        most, why = HASH_PATH_EXPECTED[name]
        share = values["bench.hash_path_frac"]
        verdict = "agrees" if (share > 0.5) == most else "DISAGREES"
        print(f"{name:10} rationale: hash+lfsr_stream+codec self time is {share:.1%} of "
              f"op time; expected {'most' if most else 'a minority'} ({why}): {verdict}")
    result = finish(plain.attempted + traced.attempted, plain.failures + traced.failures,
                    problems, {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()})
    return result, traced.fingerprint, {k: values[k] for k in COUNTS}


def print_outcome(name: str, loop: Loop) -> None:
    failed_frac = len(loop.failures) / loop.attempted
    print(f"{name:10} {'failed_frac':12} {failed_frac:14.6f} {'ratio':5} "
          f"{len(loop.failures)} of {loop.attempted} ops")
    print(f"{name:10} fingerprint  {loop.fingerprint} "
          f"(ops 0..{WORKLOADS[name].window - 1})")


def finish(attempted: int, failures: list[str], problems: list[str], metrics: dict) -> dict:
    for line in failures[:10] + problems:
        print(f"FAIL {line}")
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def smoke(seed: int) -> list[str]:
    """Every workload at tiny size: untraced once, traced twice; return problems.

    The loops run exactly the fingerprint window, so the outcome is a pure
    function of the seed.
    """
    seconds = 0.0
    problems = []
    for name in WORKLOADS:
        plain, fp0 = run_untraced(name, seed, seconds, smoke=True)
        (first, fp1, counts1), (second, fp2, counts2) = (
            run_traced(name, seed, seconds, smoke=True) for _ in range(2))
        for label, res in (("untraced", plain), ("traced", first), ("traced", second)):
            if not res["correct"]:
                problems.append(f"{name}: {label} run failed its checks")
        if not fp0 == fp1 == fp2:
            problems.append(f"{name}: fingerprints differ between runs")
        if counts1 != counts2:
            diff = sorted(k for k in counts1 if counts1[k] != counts2[k])
            problems.append(f"{name}: counts differ between traced runs: {diff}")
    return problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="timed loop length per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny sizes and check tracing changes nothing")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aqds" / "__init__.py").is_file():
        print(f"perfbench: no aqds package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    header(names, args)
    if args.smoke:
        problems = smoke(args.seed)
        for line in problems:
            print(f"SMOKE FAIL {line}")
        print(json.dumps({"smoke": "failed" if problems else "ok"}))
        return 1 if problems else 0
    results = {}
    for name in names:
        if args.trace:
            results[name], _, _ = run_traced(name, args.seed, args.seconds, smoke=False)
        else:
            results[name], _ = run_untraced(name, args.seed, args.seconds, smoke=False)
    if len(names) > 1:
        print("# one process ran every workload: peak_rss_mb is its high-water mark so far")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
