"""Command-line entry point: protocol demos, attack suites, and planners.

Every command emits byte-stable CSV (or an aligned table with --format
table) to stdout or --output; the two that draw, sign-round and attack, are
deterministic under --seed.  Exit codes:
0 success, 2 usage error, 3 attack bound violated, 4 infeasible or
malformed configuration.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import sys
from pathlib import Path
from random import Random

from . import adversary, baselines, netsim, qkd_model
from .config import ConfigurationError, checked
from .keymat import SecurityParams, link_bits, total_consumption

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_CONFIG = 4

# ---------------------------------------------------------------------------
# Argument helpers


def _parse_size(text: str) -> int:
    """Byte count with optional binary suffix: 8, 1K, 1M, 2G."""
    text = text.strip()
    factor = 1
    if text and text[-1].upper() in "KMG":
        factor = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[text[-1].upper()]
        text = text[:-1]
    value = int(text) * factor
    if value < 1:
        raise argparse.ArgumentTypeError("size must be at least 1 byte")
    return value


def _comma_list(item):
    """Argument type parsing a comma list with ``item``; blank items are skipped.

    A list with no item left is a usage error, not an empty table.
    """
    def comma_list(text: str) -> list:
        items = [item(x) for x in text.split(",") if x.strip()]
        if not items:
            raise argparse.ArgumentTypeError("list needs at least one item")
        return items
    return comma_list


# far above the paper's 51-point sweeps; a tiny step must not exhaust memory
_MAX_RANGE_POINTS = 10_000


def _parse_range(text: str) -> list[float]:
    """Comma list or start:stop:step (inclusive of stop within tolerance)."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise argparse.ArgumentTypeError("range bounds and step must be finite")
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("range needs start<=stop, step>0")
        # counted, then indexed: a running sum x += step stalls once the step
        # falls below the float spacing at x; a stop within 1e-9 steps past a
        # point still counts that point
        span = (stop - start) / step + 1e-9
        if not span < _MAX_RANGE_POINTS:
            raise argparse.ArgumentTypeError(
                f"range has more than {_MAX_RANGE_POINTS} points")
        return [start + i * step for i in range(math.floor(span) + 1)]
    return _comma_list(float)(text)


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("epsilon must be strictly between 0 and 1")
    return value


# ---------------------------------------------------------------------------
# Output


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render(header: list[str], rows: list[tuple], fmt: str) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("AQDS_OUTPUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, path: str | None) -> None:
    target = _resolve_output(path)
    if target is None:
        sys.stdout.write(text)
        return
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {target}: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """Raise the error ``_emit`` would raise for ``path``, writing nothing.

    The nearest existing path on the way up must be the target as a
    writable file, or a writable directory that ``_emit`` can create the
    rest of the path in.
    """
    target = _resolve_output(path)
    if target is None:
        return
    try:
        found = next(p for p in (target, *target.parents) if p.exists())
    except OSError as exc:  # a directory on the way that cannot be searched
        raise ConfigurationError(f"cannot write {target}: {exc}") from exc
    if found == target:
        code = errno.EISDIR if found.is_dir() else None
    else:
        code = None if found.is_dir() else errno.ENOTDIR
    if code is None and not os.access(found, os.W_OK):
        code = errno.EACCES
    if code is not None:
        raise ConfigurationError(
            f"cannot write {target}: {OSError(code, os.strerror(code))}")


# ---------------------------------------------------------------------------
# Commands


# 16M = 2^27 message bits, 16x the paper's 1 MB point: a round holds the
# message and its hex encoding in memory, so the size is bounded before either
# is built (the planners only do arithmetic on sizes and stay unbounded); the
# attack suites take the same largest message, 8 * _MAX_ROUND_BYTES bits
_MAX_ROUND_BYTES = 16 << 20
# one attack trial at n = 2048 takes 6 to 12 s in the forgery suite and 4 to
# 12 s in the robustness suite (2-vCPU x86-64, Python 3.11), and 2^(n-1) of a
# far larger n alone would exhaust memory, so n is bounded before any suite
_MAX_ATTACK_N = 2048
# a round holds a key bundle, a forward and a few transcript lines per
# receiver, so memory grows linearly in k: 10 000 receivers take 0.24-0.36 s
# and 33 MB, 0.34-0.51 s and 39 MB with --transcript, and 0.30-0.44 s with a
# script of 1000 forward delays (2-vCPU x86-64, Python 3.11); consumption
# only does arithmetic on k and stays unbounded
_MAX_ROUND_RECEIVERS = 10_000
# at the defaults (n = 8, m = 32, k = 3) a trial runs at about 141 000/s in the
# blind forgery suite, 12 000/s in the known-signature one, 3 500/s in
# robustness and 2 700/s in repudiation (2-vCPU x86-64, Python 3.11); 10^7 is
# 100x the acceptance checks' 10^5 and lets the blind suite test the bound 2^-20
# (64 000 trials/s at n = 20) in under 3 minutes, while --suite all at the
# defaults takes about 2 h at the bound
_MAX_ATTACK_TRIALS = 10_000_000


def _check_round_receivers(k: int) -> None:
    """Bound --receivers before any key is drawn."""
    if k > _MAX_ROUND_RECEIVERS:
        raise ConfigurationError(
            f"bad --receivers: a round takes at most {_MAX_ROUND_RECEIVERS} "
            f"receivers, got {k}")


def cmd_sign_round(args) -> int:
    if args.message_bytes > _MAX_ROUND_BYTES:
        raise ConfigurationError(
            f"bad --message-bytes: sign-round takes at most 16M "
            f"({_MAX_ROUND_BYTES} bytes), got {args.message_bytes}")
    _check_round_receivers(args.receivers)
    security = checked("bad --receivers: ", SecurityParams, 8 * args.message_bytes,
                       args.epsilon, args.receivers)
    script = netsim.load_script(args.script) if args.script else None
    topology = checked("bad --deadline: ", netsim.Topology.fully_connected,
                       args.receivers, deadline=args.deadline)
    # both outputs are checked before the round, so exit 4 leaves nothing written
    _check_writable(args.output)
    _check_writable(args.transcript)
    if args.output and args.transcript and (
            _resolve_output(args.output).resolve()
            == _resolve_output(args.transcript).resolve()):
        raise ConfigurationError(
            f"bad --transcript: {_resolve_output(args.transcript)} is also --output")
    try:
        transcript = netsim.run_round(topology, security, script, seed=args.seed)
    except ConfigurationError as exc:  # a rule that does not fit the round's sizes
        raise ConfigurationError(f"{args.script}: {exc}") from exc
    per_link = link_bits(security.m_bits, security.eps_f)
    rows = [(rid, transcript.outcomes[rid].value, security.n, per_link)
            for rid in topology.receiver_ids]
    _emit(_render(["receiver", "outcome", "n", "bits_per_link"], rows,
                  args.format), args.output)
    if args.transcript:
        _emit(transcript.render(), args.transcript)
    return EXIT_OK


def cmd_attack(args) -> int:
    suites = ("robustness", "forgery", "repudiation")
    chosen = suites if args.suite == "all" else (args.suite,)
    # every suite's arguments are checked before the first one runs
    if args.trials < 0:
        raise ConfigurationError(f"bad --trials: must be non-negative, got {args.trials}")
    if args.trials > _MAX_ATTACK_TRIALS:
        raise ConfigurationError(
            f"bad --trials: attack takes at most {_MAX_ATTACK_TRIALS} trials, "
            f"got {args.trials}")
    if args.n > _MAX_ATTACK_N:
        raise ConfigurationError(
            f"bad --n: attack takes at most n = {_MAX_ATTACK_N}, got {args.n}")
    if args.m_bits > 8 * _MAX_ROUND_BYTES:
        raise ConfigurationError(
            f"bad --m-bits: attack takes at most 2^27 ({8 * _MAX_ROUND_BYTES}) "
            f"bits, got {args.m_bits}")
    if "forgery" in chosen:
        checked("bad --n/--m-bits: ", adversary._check_guess_room, args.n, args.m_bits)
    if {"robustness", "repudiation"} & set(chosen):
        _check_round_receivers(args.receivers)
        sec = checked("bad --n/--m-bits/--receivers: ", SecurityParams.for_n,
                      args.n, args.m_bits, args.receivers)
        topology = netsim.Topology.fully_connected(args.receivers)
    rows = []
    ok = True
    for suite in chosen:
        rng = Random(f"{args.seed}:{suite}")
        results: list[tuple[str, adversary.AttackResult]] = []
        if suite == "robustness":
            results.append(("all-honest", adversary.robustness_experiment(
                topology, args.trials, rng, sec)))
        elif suite == "forgery":
            results.append(("blind", adversary.forgery_blind(
                args.n, args.trials, rng, args.m_bits)))
            results.append(("known-signature", adversary.forgery_known_signature(
                args.n, args.m_bits, args.trials, rng)))
        else:
            results.append(("inconsistent-broadcast",
                            adversary.repudiation_experiment(
                                topology, args.trials, rng, sec)))
        for case, res in results:
            ok &= res.within_bound
            rows.append((suite, case, args.n, args.m_bits, res.trials,
                         res.successes, res.rate, float(res.bound), res.threshold,
                         "pass" if res.within_bound else "FAIL"))
    _emit(_render(["suite", "case", "n", "m_bits", "trials", "successes",
                   "observed", "bound", "threshold", "result"], rows,
                  args.format), args.output)
    return EXIT_OK if ok else EXIT_BOUND


def cmd_consumption(args) -> int:
    rows = []
    for m_bytes in sorted(args.message_bytes):
        for eps in sorted(args.epsilon):
            for k in sorted(args.receivers):
                rows.append((m_bytes, eps, k, checked(
                    "bad --receivers: ", total_consumption, 8 * m_bytes, eps, k)))
    _emit(_render(["m_bytes", "eps", "k", "bits"], rows, args.format),
          args.output)
    return EXIT_OK


def cmd_curve(args) -> int:
    # infeasible distances are flagged per row rather than failing the sweep
    params = (qkd_model.load_source_params(args.params) if args.params
              else qkd_model.SourceParams())
    m_bits = 8 * args.message_bytes
    rows = []
    for d in args.distance_km:
        if not d >= 0:
            raise ConfigurationError(
                f"bad --distance-km: distances must be non-negative, got {d}")
        rate = qkd_model.rate_at_distance(params, d).secure_rate
        try:
            seconds = _fmt(qkd_model.time_to_sign(params, d, m_bits, args.epsilon))
        except qkd_model.InfeasibleDistanceError:
            seconds = "inf"
        rows.append((d, rate, seconds))
    _emit(_render(["distance_km", "rate_bps", "seconds"], rows, args.format),
          args.output)
    return EXIT_OK


def cmd_comparison(args) -> int:
    rows = [(row.scheme, row.k, row.m_bits, row.eps_f, f"{row.total_kbit:.3f}",
             row.source) for row in baselines.comparison_table()]
    _emit(_render(["scheme", "k", "m_bits", "eps_f", "total_kbit", "source"],
                  rows, args.format), args.output)
    return EXIT_OK


def cmd_scenario(args) -> int:
    scenarios = qkd_model.load_link_keys(args.keys or qkd_model.EIGHT_USER_NETWORK)
    rows = []
    for name, (meta, links) in scenarios.items():
        m_bytes = args.message_bytes or meta["message-bytes"]
        eps = args.epsilon or meta["epsilon"]
        m_bits = 8 * m_bytes
        per_round = link_bits(m_bits, eps)
        bottleneck = min(links, key=lambda link: (links[link], link))
        rounds = qkd_model.supported_rounds(list(links.values()), m_bits, eps)
        rows.append((name, m_bytes, eps, bottleneck, links[bottleneck],
                     per_round, rounds))
    _emit(_render(["scenario", "m_bytes", "eps", "min_link", "min_link_bits",
                   "bits_per_round", "supported_rounds"], rows, args.format),
          args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None,
                   help="write here instead of stdout (AQDS_OUTPUT_DIR applies)")
    p.add_argument("--format", choices=("csv", "table"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqds",
        description="Arbitrated multi-receiver signature demos and planners")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sign-round", help="run one simulated signing round")
    p.add_argument("--receivers", type=int, default=3)
    p.add_argument("--message-bytes", type=_parse_size, default=1024)
    p.add_argument("--epsilon", type=_epsilon, default=1e-10)
    p.add_argument("--deadline", type=int, default=10)
    p.add_argument("--script", default=None, help="adversary script (INI)")
    p.add_argument("--transcript", default=None, help="write event transcript here")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_sign_round)

    p = sub.add_parser("attack", help="run Monte Carlo attack suites")
    p.add_argument("--suite", choices=("robustness", "forgery", "repudiation",
                                       "all"), default="all")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m-bits", type=int, default=32)
    p.add_argument("--trials", type=int, default=5000)
    p.add_argument("--receivers", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("consumption", help="sweep total key consumption")
    p.add_argument("--epsilon", type=_comma_list(_epsilon), default=[1e-10, 1e-14])
    p.add_argument("--receivers", type=_comma_list(int), default=[2, 6, 10])
    p.add_argument("--message-bytes", type=_comma_list(_parse_size),
                   default=[1, 1 << 10, 1 << 20])
    _add_common(p)
    p.set_defaults(func=cmd_consumption)

    p = sub.add_parser("time-curve",
                       help="secure key rate and per-round signing time versus distance")
    p.add_argument("--params", default=None, help="source parameter file (INI)")
    p.add_argument("--distance-km", type=_parse_range, default=_parse_range("0:400:20"),
                   help="comma list or start:stop:step")
    p.add_argument("--message-bytes", type=_parse_size, default=1 << 20)
    p.add_argument("--epsilon", type=_epsilon, default=1e-20)
    _add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("scenario", help="supported rounds on a stored network")
    p.add_argument("--keys", default=None, help="link key stocks (INI)")
    p.add_argument("--message-bytes", type=_parse_size, default=None)
    p.add_argument("--epsilon", type=_epsilon, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("comparison", help="total key consumption by scheme")
    _add_common(p)
    p.set_defaults(func=cmd_comparison)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, qkd_model.NoSignalError) as exc:
        print(f"aqds: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
