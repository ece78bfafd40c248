"""Per-layer spans and counts, recorded from outside the ``aqds`` package.

The traced run replaces each layer function with a wrapper in *every*
``aqds`` module namespace that binds it (``sign`` is bound in ``protocol``,
``netsim``, ``adversary``, ``baselines`` and the package itself), and each
layer method on its class.  A wrapper records a span: name, start, end,
parent span and op id.  A span's self time is its duration minus the time
its child spans cover; a span opened directly inside a span of the same
name (``to_hex`` calling ``to_bytes``) is folded into it.

Counts are kept only for ops ``0 .. window-1``, which always run and whose
inputs are fixed by the seed, so they repeat exactly.  Self times are
summed over all traced ops and reported per op.  The spans of the window
ops are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import ModuleType


def _note_hash(tr, args, result, parent):
    tr.counts["gf2_hash.hash.bits"] += args[1].length


def _note_lfsr(tr, args, result, parent):
    poly, seed, count = args
    tr.counts["gf2_hash.lfsr_stream.bits"] += count
    tr.lfsr_keys.add((poly.value, seed.value, count))


def _note_to_bytes(tr, args, result, parent):
    tr.counts["gf2_hash.codec.bytes"] += len(result)


def _note_to_hex(tr, args, result, parent):
    tr.counts["gf2_hash.codec.bytes"] += len(result) // 2


def _note_from_hex(tr, args, result, parent):
    tr.counts["gf2_hash.codec.bytes"] += len(args[1]) // 2


def _note_irreducible(tr, args, result, parent):
    if parent == "gf2_hash.sample_irreducible":
        tr.counts["gf2_hash.sample_irreducible.draws"] += 1


def _note_decode(tr, args, result, parent):
    tr.counts["gf2_hash.decode_poly.rejects"] += result is None


def _note_keys(tr, args, result, parent):
    receivers, arb = result
    tr.counts["keymat.key_bits"] += sum(b.x.length + b.y.length
                                        for b in (*receivers, arb))


def _note_verify(tr, args, result, parent):
    tr.counts["protocol.verify.accepts"] += result.value == "accepted"


def _note_trials(tr, args, result, parent):
    tr.counts["adversary.trials"] += result.trials


# (module, function, span name, note) -- patched in every namespace binding it
FUNCTIONS = (
    ("gf2_hash", "lfsr_stream", "gf2_hash.lfsr_stream", _note_lfsr),
    ("gf2_hash", "sample_irreducible", "gf2_hash.sample_irreducible", None),
    ("gf2_hash", "poly_is_irreducible", "gf2_hash.irreducible", _note_irreducible),
    ("gf2_hash", "decode_poly", "gf2_hash.decode_poly", _note_decode),
    ("keymat", "distribute_keys", "keymat.distribute_keys", _note_keys),
    ("keymat", "combine", "keymat.combine", None),
    ("protocol", "sign", "protocol.sign", None),
    ("protocol", "receiver_verify", "protocol.verify", _note_verify),
    ("protocol", "arbitrator_verify", "protocol.verify", _note_verify),
    ("protocol", "arbitrator_close_round", "protocol.close_round", None),
    ("netsim", "run_round", "netsim.run_round", None),
    ("netsim", "_digest", "netsim.digest", None),
    ("adversary", "forgery_blind", "adversary", _note_trials),
    ("adversary", "forgery_known_signature", "adversary", _note_trials),
    ("adversary", "robustness_experiment", "adversary", _note_trials),
    ("adversary", "repudiation_experiment", "adversary", _note_trials),
)

# (module, class, method, span name, note)
METHODS = (
    ("gf2_hash", "LfsrToeplitzHasher", "hash", "gf2_hash.hash", _note_hash),
    ("gf2_hash", "BitString", "to_bytes", "gf2_hash.codec", _note_to_bytes),
    ("gf2_hash", "BitString", "to_hex", "gf2_hash.codec", _note_to_hex),
    ("gf2_hash", "BitString", "from_hex", "gf2_hash.codec", _note_from_hex),
)

# (module, class, method, counter) -- counted on return, no span
COUNTED = (
    ("netsim", "EventQueue", "push", "netsim.queue.pushes"),
    ("netsim", "EventQueue", "advance", "netsim.events"),
)

HASH_PATH = ("gf2_hash.hash", "gf2_hash.lfsr_stream", "gf2_hash.codec")

# per-layer metric -> unit, in report order
UNITS = {
    "gf2_hash.hash.calls": "count",
    "gf2_hash.hash.bits": "bit",
    "gf2_hash.hash.self_s": "s",
    "gf2_hash.lfsr_stream.calls": "count",
    "gf2_hash.lfsr_stream.bits": "bit",
    "gf2_hash.lfsr_stream.self_s": "s",
    "gf2_hash.lfsr_stream.distinct_ratio": "ratio",
    "gf2_hash.codec.calls": "count",
    "gf2_hash.codec.bytes": "B",
    "gf2_hash.codec.self_s": "s",
    "gf2_hash.sample_irreducible.calls": "count",
    "gf2_hash.sample_irreducible.draws": "count",
    "gf2_hash.sample_irreducible.self_s": "s",
    "gf2_hash.sample_irreducible.accept_ratio": "ratio",
    "gf2_hash.irreducible.tests": "count",
    "gf2_hash.irreducible.self_s": "s",
    "gf2_hash.irreducible.cache_hit_ratio": "ratio",
    "gf2_hash.decode_poly.calls": "count",
    "gf2_hash.decode_poly.reject_ratio": "ratio",
    "keymat.distribute_keys.calls": "count",
    "keymat.distribute_keys.self_s": "s",
    "keymat.combine.calls": "count",
    "keymat.combine.self_s": "s",
    "keymat.key_bits": "bit",
    "protocol.sign.calls": "count",
    "protocol.sign.self_s": "s",
    "protocol.verify.calls": "count",
    "protocol.verify.self_s": "s",
    "protocol.verify.accept_ratio": "ratio",
    "protocol.close_round.calls": "count",
    "protocol.close_round.self_s": "s",
    "netsim.run_round.calls": "count",
    "netsim.run_round.self_s": "s",
    "netsim.events": "count",
    "netsim.queue.pushes": "count",
    "netsim.digest.calls": "count",
    "netsim.digest.self_s": "s",
    "adversary.trials": "count",
    "adversary.self_s": "s",
    "bench.hash_path_frac": "ratio",
    "bench.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# counts that must repeat exactly for a fixed seed
COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "bit", "B"))


def _aqds_modules() -> list[ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "aqds" or name.startswith("aqds."))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span recorder for one traced phase over one freshly imported ``aqds``."""

    def __init__(self, aq: ModuleType, window: int) -> None:
        self.aq = aq
        self.window = window
        self.counting = False
        self.op_id = -1
        self.next_id = 1
        # frame: [name, span id, time covered by children]
        self.stack: list[list] = [["bench.outside", 0, 0.0]]
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.lfsr_keys: set = set()
        self.spans: list[tuple] = []
        self.ops = 0
        self.op_time = 0.0
        self.origin = 0.0
        self._restore: list[tuple] = []
        self.bindings: dict[str, list[str]] = {}
        self._cache = aq.gf2_hash._is_irreducible_value
        self._cache_at_start = None
        self._cache_at_end = None

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every layer; raise if any namespace keeps an unwrapped one."""
        modules = _aqds_modules()
        originals = []
        for mod_name, attr, span, note in FUNCTIONS:
            orig = getattr(getattr(self.aq, mod_name), attr)
            wrapper = self._span(span, orig, note)
            originals.append(orig)
            bound = self.bindings.setdefault(f"{mod_name}.{attr}", [])
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapper)
                        bound.append(mod.__name__)
        for mod_name, cls_name, attr, span, note in METHODS:
            self._patch_method(mod_name, cls_name, attr,
                               lambda fn, span=span, note=note: self._span(span, fn, note))
        for mod_name, cls_name, attr, counter in COUNTED:
            self._patch_method(mod_name, cls_name, attr,
                               lambda fn, counter=counter: self._count(counter, fn))
        left = [f"{mod.__name__}.{name}" for mod in modules
                for name, value in vars(mod).items()
                if any(value is orig for orig in originals)]
        if left:
            raise RuntimeError(f"unwrapped layer functions remain: {', '.join(left)}")

    def _patch_method(self, mod_name, cls_name, attr, make_wrapper) -> None:
        cls = getattr(getattr(self.aq, mod_name), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(make_wrapper(raw.__func__))
        else:
            patched = make_wrapper(raw)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, patched)
        self.bindings[f"{mod_name}.{cls_name}.{attr}"] = [f"{cls.__module__}.{cls_name}"]

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def _span(self, name, fn, note):
        stack = self.stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:
                return fn(*args, **kwargs)
            frame = [name, self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[2] += dur
                self.self_s[name] += dur - frame[2]
                if self.counting:
                    self.counts[name + ".calls"] += 1
                    self.spans.append((frame[1], parent[1], self.op_id, name,
                                       start - self.origin, end - self.origin))
            if note is not None and self.counting:
                note(self, args, result, parent[0])
            return result

        return wrapper

    def _count(self, counter, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.counting:
                self.counts[counter] += 1
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span and return its result."""
        self.op_id = op_id
        if op_id == 0:
            self.origin = perf_counter()
            self._cache_at_start = self._cache.cache_info()
        self.counting = op_id < self.window
        root = ["bench.op", self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(root)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            dur = perf_counter() - start
            self.stack.pop()
            self.self_s["bench.op"] += dur - root[2]
            self.op_time += dur
            self.ops += 1
            if self.counting:
                self.spans.append((root[1], 0, op_id, "bench.op",
                                   start - self.origin, start - self.origin + dur))
            if op_id == self.window - 1:
                self._cache_at_end = self._cache.cache_info()
            self.counting = False
        return result

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        c, s = self.counts, self.self_s
        per_op = {name: s[name] / self.ops for name in s}
        hits = self._cache_at_end.hits - self._cache_at_start.hits
        values = {
            "gf2_hash.hash.calls": c["gf2_hash.hash.calls"],
            "gf2_hash.hash.bits": c["gf2_hash.hash.bits"],
            "gf2_hash.hash.self_s": per_op.get("gf2_hash.hash", 0.0),
            "gf2_hash.lfsr_stream.calls": c["gf2_hash.lfsr_stream.calls"],
            "gf2_hash.lfsr_stream.bits": c["gf2_hash.lfsr_stream.bits"],
            "gf2_hash.lfsr_stream.self_s": per_op.get("gf2_hash.lfsr_stream", 0.0),
            "gf2_hash.lfsr_stream.distinct_ratio": _ratio(
                len(self.lfsr_keys), c["gf2_hash.lfsr_stream.calls"]),
            "gf2_hash.codec.calls": c["gf2_hash.codec.calls"],
            "gf2_hash.codec.bytes": c["gf2_hash.codec.bytes"],
            "gf2_hash.codec.self_s": per_op.get("gf2_hash.codec", 0.0),
            "gf2_hash.sample_irreducible.calls": c["gf2_hash.sample_irreducible.calls"],
            "gf2_hash.sample_irreducible.draws": c["gf2_hash.sample_irreducible.draws"],
            "gf2_hash.sample_irreducible.self_s":
                per_op.get("gf2_hash.sample_irreducible", 0.0),
            "gf2_hash.sample_irreducible.accept_ratio": _ratio(
                c["gf2_hash.sample_irreducible.calls"],
                c["gf2_hash.sample_irreducible.draws"]),
            "gf2_hash.irreducible.tests": c["gf2_hash.irreducible.calls"],
            "gf2_hash.irreducible.self_s": per_op.get("gf2_hash.irreducible", 0.0),
            "gf2_hash.irreducible.cache_hit_ratio": _ratio(
                hits, c["gf2_hash.irreducible.calls"]),
            "gf2_hash.decode_poly.calls": c["gf2_hash.decode_poly.calls"],
            "gf2_hash.decode_poly.reject_ratio": _ratio(
                c["gf2_hash.decode_poly.rejects"], c["gf2_hash.decode_poly.calls"]),
            "keymat.distribute_keys.calls": c["keymat.distribute_keys.calls"],
            "keymat.distribute_keys.self_s": per_op.get("keymat.distribute_keys", 0.0),
            "keymat.combine.calls": c["keymat.combine.calls"],
            "keymat.combine.self_s": per_op.get("keymat.combine", 0.0),
            "keymat.key_bits": c["keymat.key_bits"],
            "protocol.sign.calls": c["protocol.sign.calls"],
            "protocol.sign.self_s": per_op.get("protocol.sign", 0.0),
            "protocol.verify.calls": c["protocol.verify.calls"],
            "protocol.verify.self_s": per_op.get("protocol.verify", 0.0),
            "protocol.verify.accept_ratio": _ratio(
                c["protocol.verify.accepts"], c["protocol.verify.calls"]),
            "protocol.close_round.calls": c["protocol.close_round.calls"],
            "protocol.close_round.self_s": per_op.get("protocol.close_round", 0.0),
            "netsim.run_round.calls": c["netsim.run_round.calls"],
            "netsim.run_round.self_s": per_op.get("netsim.run_round", 0.0),
            "netsim.events": c["netsim.events"],
            "netsim.queue.pushes": c["netsim.queue.pushes"],
            "netsim.digest.calls": c["netsim.digest.calls"],
            "netsim.digest.self_s": per_op.get("netsim.digest", 0.0),
            "adversary.trials": c["adversary.trials"],
            "adversary.self_s": per_op.get("adversary", 0.0),
            "bench.hash_path_frac": _ratio(sum(s[name] for name in HASH_PATH),
                                           self.op_time),
            "bench.unattributed_frac": _ratio(s["bench.op"], self.op_time),
            "trace.overhead_frac": overhead_frac,
        }
        assert values.keys() == UNITS.keys()
        return values

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
