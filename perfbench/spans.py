"""Spans and counts recorded around the public functions of ``rhpwn``.

``Tracer.install`` replaces each target function, in every ``rhpwn`` module
that binds it, with a wrapper that appends ``[name, start, end, parent]`` to
an in-memory list; ``uninstall`` puts the originals back. Counts come from
the wrapped calls' return values, never from changes to the package.
Functions called millions of times per run (``lie.structure``, the
``CScalar`` operators) are left unwrapped; ``micro`` measures those.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Span of a calibration chunk (``calib.Gauge``): left out of every figure.
CHUNK = "calib.chunk"

LAYERS = ("cli", "dsl", "lie", "sandwich", "wick", "stepfn", "scalars", "oracle")

# Deepest delta order the workloads produce: p + q with n, N <= 7.
MAX_DELTA_ORDER = 12


def _terms_out(name):
    def count(counts, args, kwargs, result):
        counts[name + ".terms_out"] += len(result.terms)

    return count


def _commutator(counts, args, kwargs, result):
    counts["sandwich.commutator.terms_out"] += len(result.terms)
    for term in result.terms:
        counts[f"sandwich.delta_order.L{term.delta_L}"] += 1


def _reduce(counts, args, kwargs, result):
    counts["sandwich.reduce.dropped_singular"] += result.dropped_singular


def _jacobi(counts, args, kwargs, result):
    counts["lie.jacobi_scan.triples"] += result.triples_checked


def _parse(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["dsl.parse.bytes"] += len(text.encode("utf-8"))


# "module.function" -> counter fed with each call's arguments and result.
TARGETS = {
    "sandwich.verify_theorem": None,
    "sandwich.commutator": _commutator,
    "sandwich.multiply": _terms_out("sandwich.multiply"),
    "sandwich.eq_expr": None,
    "sandwich.reduce": _reduce,
    "lie.bracket": _terms_out("lie.bracket"),
    "lie.star_compat_check": None,
    "lie.jacobi_scan": _jacobi,
    "lie.closure_check": None,
    "oracle.check_eq1": None,
    "oracle.check_exchange_seed": None,
    "oracle.build": None,
    "dsl.parse": _parse,
    "dsl.evaluate": None,
    "dsl.render": None,
    "wick.monomial_commutator": _terms_out("wick.monomial_commutator"),
    "wick.renormalize": None,
    "wick.smear_bracket": None,
    "stepfn.step_from_records": None,
    "stepfn.fn_product": None,
    "scalars.theta": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._cache_misses: dict[str, tuple] = {}

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        counts = self.counts

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import rhpwn.cli  # noqa: F401  loads every module the CLI uses

        modules = [m for n, m in sys.modules.items() if n == "rhpwn" or n.startswith("rhpwn.")]
        for target, count in TARGETS.items():
            module_name, attr = target.split(".")
            original = getattr(importlib.import_module("rhpwn." + module_name), attr)
            traced = self._wrap(target, original, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
                        self._patches.append((module, name, original))
            if hasattr(original, "cache_info"):
                self._cache_misses[target] = (original, original.cache_info().misses)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def metrics(self, verdict_s: float, outcomes: list[dict]) -> dict[str, float]:
        """Per-layer figures of one traced session.

        ``<fn>.s`` and ``<layer>.self_s`` are self times: a span's duration
        minus its child spans, so the layers' self times add up to the time
        spent inside requests. Calibration chunks count as children but in no
        layer, and inclusive times leave them out too. ``trace.unattributed_s``
        is the rest of ``verdict_s``, the requests' time less the chunks.
        """
        covered = [0.0] * len(self.spans)
        paused = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
            if name == CHUNK:
                while parent >= 0:
                    paused[parent] += end - start
                    parent = self.spans[parent][3]
        own: Counter = Counter()
        inclusive: Counter = Counter()
        for (name, start, end, _), child, chunks in zip(self.spans, covered, paused):
            if name != CHUNK:
                own[name] += end - start - child
                inclusive[name] += end - start - chunks
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, seconds in own.items():
            out[name.split(".")[0] + ".self_s"] += seconds
        for target in TARGETS:
            out[target + ".s"] = own[target]
            out[target + ".calls"] = self.counts[target + ".calls"]
        for order in range(MAX_DELTA_ORDER + 1):
            out[f"sandwich.delta_order.L{order}"] = 0
        for name in ("sandwich.multiply", "sandwich.commutator", "lie.bracket", "wick.monomial_commutator"):
            out[name + ".terms_out"] = 0
        out["sandwich.reduce.dropped_singular"] = 0
        out.update(self.counts)
        for target, (original, start) in self._cache_misses.items():
            out[target + ".misses"] = original.cache_info().misses - start
        multiplied = out["sandwich.multiply.terms_out"]
        out["sandwich.cancel_ratio"] = out["sandwich.commutator.terms_out"] / multiplied if multiplied else 0.0
        scan_s = inclusive["lie.jacobi_scan"]
        out["lie.jacobi_scan.triples_per_s"] = self.counts["lie.jacobi_scan.triples"] / scan_s if scan_s else 0.0
        parse_s = inclusive["dsl.parse"]
        out["dsl.parse.bytes_per_s"] = self.counts["dsl.parse.bytes"] / parse_s if parse_s else 0.0
        out["cli.output_bytes"] = sum(o["bytes"] for o in outcomes)
        out["cli.exit2"] = sum(1 for o in outcomes if o["exit"] == 2)
        out["cli.uncaught"] = sum(1 for o in outcomes if o["uncaught"])
        out["trace.unattributed_s"] = verdict_s - sum(own.values())
        return out
