"""Microbenchmarks of calls too frequent to wrap in spans.

Each figure is the median over batches of nanoseconds per call, loop
included, on a fixed operand set:

- real scalars: the coefficients of the sandwich products that
  ``verify-w`` builds from ``gen_to_word`` on the acceptance grid;
- complex scalars: the complex literals the interactive generator writes;
- word keys: the terms of those products' commutators.
"""

from __future__ import annotations

import operator
import random
import statistics
import time
from fractions import Fraction

from rhpwn.scalars import CScalar
from rhpwn.sandwich import commutator, gen_to_word, multiply
from rhpwn.stepfn import fn_symbol

BATCHES = 7
MIN_BATCH_S = 0.02

# A fixed sample of acceptance-grid tuples (n, k, N, K).
_GRID_SAMPLE = 48


def _grid_words():
    rng = random.Random(0)
    g, f = fn_symbol("g"), fn_symbol("f")
    for _ in range(_GRID_SAMPLE):
        n, N = rng.randint(2, 7), rng.randint(2, 7)
        k, K = rng.randint(-4, 4), rng.randint(-4, 4)
        yield gen_to_word(n, k, "t", g), gen_to_word(N, K, "s", f)


def _ns_per_call(op, operands) -> float:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in operands:
                op(*args)
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        reps *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in operands:
                op(*args)
        samples.append((time.perf_counter() - t0) / (reps * len(operands)))
    return statistics.median(samples) * 1e9


def _pairs(values):
    return list(zip(values, values[1:]))


def _word_key_hash(term):
    return hash(term.word_key())


def run(job: dict) -> dict[str, float]:
    words = list(_grid_words())
    real = [t.coeff for a, b in words for t in multiply(a, b).terms]
    terms = [(t,) for a, b in words for t in commutator(a, b).terms]
    cplx = [CScalar(Fraction(a, b), Fraction(c, d)) for a, b, c, d in job["complex"]]
    return {
        "scalars.add_real_ns": _ns_per_call(operator.add, _pairs(real)),
        "scalars.mul_real_ns": _ns_per_call(operator.mul, _pairs(real)),
        "scalars.add_complex_ns": _ns_per_call(operator.add, _pairs(cplx)),
        "scalars.mul_complex_ns": _ns_per_call(operator.mul, _pairs(cplx)),
        "sandwich.word_key_hash_ns": _ns_per_call(_word_key_hash, terms),
    }
