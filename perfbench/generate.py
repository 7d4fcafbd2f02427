"""Seeded workload inputs: circuit text and residue tuples.

The gate mix is the one the test suite's random circuits use: each gate is
F, R or SUM with equal probability, on uniformly chosen registers, and SUM
takes an ordered pair of distinct registers. Circuits are emitted as text so
that parsing is part of every timed operation. Every stream is keyed by
(seed, workload, purpose, index), so an input never depends on how many
operations an earlier part of the run managed to time.
"""
from __future__ import annotations

import numpy as np

WORKLOAD_IDS = {"large": 1, "wide": 2, "corpus": 3, "cli": 4}

# stream purposes
WARMUP = 0
TIMED = 1
MIX = 2


def rng_for(seed: int, workload: str, purpose: int, index: int = 0):
    return np.random.default_rng((seed, WORKLOAD_IDS[workload], purpose,
                                  index))


def circuit_text(rng, p: int, n: int, n_gates: int) -> str:
    """A random circuit in the text format, uniform over F/R/SUM."""
    kinds = rng.integers(0, 3, size=n_gates)
    if n == 1:
        # no SUM on a single register: redraw between F and R
        kinds = np.where(kinds == 2, rng.integers(0, 2, size=n_gates), kinds)
    regs = rng.integers(0, n, size=n_gates)
    # target = control + uniform offset in [1, n) is uniform over the others
    offsets = rng.integers(1, max(n, 2), size=n_gates)
    lines = [f"p {p}", f"n {n}"]
    for k, r, off in zip(kinds.tolist(), regs.tolist(), offsets.tolist()):
        if k == 0:
            lines.append(f"F {r}")
        elif k == 1:
            lines.append(f"R {r}")
        else:
            lines.append(f"SUM {r} {(r + off) % n}")
    return "\n".join(lines) + "\n"


def residues(rng, p: int, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, p, size=n))


# the acceptance corpus draws p from {3, 5, 7}, n from 1..3 and 0..25 gates
CORPUS_CLASSES = tuple((p, n) for p in (3, 5, 7) for n in (1, 2, 3))
CORPUS_MAX_GATES = 25


def corpus_circuit(rng, p: int, n: int) -> str:
    return circuit_text(rng, p, n, int(rng.integers(0, CORPUS_MAX_GATES + 1)))
