"""Brute-force references used only for validation at desk scale.

Two independent oracles: a dense state-vector simulator applying the literal
gate matrices, and a direct enumeration of the path-sum formula
p^(-(n+alpha)/2) * sum over x in F_p^alpha of chi(S(x)).
"""
from __future__ import annotations

import cmath

import numpy as np

from .circuit import FOURIER, PHASE, SUM, Circuit
from .fields import inverse_mod

DENSE_DIM_CAP = 10_000
PATH_ENUM_CAP = 1_000_000


class CapExceeded(Exception):
    """A brute-force guard tripped (dimension or enumeration size)."""


def chi_table(p: int) -> np.ndarray:
    """chi(a) = exp(2*pi*i*a/p) for a = 0..p-1."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def fourier_matrix(p: int) -> np.ndarray:
    s, t = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    return chi_table(p)[(s * t) % p] / np.sqrt(p)


def phase_vector(p: int) -> np.ndarray:
    """Diagonal of the phase gate: chi(t*(t-1)*2^(-1))."""
    t = np.arange(p)
    inv2 = inverse_mod(2, p)
    return chi_table(p)[(t * (t - 1) * inv2) % p]


def _apply_gate(state: np.ndarray, gate, p: int) -> np.ndarray:
    if gate.kind == FOURIER:
        r = gate.register
        state = np.tensordot(fourier_matrix(p), state, axes=([1], [r]))
        return np.moveaxis(state, 0, r)
    if gate.kind == PHASE:
        r = gate.register
        shape = [1] * state.ndim
        shape[r] = p
        return state * phase_vector(p).reshape(shape)
    if gate.kind == SUM:
        # |s, t> -> |s, s+t>: for control value s, shift the target axis by s
        out = np.empty_like(state)
        ctl, tgt = gate.control, gate.target
        for s in range(p):
            sl = [slice(None)] * state.ndim
            sl[ctl] = s
            out[tuple(sl)] = np.roll(state[tuple(sl)],
                                     s, axis=tgt if tgt < ctl else tgt - 1)
        return out
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def dense_state(c: Circuit, a) -> np.ndarray:
    """Evolve |a> through the circuit; axis i of the result is register i."""
    p, n = int(c.modulus), c.n
    if p ** n > DENSE_DIM_CAP:
        raise CapExceeded(f"dense dimension p^n = {p ** n} exceeds {DENSE_DIM_CAP}")
    if len(a) != n:
        raise ValueError(f"input tuple has length {len(a)}, expected {n}")
    state = np.zeros((p,) * n, dtype=complex)
    state[tuple(v % p for v in a)] = 1.0
    for gate in c.gates:
        state = _apply_gate(state, gate, p)
        norm = np.linalg.norm(state)
        if not abs(norm - 1.0) < 1e-10:
            raise RuntimeError(
                f"{gate.kind} gate left the state with norm {norm}, not 1")
    return state


def dense_amplitude(c: Circuit, a, b) -> complex:
    """<b|U|a> from the literal gate matrices."""
    if len(b) != c.n:
        raise ValueError(f"outcome tuple has length {len(b)}, expected {c.n}")
    p = int(c.modulus)
    return complex(dense_state(c, a)[tuple(v % p for v in b)])


def brute_force_path_sum(q, n: int) -> complex:
    """Enumerate all x in F_p^alpha and sum chi(S(x)), times p^(-(n+alpha)/2)."""
    p = int(q.modulus)
    alpha = len(q.eta)
    prefactor = float(p) ** (-(n + alpha) / 2)
    if alpha == 0:
        return prefactor * cmath.exp(2j * cmath.pi * q.zeta / p)
    if p ** alpha > PATH_ENUM_CAP:
        raise CapExceeded(
            f"path enumeration p^alpha = {p ** alpha} exceeds {PATH_ENUM_CAP}")
    # all points of F_p^alpha as rows, lexicographic
    grid = np.indices((p,) * alpha).reshape(alpha, -1).T
    theta = np.asarray(q.theta, dtype=np.int64)
    eta = np.asarray(q.eta, dtype=np.int64)
    s = (np.einsum("xi,ij,xj->x", grid, theta, grid) + grid @ eta + q.zeta) % p
    return prefactor * chi_table(p)[s].sum()
