"""References used only for validation at desk scale.

Two independent oracles: a dense state-vector simulator applying the literal
gate matrices, and a direct enumeration of the path-sum formula
p^(-(n+alpha)/2) * sum over x in F_p^alpha of chi(S(x)). `check` runs the
second as `path_sum_amplitude`, which takes S(x) from the references below
rather than from the streaming extractor, so an extraction fault shows as
a deviation from both oracles.

Beside them, the literal versions of two pipeline stages, which the tests
hold the production engines to: `label_circuit` runs the labeling procedure
gate by gate, building each wire's `AffineForm`, and
`extract_phase_polynomial` expands S(x) from those labels; the streaming
`pathsum._extract_b_free` must give the same S(x), and `--explain` the same
label lines. `diagonalize_reference` composes the one-coordinate peel
`split_step`. The Gaussian-elimination `gf_rank` cross-checks ranks
independently of both. No production module imports this one.
"""
from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .circuit import (FOURIER, NON_TERMINAL, PHASE, SUM, CapExceeded,
                      Circuit, classify_fourier_gates,
                      normalize_to_standard_form)
from .fields import inverse_mod
from .pathsum import (QuadraticForm, _check_tuples, _render_sum, _term,
                      variable_name)
from .quadform import DiagonalizationResult, _as_symmetric, _pick_dtype

DENSE_DIM_CAP = 10_000
# entries of the dense p x p Fourier gate: 16 MB of complex128
DENSE_GATE_CAP = 1 << 20
PATH_ENUM_CAP = 1_000_000


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# the tables and gate arrays are built once per p and shared, so read-only
@functools.lru_cache(maxsize=16)
def chi_table(p: int) -> np.ndarray:
    """chi(a) = exp(2*pi*i*a/p) for a = 0..p-1."""
    return _read_only(np.exp(2j * np.pi * np.arange(p) / p))


@functools.lru_cache(maxsize=16)
def fourier_matrix(p: int) -> np.ndarray:
    t = np.arange(p)
    return _read_only(chi_table(p)[np.multiply.outer(t, t) % p] / np.sqrt(p))


@functools.lru_cache(maxsize=16)
def phase_vector(p: int) -> np.ndarray:
    """Diagonal of the phase gate: chi(t*(t-1)*2^(-1))."""
    t = np.arange(p)
    inv2 = inverse_mod(2, p)
    return _read_only(chi_table(p)[(t * (t - 1) * inv2) % p])


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
    # SUM, |s, t> -> |s, s+t>: for control value s, shift the target axis
    # by s
    out = np.empty_like(state)
    ctl, tgt = gate.control, gate.target
    for s in range(p):
        sl = [slice(None)] * state.ndim
        sl[ctl] = s
        out[tuple(sl)] = np.roll(state[tuple(sl)],
                                 s, axis=tgt if tgt < ctl else tgt - 1)
    return out


def dense_state(c: Circuit, a) -> np.ndarray:
    """Evolve |a> through the circuit; axis i of the result is register i."""
    p, n = int(c.modulus), c.n
    if p ** n > DENSE_DIM_CAP:
        raise CapExceeded(f"dense dimension p^n = {p}^{n} exceeds {DENSE_DIM_CAP}")
    if p * p > DENSE_GATE_CAP:
        raise CapExceeded(f"dense gate size p^2 = {p * p} exceeds {DENSE_GATE_CAP}")
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
            f"path enumeration p^alpha = {p}^{alpha} exceeds {PATH_ENUM_CAP}")
    # all points of F_p^alpha as rows, lexicographic
    grid = np.indices((p,) * alpha).reshape(alpha, -1).T
    theta = np.asarray(q.theta, dtype=np.int64)
    eta = np.asarray(q.eta, dtype=np.int64)
    s = (np.einsum("xi,ij,xj->x", grid, theta, grid) + grid @ eta + q.zeta) % p
    return prefactor * chi_table(p)[s].sum()


@dataclass(frozen=True)
class AffineForm:
    """constant + sum of coeff * x_var over F_p; zero coefficients dropped."""

    modulus: int
    constant: int
    coeffs: tuple[tuple[int, int], ...] = ()

    @classmethod
    def build(cls, modulus: int, constant: int, coeffs=()) -> "AffineForm":
        items = {}
        for var, coeff in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            coeff = coeff % modulus
            if coeff:
                items[var] = coeff
        return cls(modulus, constant % modulus, tuple(sorted(items.items())))

    @classmethod
    def const(cls, modulus: int, value: int) -> "AffineForm":
        return cls(modulus, value % modulus)

    @classmethod
    def variable(cls, modulus: int, var: int) -> "AffineForm":
        return cls(modulus, 0, ((var, 1),))

    def __add__(self, other) -> "AffineForm":
        if isinstance(other, int):
            return AffineForm(self.modulus, (self.constant + other) % self.modulus,
                              self.coeffs)
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        merged = dict(self.coeffs)
        for var, coeff in other.coeffs:
            merged[var] = merged.get(var, 0) + coeff
        return AffineForm.build(self.modulus,
                                self.constant + other.constant, merged)

    def render(self) -> str:
        parts = [_term(c, variable_name(v)) for v, c in self.coeffs]
        return _render_sum(parts, self.constant)


@dataclass(frozen=True)
class LabeledCircuit:
    """A standard-form circuit with a wire label per register per time step.

    snapshots[0] holds the input labels; snapshots[i+1] the labels after gate
    i. Gate i's in/out labels are read off the two adjacent snapshots.
    """

    circuit: Circuit
    alpha: int
    snapshots: tuple[tuple[AffineForm, ...], ...]

    def gate_inputs(self, i: int) -> tuple[AffineForm, ...]:
        before = self.snapshots[i]
        return tuple(before[r] for r in self.circuit.gates[i].registers)

    def gate_outputs(self, i: int) -> tuple[AffineForm, ...]:
        after = self.snapshots[i + 1]
        return tuple(after[r] for r in self.circuit.gates[i].registers)


def label_circuit(c: Circuit, a, b) -> LabeledCircuit:
    """Run the labeling procedure: inputs a_i; R and bare wires propagate;
    SUM maps (s, t) to (s, s+t); the l-th non-terminal Fourier gate outputs
    x_l; terminal Fourier gates output the constants b_i."""
    roles, alpha = classify_fourier_gates(c)
    a, b = _check_tuples(c, a, b)
    p = int(c.modulus)
    labels = [AffineForm.const(p, v) for v in a]
    snapshots = [tuple(labels)]
    next_var = 0
    for i, gate in enumerate(c.gates):
        if gate.kind == FOURIER:
            if roles[i] == NON_TERMINAL:
                labels[gate.register] = AffineForm.variable(p, next_var)
                next_var += 1
            else:
                labels[gate.register] = AffineForm.const(p, b[gate.register])
        elif gate.kind == SUM:
            labels[gate.target] = labels[gate.control] + labels[gate.target]
        # phase gates propagate the label unchanged
        snapshots.append(tuple(labels))
    return LabeledCircuit(c, alpha, tuple(snapshots))


def _accumulate_product(theta, eta, u: AffineForm, v: AffineForm,
                        scale: int, inv2: int, p: int) -> int:
    """Add scale*u*v to the accumulators; returns the constant contribution.

    Cross terms x_i x_j (i != j) are split evenly between theta[i,j] and
    theta[j,i] via 2^(-1); squares land on the diagonal whole. Every term
    is reduced mod p before it is added: unreduced terms reach (p - 1)^2,
    and enough of them on one entry wrap int64.
    """
    for i, ci in u.coeffs:
        w = (scale * ci) % p
        for j, cj in v.coeffs:
            if i == j:
                theta[i, i] += w * cj % p
            else:
                half = (inv2 * w * cj) % p
                theta[i, j] += half
                theta[j, i] += half
        eta[i] += w * v.constant % p
    w = (scale * u.constant) % p
    for j, cj in v.coeffs:
        eta[j] += w * cj % p
    return w * v.constant


def extract_phase_polynomial(lc: LabeledCircuit) -> QuadraticForm:
    """Expand Eq.-style gate terms from the labeled circuit into (Theta, eta,
    zeta). Products of affine labels are at most quadratic by construction.
    A (p, alpha) that `amplitude` refuses is refused here too, with the same
    ValueError, before int64 sums of residues that large can wrap."""
    c = lc.circuit
    p = int(c.modulus)
    inv2 = inverse_mod(2, p)
    alpha = lc.alpha
    _pick_dtype(alpha, p)
    theta = np.zeros((alpha, alpha), dtype=np.int64)
    eta = np.zeros(alpha, dtype=np.int64)
    zeta = 0
    for i, gate in enumerate(c.gates):
        if gate.kind == FOURIER:
            u = lc.gate_inputs(i)[0]
            v = lc.gate_outputs(i)[0]
            zeta += _accumulate_product(theta, eta, u, v, 1, inv2, p)
        elif gate.kind == PHASE:
            u = lc.gate_inputs(i)[0]
            zeta += _accumulate_product(theta, eta, u, u + (-1), inv2, inv2, p)
    return QuadraticForm(p, theta % p, eta % p, zeta % p)


def path_sum_amplitude(c: Circuit, a, b) -> complex:
    """<b|U|a> by enumerating the paths of the standard form of c, with S(x)
    from the reference labeler and `extract_phase_polynomial`, so that no
    step of the closed form's pipeline after normalizing is shared."""
    cn = normalize_to_standard_form(c)
    q = extract_phase_polynomial(label_circuit(cn, a, b))
    return brute_force_path_sum(q, cn.n)


def split_step(A, p: int) -> tuple[np.ndarray, int, np.ndarray]:
    """One peel: returns (P, a, B) with P invertible over F_p and
    P^T A P = [a] (+) B, where B is symmetric of dimension one less.

    For A = 0 this is (I, 0, 0). Otherwise the pivot is the first nonzero
    diagonal entry, or, failing that, the row-major first nonzero entry
    A[I,J] combined into the diagonal via c = e_I + e_J (so a = 2*A[I,J]).
    """
    M = _as_symmetric(A, p)
    k = M.shape[0]
    if not M.any():
        return np.eye(k, dtype=np.int64), 0, np.zeros((k - 1, k - 1),
                                                      dtype=np.int64)
    diag_support = np.flatnonzero(M.diagonal())
    c = np.zeros(k, dtype=np.int64)
    if diag_support.size:
        I = int(diag_support[0])
        a = int(M[I, I])
        c[I] = 1
    else:
        I, J = np.argwhere(M)[0]
        a = int(2 * M[I, J]) % p
        c[I] = c[J] = 1
    pivot = int(np.flatnonzero(c)[0])  # equals I in both cases
    C = np.zeros((k, k), dtype=np.int64)
    C[:, 0] = c
    keep = [m for m in range(k) if m != pivot]
    for col, m in enumerate(keep, start=1):
        C[m, col] = 1
    G = (C.T @ M @ C) % p
    b = G[0]
    ainv = inverse_mod(a, p)
    D = np.eye(k, dtype=np.int64)
    D[0, 1:] = (-ainv * b[1:]) % p
    P = (C @ D) % p
    # Polarization of the completed-square remainder q(y) = y^T G y restricted
    # to y_0 = -a^(-1) * b[1:] . y[1:]: its coefficient matrix. a^(-1) b is
    # reduced first, so no product exceeds p^2 and int64 stays exact up to
    # every modulus the engine accepts.
    Q = (G[1:, 1:] - np.outer(ainv * b[1:] % p, b[1:])) % p
    inv2 = inverse_mod(2, p)
    B = (inv2 * (Q + Q.T)) % p
    return P, a % p, B


def diagonalize_reference(theta, p: int) -> DiagonalizationResult:
    """Literal composition of split_step: peel the top-left coordinate off
    repeatedly, padding each step's P with an identity block. Kept as the
    ground truth the blocked engine is tested against."""
    M = _as_symmetric(theta, p)
    alpha = M.shape[0]
    L = np.eye(alpha, dtype=np.int64)
    diagonal = np.zeros(alpha, dtype=np.int64)
    for t in range(alpha):
        if alpha - t == 1:
            diagonal[t] = M[0, 0] % p
            break
        P, a, B = split_step(M, p)
        diagonal[t] = a
        padded = np.eye(alpha, dtype=np.int64)
        padded[t:, t:] = P
        L = (L @ padded) % p
        M = B
    rank = int(np.count_nonzero(diagonal))
    return DiagonalizationResult(L, diagonal, rank, None)


def gf_rank(A, p: int) -> int:
    """Rank over F_p by plain Gaussian elimination. Independent of the
    congruence machinery above; used to cross-check `rank`."""
    M = (np.asarray(A, dtype=np.int64) % p).copy()
    if M.ndim != 2:
        raise ValueError("need a matrix")
    rows, cols = M.shape
    r = 0
    for col in range(cols):
        support = np.flatnonzero(M[r:, col])
        if not support.size:
            continue
        pivot_row = r + int(support[0])
        if pivot_row != r:
            M[[r, pivot_row]] = M[[pivot_row, r]]
        inv = inverse_mod(int(M[r, col]), p)
        M[r] = (M[r] * inv) % p
        below = M[r + 1:, col]
        M[r + 1:] = (M[r + 1:] - np.outer(below, M[r])) % p
        r += 1
        if r == rows:
            break
    return r
