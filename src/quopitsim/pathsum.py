"""Wire labeling and phase-polynomial extraction.

Every wire of a standard-form circuit carries a label that is affine in the
path variables x_l (one per non-terminal Fourier gate, numbered in file
order). The phase polynomial

    S(x) = sum over Fourier gates of in(F)*out(F)
         + sum over phase gates of 2^(-1)*in(R)*(in(R)-1)

is quadratic, S(x) = x^T Theta x + eta^T x + zeta, with Theta symmetric and
independent of the input/outcome tuples (a, b). The outcome b_r only
multiplies register r's final label, so eta and zeta are affine in b with
the final register rows of one b-free streaming pass as coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (FOURIER, NON_TERMINAL, PHASE, SUM, Circuit,
                      CircuitParseError, classify_fourier_gates)
from .fields import inverse_mod


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

    def scale(self, factor: int) -> "AffineForm":
        return AffineForm.build(self.modulus, self.constant * factor,
                                ((v, c * factor) for v, c in self.coeffs))

    def render(self, namer=None) -> str:
        namer = namer or (lambda l: f"x{l + 1}")
        parts = []
        for var, coeff in self.coeffs:
            parts.append(namer(var) if coeff == 1 else f"{coeff}*{namer(var)}")
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


@dataclass(frozen=True)
class LabeledCircuit:
    """A standard-form circuit with a wire label per register per time step.

    snapshots[0] holds the input labels; snapshots[i+1] the labels after gate
    i. Gate i's in/out labels are read off the two adjacent snapshots.
    """

    circuit: Circuit
    a: tuple[int, ...]
    b: tuple[int, ...]
    alpha: int
    snapshots: tuple[tuple[AffineForm, ...], ...]

    def gate_inputs(self, i: int) -> tuple[AffineForm, ...]:
        before = self.snapshots[i]
        return tuple(before[r] for r in self.circuit.gates[i].registers)

    def gate_outputs(self, i: int) -> tuple[AffineForm, ...]:
        after = self.snapshots[i + 1]
        return tuple(after[r] for r in self.circuit.gates[i].registers)


@dataclass(eq=False, frozen=True)
class QuadraticForm:
    """S(x) = x^T theta x + eta^T x + zeta over F_p (theta symmetric)."""

    modulus: int
    theta: np.ndarray
    eta: np.ndarray
    zeta: int

    def __post_init__(self):
        self.theta.setflags(write=False)
        self.eta.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (self.modulus == other.modulus and self.zeta == other.zeta
                and np.array_equal(self.theta, other.theta)
                and np.array_equal(self.eta, other.eta))


def _check_tuples(c: Circuit, *tuples) -> list[tuple[int, ...]]:
    if any(len(t) != c.n for t in tuples):
        got = "/".join(str(len(t)) for t in tuples)
        raise ValueError(f"input/outcome tuples must have length {c.n}, got {got}")
    p = int(c.modulus)
    return [tuple(int(v) % p for v in t) for t in tuples]


def label_circuit(c: Circuit, a, b) -> LabeledCircuit:
    """Run the labeling procedure: inputs a_i; R and bare wires propagate;
    SUM maps (s, t) to (s, s+t); the l-th non-terminal Fourier gate outputs
    x_l; terminal Fourier gates output the constants b_i."""
    if not c.standard_form:
        raise CircuitParseError("labeling needs a standard-form circuit")
    a, b = _check_tuples(c, a, b)
    p = int(c.modulus)
    roles, alpha = classify_fourier_gates(c)
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
    return LabeledCircuit(c, a, b, alpha, tuple(snapshots))


def _accumulate_product(theta, eta, u: AffineForm, v: AffineForm,
                        scale: int, inv2: int, p: int) -> int:
    """Add scale*u*v to the accumulators; returns the constant contribution.

    Cross terms x_i x_j (i != j) are split evenly between theta[i,j] and
    theta[j,i] via 2^(-1); squares land on the diagonal whole.
    """
    for i, ci in u.coeffs:
        w = (scale * ci) % p
        for j, cj in v.coeffs:
            if i == j:
                theta[i, i] += w * cj
            else:
                half = (inv2 * w * cj) % p
                theta[i, j] += half
                theta[j, i] += half
        eta[i] += w * v.constant
    w = (scale * u.constant) % p
    for j, cj in v.coeffs:
        eta[j] += w * cj
    return w * v.constant


def extract_phase_polynomial(lc: LabeledCircuit) -> QuadraticForm:
    """Expand Eq.-style gate terms from the labeled circuit into (Theta, eta,
    zeta). Products of affine labels are at most quadratic by construction."""
    c = lc.circuit
    p = int(c.modulus)
    inv2 = inverse_mod(2, p)
    alpha = lc.alpha
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


def _extract_b_free(c: Circuit, a) -> tuple[QuadraticForm, np.ndarray]:
    """One streaming pass over a standard-form circuit for input a: the
    phase polynomial at outcome b = 0 and the final register rows
    (n x (alpha + 1), constant followed by the alpha path-variable
    coefficients).

    The outcome only enters at the terminal Fourier gates, where b_r
    multiplies register r's final label, so those gates add nothing here:
    d eta / d b_r = rows[r, 1:] and d zeta / d b_r = rows[r, 0].
    """
    if not c.standard_form:
        raise CircuitParseError("extraction needs a standard-form circuit")
    (a,) = _check_tuples(c, a)
    p = int(c.modulus)
    inv2 = inverse_mod(2, p)
    roles, alpha = classify_fourier_gates(c)
    rows = np.zeros((c.n, alpha + 1), dtype=np.int64)
    rows[:, 0] = a
    theta = np.zeros((alpha, alpha), dtype=np.int64)
    eta = np.zeros(alpha, dtype=np.int64)
    zeta = 0
    next_var = 0
    # coefficients of x_l with l >= next_var are identically zero, so every
    # row operation can stop at the current variable count
    width = 1
    for i, gate in enumerate(c.gates):
        kind = gate.kind
        if kind == SUM:
            tgt = rows[gate.target, :width]
            np.add(tgt, rows[gate.control, :width], out=tgt)
            tgt %= p
        elif kind == FOURIER:
            if roles[i] != NON_TERMINAL:
                continue
            row = rows[gate.register]
            active = row[1:width]
            support = np.flatnonzero(active)
            l = next_var
            next_var += 1
            if support.size:
                half = (inv2 * active[support]) % p
                theta[support, l] += half
                theta[l, support] += half
            eta[l] += row[0]
            row[:width] = 0
            row[1 + l] = 1
            width = 1 + next_var
        else:  # phase gate
            row = rows[gate.register]
            active = row[1:width]
            c0 = int(row[0])
            support = np.flatnonzero(active)
            if support.size:
                cs = active[support]
                half = (inv2 * cs) % p
                theta[np.ix_(support, support)] += np.outer(half, cs)
                eta[support] += ((2 * c0 - 1) * inv2 % p) * cs
            zeta += inv2 * c0 * (c0 - 1)
    theta %= p
    eta %= p
    return QuadraticForm(p, theta, eta, zeta % p), rows


def phase_polynomial_direct(c: Circuit, a, b) -> QuadraticForm:
    """Streaming equivalent of label_circuit + extract_phase_polynomial.

    Keeps one dense coefficient row per register (constant followed by the
    alpha path-variable coefficients) and folds each gate's term into the
    accumulators on the fly; the outcome b is folded in once after the pass.
    Identical output to the reference pair; built for large circuits where
    per-gate label objects would dominate.
    """
    q0, rows = _extract_b_free(c, a)
    _, b = _check_tuples(c, a, b)
    p = q0.modulus
    eta = (q0.eta + rows[:, 1:].T @ np.array(b, dtype=np.int64)) % p
    zeta = q0.zeta + sum(bv * c0 for bv, c0 in zip(b, rows[:, 0].tolist()))
    return QuadraticForm(p, q0.theta, eta, zeta % p)


def render_phase_polynomial(q: QuadraticForm, namer=None) -> str:
    """Human-readable S(x) with terms in canonical order: squares and cross
    terms by index, then linear terms, then the constant."""
    namer = namer or (lambda l: f"x{l + 1}")
    p = q.modulus
    alpha = len(q.eta)
    parts = []
    for i in range(alpha):
        for j in range(i, alpha):
            coeff = int(q.theta[i, j]) if i == j \
                else (int(q.theta[i, j]) + int(q.theta[j, i])) % p
            if not coeff:
                continue
            term = f"{namer(i)}^2" if i == j else f"{namer(i)}*{namer(j)}"
            parts.append(term if coeff == 1 else f"{coeff}*{term}")
    for i in range(alpha):
        coeff = int(q.eta[i])
        if coeff:
            parts.append(namer(i) if coeff == 1 else f"{coeff}*{namer(i)}")
    if q.zeta or not parts:
        parts.append(str(q.zeta))
    return "S(x) = " + " + ".join(parts)


def render_labels(lc: LabeledCircuit) -> list[str]:
    """Per-gate in/out label lines for debug output."""
    lines = ["inputs: " + ", ".join(
        f"reg{r} = {form.render()}" for r, form in enumerate(lc.snapshots[0]))]
    for i, gate in enumerate(lc.circuit.gates):
        head = " ".join([gate.kind, *map(str, gate.registers)])
        ins = ", ".join(f.render() for f in lc.gate_inputs(i))
        outs = ", ".join(f.render() for f in lc.gate_outputs(i))
        if len(gate.registers) == 2:
            ins, outs = f"({ins})", f"({outs})"
        lines.append(f"gate {i + 1} ({head}): in {ins} -> out {outs}")
    lines.append("outputs: " + ", ".join(
        f"reg{r} = {form.render()}" for r, form in enumerate(lc.snapshots[-1])))
    return lines
