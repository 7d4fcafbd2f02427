"""Wire labeling and the phase-polynomial extractor every evaluation runs.

Every wire of a standard-form circuit carries a label that is affine in the
path variables x_l (one per non-terminal Fourier gate, numbered in file
order). The phase polynomial

    S(x) = sum over Fourier gates of in(F)*out(F)
         + sum over phase gates of 2^(-1)*in(R)*(in(R)-1)

is quadratic, S(x) = x^T Theta x + eta^T x + zeta, with Theta symmetric and
independent of the input/outcome tuples (a, b). The outcome b_r only
multiplies register r's final label, so eta and zeta are affine in b with
the final register rows of one b-free streaming pass as coefficients.
Theta is held as its nonzero upper-triangle entries (`SymmetricEntries`)
from extraction through elimination, which then works in a sliding dense
window, so memory is O(nnz(Theta) + w^2) rather than O(alpha^2); a dense
Theta is built only when `QuadraticForm.theta` is read.

`phase_polynomial_direct` streams that pass; `amplitude`, tables and
`--explain` all take S(x) from it. `label_circuit` builds the per-wire
labels that `--explain` prints. The literal expansion of S(x) from those
labels, `oracle.extract_phase_polynomial`, is the reference the tests hold
the streaming extractor to. `variable_name` is the one rule by which path
variables print (x1, x2, ...): in wire labels, in S(x) and in
`--explain`'s X/Y/Z partition.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .circuit import (FOURIER, NON_TERMINAL, SUM, Circuit,
                      classify_fourier_gates)
from .fields import inverse_mod
from .quadform import SymmetricEntries, _as_symmetric, _pick_dtype


def variable_name(l: int) -> str:
    """The printed name of path variable l: x1 for l = 0, x2 for l = 1, ..."""
    return f"x{l + 1}"


def _term(coeff: int, monomial: str) -> str:
    """coeff * monomial, with a unit coefficient left unwritten."""
    return monomial if coeff == 1 else f"{coeff}*{monomial}"


def _render_sum(parts: list[str], constant: int) -> str:
    """The terms joined by " + ", then the constant when it is nonzero or
    there is no term."""
    if constant or not parts:
        parts.append(str(constant))
    return " + ".join(parts)


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


class QuadraticForm:
    """S(x) = x^T theta x + eta^T x + zeta over F_p (theta symmetric).

    Theta is held as its nonzero upper-triangle entries, `theta_entries`,
    which `quadform.diagonalize` eliminates in a sliding dense window, so an
    evaluation needs O(nnz(Theta) + w^2) memory for a window of w
    coordinates. The constructor also takes a dense symmetric theta. The
    read-only dense `theta` is built from the entries each time it is read.
    """

    __slots__ = ("modulus", "theta_entries", "eta", "zeta")

    def __init__(self, modulus: int, theta, eta: np.ndarray, zeta: int):
        self.modulus = modulus
        self.theta_entries = (theta if isinstance(theta, SymmetricEntries)
                              else SymmetricEntries.from_dense(
                                  _as_symmetric(theta, int(modulus))))
        self.eta = eta
        self.zeta = zeta
        eta.setflags(write=False)

    @property
    def theta(self) -> np.ndarray:
        theta = np.asarray(self.theta_entries)
        theta.setflags(write=False)
        return theta

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (self.modulus == other.modulus and self.zeta == other.zeta
                and self.theta_entries == other.theta_entries
                and np.array_equal(self.eta, other.eta))


def _check_tuples(c: Circuit, *tuples) -> list[tuple[int, ...]]:
    if any(len(t) != c.n for t in tuples):
        got = "/".join(str(len(t)) for t in tuples)
        raise ValueError(f"input/outcome tuples must have length {c.n}, got {got}")
    p = int(c.modulus)
    # operator.index refuses floats rather than truncating them
    return [tuple(operator.index(v) % p for v in t) for t in tuples]


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


def _extract_b_free(c: Circuit, a) -> tuple[QuadraticForm, np.ndarray]:
    """One streaming pass over a standard-form circuit for input a: the
    phase polynomial at outcome b = 0 and the final register rows
    (n x (alpha + 1), constant followed by the alpha path-variable
    coefficients).

    The outcome only enters at the terminal Fourier gates, where b_r
    multiplies register r's final label, so those gates add nothing here:
    d eta / d b_r = rows[r, 1:] and d zeta / d b_r = rows[r, 0].

    Theta is never dense: each gate's term is kept as the support and
    coefficients of its register row, and the terms are coalesced into
    upper-triangle entries after the pass.

    A (p, alpha) that `diagonalize` refuses raises its ValueError here, so
    every accepted p with alpha >= 1 is below 9.7 million: a product of two
    residues stays below 2^47, and the int64 sums of them cannot wrap.
    """
    roles, alpha = classify_fourier_gates(c)
    (a,) = _check_tuples(c, a)
    p = int(c.modulus)
    _pick_dtype(alpha, p)
    inv2 = inverse_mod(2, p)
    rows = np.zeros((c.n, alpha + 1), dtype=np.int64)
    const = list(a)
    eta = np.zeros(alpha, dtype=np.int64)
    zeta = 0
    next_var = 0
    # Theta's terms: a phase gate on coefficient row v adds 2^(-1) v v^T,
    # kept as (support, v[support]); the Fourier gate that starts x_l adds
    # 2^(-1) v[s] at (s, l) for s in the support, kept as
    # (support, v[support], l)
    squares = []
    crosses = []
    # register r's coefficients sit in columns lo[r]:width of its row: those
    # of x_l with l >= next_var are identically zero, and a register only
    # regains a variable older than its last Fourier gate through a SUM
    lo = [1] * c.n
    width = 1
    for i, gate in enumerate(c.gates):
        kind = gate.kind
        if kind == SUM:
            ctl, tgt = gate.control, gate.target
            start = min(lo[ctl], lo[tgt])
            seg = rows[tgt, start:width]
            np.add(seg, rows[ctl, start:width], out=seg)
            seg %= p
            lo[tgt] = start
            const[tgt] = (const[tgt] + const[ctl]) % p
        elif kind == FOURIER:
            if roles[i] != NON_TERMINAL:
                continue
            r = gate.register
            start = lo[r]
            active = rows[r, start:width]
            nz = np.flatnonzero(active)
            l = next_var
            next_var += 1
            if nz.size:
                crosses.append((nz + (start - 1), active[nz], l))
            eta[l] += const[r]
            const[r] = 0
            active[:] = 0
            rows[r, 1 + l] = 1
            lo[r] = 1 + l
            width = 1 + next_var
        else:  # phase gate
            r = gate.register
            start = lo[r]
            active = rows[r, start:width]
            c0 = const[r]
            nz = np.flatnonzero(active)
            if nz.size:
                cs = active[nz]
                support = nz + (start - 1)
                squares.append((support, cs))
                # each term reduced first: unreduced terms of up to
                # (p - 1)^2 would wrap int64 over many phase gates
                eta[support] += ((2 * c0 - 1) * inv2 % p) * cs % p
                lo[r] = start + int(nz[0])
            zeta += inv2 * c0 * (c0 - 1)
    rows[:, 0] = const
    eta %= p
    theta = _theta_entries(alpha, p, inv2, squares, crosses)
    return QuadraticForm(p, theta, eta, zeta % p), rows


# square terms expanded at once; bounds the coalescing temporaries
TERM_BATCH = 1 << 16


def _theta_entries(alpha: int, p: int, inv2: int, squares,
                   crosses) -> SymmetricEntries:
    """Coalesce the extractor's Theta terms into upper-triangle entries.

    The Fourier gates' cross terms are coalesced first. Square terms can
    land on the same positions (in `F 0, SUM 0 1, F 1, SUM 0 1, R 1` the
    cross term of `F 1` and the square of `R 1` both reach (x1, x2)), and
    every merge coalesces them. The square terms are expanded and coalesced
    about TERM_BATCH at a time, and the batches are merged whenever they
    outgrow what has been merged so far, so the temporaries stay within a
    small multiple of nnz(Theta)."""
    empty = np.zeros(0, dtype=np.int64)
    support = [s for s, _, _ in crosses]
    merged = SymmetricEntries.coalesce(
        alpha, p, np.concatenate([empty, *support]),
        np.repeat([l for _, _, l in crosses],
                  [s.size for s in support]).astype(np.int64),
        inv2 * np.concatenate([empty, *(v for _, v, _ in crosses)]))
    batches, pending = [], 0
    start, terms = 0, 0
    for k, (support, _) in enumerate(squares):
        terms += support.size * (support.size + 1) // 2
        if terms < TERM_BATCH and k < len(squares) - 1:
            continue
        batches.append(_square_terms(alpha, p, inv2, squares[start:k + 1]))
        pending += batches[-1].vals.size
        start, terms = k + 1, 0
        if pending > merged.vals.size:
            merged = _merge(alpha, p, [merged, *batches])
            batches, pending = [], 0
    return _merge(alpha, p, [merged, *batches]) if batches else merged


def _merge(alpha: int, p: int, parts) -> SymmetricEntries:
    return SymmetricEntries.coalesce(
        alpha, p, *(np.concatenate([getattr(S, f) for S in parts])
                    for f in ("rows", "cols", "vals")))


def _square_terms(alpha: int, p: int, inv2: int, squares) -> SymmetricEntries:
    """The upper triangles of 2^(-1) v v^T over a batch of (support,
    v[support]) pairs, coalesced. The supports are sorted, so element e of a
    support pairs with itself and every later element of the same one."""
    sizes = np.array([s.size for s, _ in squares])
    idx = np.concatenate([s for s, _ in squares])
    coeffs = np.concatenate([v for _, v in squares])
    ends = np.repeat(np.cumsum(sizes), sizes)
    counts = ends - np.arange(idx.size)
    first = np.repeat(np.arange(idx.size), counts)
    second = first + np.arange(first.size) - np.repeat(
        np.cumsum(counts) - counts, counts)
    vals = (inv2 * coeffs[first]) % p * coeffs[second] % p
    return SymmetricEntries.coalesce(alpha, p, idx[first], idx[second], vals)


def phase_polynomial_direct(c: Circuit, a, b) -> QuadraticForm:
    """Streaming equivalent of label_circuit + oracle.extract_phase_polynomial.

    Keeps one dense coefficient row per register (constant followed by the
    alpha path-variable coefficients), folds eta and zeta in during the
    pass, and keeps each gate's Theta term, coalesced into entries after
    the pass; the outcome b is folded in once at the end.
    Identical output to the reference pair; built for large circuits where
    per-gate label objects would dominate.
    """
    q0, rows = _extract_b_free(c, a)
    (b,) = _check_tuples(c, b)
    p = q0.modulus
    eta, bv = q0.eta, np.array(b, dtype=np.int64)
    # a product of two residues is below 2^47 for every p the extraction
    # accepts, so a sum over 2^15 registers cannot wrap int64
    for r0 in range(0, c.n, 1 << 15):
        r1 = r0 + (1 << 15)
        eta = (eta + rows[r0:r1, 1:].T @ bv[r0:r1]) % p
    zeta = q0.zeta + sum(bv * c0 for bv, c0 in zip(b, rows[:, 0].tolist()))
    return QuadraticForm(p, q0.theta_entries, eta, zeta % p)


def render_phase_polynomial(q: QuadraticForm) -> str:
    """Human-readable S(x) with terms in canonical order: squares and cross
    terms by index, then linear terms, then the constant."""
    p = q.modulus
    S = q.theta_entries
    # a cross term's coefficient is theta[i,j] + theta[j,i]; the terms print
    # in row-major order of the upper triangle
    order = np.lexsort((S.cols, S.rows))
    rows, cols = S.rows[order], S.cols[order]
    coeffs = np.where(rows == cols, S.vals[order], 2 * S.vals[order] % p)
    parts = [_term(c, f"{variable_name(i)}^2" if i == j
                   else f"{variable_name(i)}*{variable_name(j)}")
             for i, j, c in zip(rows.tolist(), cols.tolist(), coeffs.tolist())]
    parts += [_term(c, variable_name(i))
              for i, c in enumerate(q.eta.tolist()) if c]
    return "S(x) = " + _render_sum(parts, q.zeta)


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
