"""The phase-polynomial extractor every evaluation runs.

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
from extraction through elimination, which then holds only its front
dense, so memory is O(nnz(Theta) + f^2) for a front of f coordinates
rather than O(alpha^2); a dense Theta is built only when
`QuadraticForm.theta` is read.

`_extract_b_free` is that pass: it holds each register's label as a
coefficient row and a constant, and can hand them to a per-gate callback,
through which `--explain` prints the labels (`render_label`) from the same
pass that gives its S(x). `phase_polynomial_direct` folds b into the pass's
result; `amplitude`, tables and `--explain` all take S(x) from it. The
reference labeler and the literal expansion of S(x) from its labels live in
`oracle`, which the tests hold the streaming extractor to. `variable_name`
is the one rule by which path variables print (x1, x2, ...): in wire
labels, in S(x) and in `--explain`'s X/Y/Z partition.
"""
from __future__ import annotations

import operator

import numpy as np

from .circuit import (NON_TERMINAL, PHASE, SUM, Circuit,
                      classify_fourier_gates)
from .fields import OddPrime, inverse_mod
from .quadform import SymmetricEntries, _as_int64, _as_symmetric, _pick_dtype


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


def render_label(row: np.ndarray, constant: int) -> str:
    """The wire label constant + sum of row[l] * x_l, zero terms dropped."""
    nz = np.flatnonzero(row)
    return _render_sum([_term(c, variable_name(l)) for l, c in
                        zip(nz.tolist(), row[nz].tolist())], constant)


class QuadraticForm:
    """S(x) = x^T theta x + eta^T x + zeta over F_p (theta symmetric).

    Theta is held as its nonzero upper-triangle entries, `theta_entries`,
    which `quadform.diagonalize` eliminates holding only its front dense,
    so an evaluation needs O(nnz(Theta) + f^2) memory for a front of f
    coordinates. The constructor also takes a dense symmetric theta. The
    read-only dense `theta` is built from the entries each time it is read.
    The modulus is kept as an `OddPrime`, so one that is not an odd prime
    raises ValueError and one that is not an integer TypeError. eta is kept
    as a read-only int64 copy, one entry per coordinate of theta
    (ValueError otherwise); a theta or eta that does not hold integers
    raises TypeError, and so does a zeta that is not an integer (anything
    `operator.index` accepts).
    """

    __slots__ = ("modulus", "theta_entries", "eta", "zeta")

    def __init__(self, modulus: int, theta, eta: np.ndarray, zeta: int):
        self.modulus = OddPrime(modulus)
        self.theta_entries = (theta if isinstance(theta, SymmetricEntries)
                              else SymmetricEntries.from_dense(
                                  _as_symmetric(theta, self.modulus)))
        self.eta = _as_int64(eta, "eta")
        if self.eta.shape != (self.theta_entries.size,):
            raise ValueError(f"eta must have {self.theta_entries.size} "
                             f"entries, got shape {self.eta.shape}")
        self.zeta = operator.index(zeta)
        self.eta.setflags(write=False)

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


def _extract_b_free(c: Circuit, a,
                    record=None) -> tuple[QuadraticForm, np.ndarray]:
    """One streaming pass over a standard-form circuit for input a: the
    phase polynomial at outcome b = 0 and the final register rows
    (n x (alpha + 1), constant followed by the alpha path-variable
    coefficients).

    The outcome only enters at the terminal Fourier gates, where b_r
    multiplies register r's final label, so those gates add nothing here:
    d eta / d b_r = rows[r, 1:] and d zeta / d b_r = rows[r, 0].

    record, when given, is called after each gate as record(gate, rows,
    const) with the live rows and constants: register r's label is then
    const[r] + sum of rows[r, 1 + l] * x_l (column 0 is filled in only
    after the pass), except after a terminal Fourier gate, which leaves its
    register as it was, though its label is now b_r.

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
        elif kind == PHASE:
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
        elif roles[i] == NON_TERMINAL:
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
        # a terminal Fourier gate adds nothing: b enters in the fold
        if record is not None:
            record(gate, rows, const)
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
    """S(x) of the standard-form circuit c for input a and outcome b: one
    `_extract_b_free` pass, with b folded in once at the end. Identical
    output to `oracle.extract_phase_polynomial` of `oracle.label_circuit`;
    built for large circuits where per-gate label objects would dominate.
    """
    return _fold_outcome(c, *_extract_b_free(c, a), b)


def _fold_outcome(c: Circuit, q0: QuadraticForm, rows: np.ndarray,
                  b) -> QuadraticForm:
    """S(x) at outcome b from the b-free pass's form q0 and final rows."""
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
