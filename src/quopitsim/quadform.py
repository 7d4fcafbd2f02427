"""Congruence diagonalization of symmetric matrices over F_p (p an odd prime).

`diagonalize` computes L invertible with L^T A L = diag(lambda) by panel-
blocked rank-1 updates, so the trailing matrix is touched O(alpha/panel)
times instead of O(alpha) times. Its one-peel-at-a-time ground truth,
`oracle.diagonalize_reference`, composes `oracle.split_step` literally; the
tests require the same L and the same diagonal, entry for entry.

Pivot rule: use the first nonzero diagonal entry (lowest index); if the
diagonal is all zero but A is not, take the row-major first nonzero
off-diagonal entry A[I,J] and fold coordinate J into I (x_I' = x_I + x_J),
which puts 2*A[I,J] on the diagonal.

`diagonalize` never forms L while it eliminates. It applies each column
operation to a matrix of right-hand sides instead, so it returns
mu = L^T eta for every column of eta at once; L itself, when asked for, is
read off the identity carried as extra right-hand-side columns,
L = (L^T I)^T.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import inverse_mod


def _as_symmetric(A, p: int) -> np.ndarray:
    M = np.asarray(A, dtype=np.int64) % p
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"need a square matrix, got shape {M.shape}")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix is not symmetric mod p")
    return M


@dataclass(frozen=True)
class DiagonalizationResult:
    """L^T A L = diag(diagonal); rank counts the nonzero diagonal entries.

    mu = L^T eta has eta's shape, (alpha,) or (alpha, m), and is None when
    no eta was supplied. L is None unless it was asked for; callers that
    only need L^T applied to known vectors pass them as eta instead.
    """

    L: np.ndarray | None
    diagonal: np.ndarray
    rank: int
    mu: np.ndarray | None

    def __post_init__(self):
        self.diagonal.setflags(write=False)
        if self.L is not None:
            self.L.setflags(write=False)
        if self.mu is not None:
            self.mu.setflags(write=False)


def _pick_dtype(alpha: int, p: int, panel: int):
    # Lazy mod keeps trailing entries below p + (alpha + panel) * (p - 1)^2;
    # float32 is exact under 2^24 and float64 under 2^53; past that no float
    # type is exact, so the form is refused. A right-hand-side entry stays
    # under the same bound: it loses less than (p - 1)^2 per pivot and a
    # fold restarts it below 2p.
    bound = p + (alpha + panel) * (p - 1) ** 2
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise ValueError(f"p = {p} with alpha = {alpha} is beyond exact float64 "
                     f"elimination: lazy bound {bound} >= 2^53")


def diagonalize(theta, p: int, want_l: bool = False, eta=None,
                panel: int = 96, *,
                assume_canonical: bool = False) -> DiagonalizationResult:
    """Full congruence diagonalization with panel-deferred updates.

    Pivot selection follows oracle.split_step exactly (first nonzero
    diagonal entry, else row-major first off-diagonal fold), so the output
    matches oracle.diagonalize_reference entry for entry. The trailing
    matrix only receives one matmul per `panel` pivots; the running diagonal
    and the current pivot row are patched from the panel buffers so pivot
    decisions never see stale values. Arithmetic stays exact: entries are
    integers carried in floats small enough to be exact, reduced mod p only
    when read; a (p, alpha) too large for float64 raises ValueError.

    eta, of shape (alpha,) or (alpha, m), is a set of right-hand sides: row i
    belongs to coordinate i and follows every column operation on Theta, so
    the result's mu = L^T eta keeps eta's shape. want_l appends the identity
    as alpha more right-hand-side columns and returns L = (L^T I)^T.

    assume_canonical certifies that theta is already symmetric with entries
    in [0, p), skipping one validation pass over the matrix; the extraction
    code guarantees this shape by construction.

    All elimination work is confined to a sliding window [t, hi): pivot t's
    update row vanishes at and beyond the running maximum hi of the per-row
    support bounds seen so far, because rank-one updates never create fill
    to the right of the rows that produced them. Matrices from circuits are
    close to banded, so the window stays much narrower than the matrix.
    """
    if assume_canonical:
        M = np.asarray(theta)
    else:
        M = _as_symmetric(theta, p)
    alpha = M.shape[0]
    eta_shape = None if eta is None else np.shape(eta)
    if eta is not None and (len(eta_shape) not in (1, 2)
                            or eta_shape[0] != alpha):
        raise ValueError(f"eta must have {alpha} rows, got shape {eta_shape}")
    if alpha == 0:
        L = np.eye(0, dtype=np.int64) if want_l else None
        mu = None if eta is None else np.zeros(eta_shape, dtype=np.int64)
        return DiagonalizationResult(L, np.zeros(0, dtype=np.int64), 0, mu)

    dtype = _pick_dtype(alpha, p, panel)
    A = M.astype(dtype)
    d = A.diagonal().copy()
    lam = np.zeros(alpha, dtype=np.int64)
    # ext[i] bounds row i's support: A[i, ext[i]:] == 0 (at least i+1 so the
    # window always reaches past the diagonal)
    nzmask = M != 0
    ext = np.where(nzmask.any(axis=1),
                   alpha - np.argmax(nzmask[:, ::-1], axis=1), 0)
    ext = np.maximum(ext, np.arange(1, alpha + 1))
    # panel buffers, one row per pending pivot: Vp[j] = wv_j, Wp[j] = row_j
    Vp = np.zeros((panel, alpha), dtype=dtype)
    Wp = np.zeros((panel, alpha), dtype=dtype)
    # right-hand sides: eta's m columns, then the identity when L is wanted
    m = 0 if eta is None else (eta_shape[1] if len(eta_shape) == 2 else 1)
    rhs = np.zeros((alpha, m + (alpha if want_l else 0)), dtype=dtype)
    if eta is not None:
        rhs[:, :m] = (np.asarray(eta, dtype=np.int64) % p).reshape(alpha, m)
    if want_l:
        np.fill_diagonal(rhs[:, m:], 1)

    t = 0
    j = 0  # pending panel rows
    hi = 0  # window end; grows monotonically

    def flush():
        nonlocal j
        if j:
            np.subtract(A[t:hi, t:hi], Vp[:j, t:hi].T @ Wp[:j, t:hi],
                        out=A[t:hi, t:hi])
            j = 0

    def rotate_to_front(q: int):
        # cycle coordinates t..q one step so q lands at t; support inside
        # the rotated range can land anywhere up to q, hence the ext clamp.
        # Rows and columns before t are finished, and those of t..q are
        # zero from max(hi, ext) on, so only [t, end) is moved.
        if q == t:
            return
        perm = np.concatenate(([q], np.arange(t, q)))
        end = max(hi, q + 1, int(ext[t:q + 1].max()))
        A[t:q + 1, t:end] = A[perm, t:end]
        A[t:end, t:q + 1] = A[t:end, perm]
        d[t:q + 1] = d[perm]
        ext[t:q + 1] = ext[perm]
        np.maximum(ext[t:q + 1], q + 1, out=ext[t:q + 1])
        if j:
            Vp[:j, t:q + 1] = Vp[:j, perm]
            Wp[:j, t:q + 1] = Wp[:j, perm]
        rhs[t:q + 1] = rhs[perm]

    while t < alpha:
        hits = np.flatnonzero(np.mod(d[t:t + 64], p))
        if not hits.size and t + 64 < alpha:
            hits = np.flatnonzero(np.mod(d[t + 64:], p))
            if hits.size:
                hits = hits + 64
        if hits.size:
            rotate_to_front(t + int(hits[0]))
        else:
            # diagonal exhausted: reduce the trailing block and look for an
            # off-diagonal pivot to fold in. Entries beyond the window were
            # never touched, so the whole trailing block is valid here.
            flush()
            np.mod(A[t:, t:], p, out=A[t:, t:])
            trailing = A[t:, t:]
            nz = np.argwhere(trailing)
            if not nz.size:
                break  # remaining coordinates never enter the form
            I, J = (int(v) + t for v in nz[0])
            A[t:, I] += A[t:, J]
            A[I, t:] += A[J, t:]
            d[t:] = trailing.diagonal()
            ext[I] = max(int(ext[I]), int(ext[J]), hi)
            rhs[I] = rhs[I] % p + rhs[J] % p
            rotate_to_front(I)

        hi = max(hi, t + 1, int(ext[t]))
        a = int(d[t]) % p
        lam[t] = a
        ainv = inverse_mod(a, p)
        row = A[t, t + 1:hi].copy()
        if j:
            row -= Vp[:j, t] @ Wp[:j, t + 1:hi]
        np.mod(row, p, out=row)
        wv = ainv * row
        np.mod(wv, p, out=wv)
        d[t + 1:hi] -= wv * row
        Vp[j, t + 1:hi] = wv
        Wp[j, t + 1:hi] = row
        Vp[j, t] = 0
        Wp[j, t] = 0
        Vp[j, hi:] = 0
        Wp[j, hi:] = 0
        rhs[t + 1:hi] -= wv[:, None] * (rhs[t] % p)
        t += 1
        j += 1
        if j == panel:
            flush()

    rank = int(np.count_nonzero(lam))
    np.mod(rhs, p, out=rhs)
    rhs = rhs.astype(np.int64)
    L = rhs[:, m:].T if want_l else None
    mu = None if eta is None else rhs[:, :m].reshape(eta_shape)
    return DiagonalizationResult(L, lam, rank, mu)
