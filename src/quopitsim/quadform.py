"""Congruence diagonalization of symmetric matrices over F_p (p an odd prime).

A symmetric matrix is held as its nonzeros: `SymmetricEntries` keeps the
upper-triangle entries sorted by column. `diagonalize` computes L
invertible with L^T A L = diag(lambda) by rank-1 updates deferred in panels
of PANEL pivots, so the dense block is touched O(alpha/PANEL) times
instead of O(alpha) times. The panel width and the flush block size are
module constants, not parameters. The one-peel-at-a-time ground truth,
`oracle.diagonalize_reference`, composes `oracle.split_step` literally; the
tests require the same L and the same diagonal, entry for entry.

Pivot rule: use the first nonzero diagonal entry (lowest index); if the
diagonal is all zero but A is not, take the row-major first nonzero
off-diagonal entry A[I,J] and fold coordinate J into I (x_I' = x_I + x_J),
which puts 2*A[I,J] on the diagonal.

Only the front is ever dense (Irons' frontal method, IJNME 2, 1970): the
coordinates not yet eliminated that the row of A of some eliminated
coordinate reaches. A rank-one update only touches entries between
coordinates of the pivot's row, so every entry with a coordinate outside
the front is still A's own. A coordinate enters the front when a pivot's
row of A reaches it, or when it becomes the pivot, and loads its entries of
A with the coordinates already there; it leaves when it is eliminated, and
its slot is reused. The block is indexed by slot, so it keeps its full
square, and the panel buffers are indexed by slot too. Memory is
O(nnz(A) + f(f + w) + PANEL(f + w)) for a front of at most f coordinates
and w right-hand-side columns (below), plus the alpha x w int64 result.
The front depends on the order the coordinates are eliminated in;
`evaluator.amplitude` sorts them by the end of their row of A first
(`_row_ends`), which keeps the front of a circuit's Theta narrow.

Each pivot row, and the diagonal when the next pivot is sought, is reduced
mod p through int64 rather than by a float mod; the casts are exact, since
every value is an integer below 2^53 in magnitude. Only a fold reduces the
block itself, in place.

`diagonalize` never forms L while it eliminates. It applies each column
operation to a set of right-hand sides instead, so it returns mu = L^T eta
for every column of eta at once; L itself, when asked for, is read off the
identity carried as extra right-hand-side columns, L = (L^T I)^T. A front
coordinate's right-hand sides are the leading w columns of its row of the
block, ahead of its slot columns (Irons eliminates the right-hand side in
the front with the matrix), so the panel flush and the pivot-row patch
update them exactly as they update A; a coordinate's row is loaded when it
enters the front, and its finished right-hand sides are written once, off
its reduced pivot row, into the int64 result in output order.
"""
from __future__ import annotations

import contextlib
import functools
import operator
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import OddPrime, inverse_mod

# pivots per panel: the trailing block receives one flush per PANEL pivots
PANEL = 96
# entries per row block of a panel flush; bounds its temporary
FLUSH_ENTRIES = 1 << 20
# flush products with fewer multiply-adds than this run on one BLAS thread:
# waking a second thread that has gone idle costs about 10 ms, far more than
# it saves on such a product
BLAS_SERIAL_MACS = 50_000_000


@functools.cache
def _openblas():
    # (get, set) of the thread count of the OpenBLAS bundled with numpy's
    # wheel, or None when that library or its symbols are not there
    import ctypes

    root = Path(np.__file__).parent
    for path in (*root.parent.glob("numpy.libs/libscipy_openblas*"),
                 *root.glob(".dylibs/libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextlib.contextmanager
def _blas_threads():
    """Yield fit(macs), which sets the BLAS thread count for a product of
    that many multiply-adds: one thread below BLAS_SERIAL_MACS, the caller's
    count otherwise. The caller's count is restored on the way out.

    The count is global to the process, so it is only changed while the
    caller is the process's one Python thread: with another thread about,
    whose products would run on the count set here, every product keeps the
    caller's count."""
    api = _openblas()
    if api is None or threading.active_count() > 1:
        yield lambda macs: None
        return
    get, put = api
    caller = now = get()

    def fit(macs: int):
        nonlocal now
        # checked per product: a thread started during a flush ends the
        # switching at the next product
        serial = (macs < BLAS_SERIAL_MACS
                  and threading.active_count() == 1)
        want = 1 if serial else caller
        if want != now:
            put(want)
            now = want
    try:
        yield fit
    finally:
        if now != caller:
            put(caller)


def _as_int64(A, name: str) -> np.ndarray:
    """A new int64 array of A's entries; TypeError unless their dtype casts
    to int64 safely: a cast would truncate floats and wrap uint64."""
    A = np.asarray(A)
    if not np.can_cast(A.dtype, np.int64):
        raise TypeError(f"{name} must hold integers, got dtype {A.dtype}")
    return A.astype(np.int64)


def _as_symmetric(A, p: int) -> np.ndarray:
    M = _as_int64(A, "theta") % p
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"need a square matrix, got shape {M.shape}")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix is not symmetric mod p")
    return M


class SymmetricEntries:
    """A symmetric size x size matrix over F_p held as its nonzero
    upper-triangle entries (rows[k] <= cols[k], vals[k] in [1, p)), sorted
    by column and then by row, each position once. The constructor takes
    rows, cols and vals through `np.asarray`, so lists do too, and marks
    the arrays it keeps read-only: an array passed in is kept as it is, so
    the caller's own array becomes read-only. It trusts their layout;
    `diagonalize` checks it. size must be an integer (anything
    `operator.index` accepts, TypeError otherwise) of at least 0, and
    rows, cols and vals must be 1-D (ValueError, naming the size or the
    shape). `np.asarray` gives the dense int64 matrix."""

    __slots__ = ("size", "rows", "cols", "vals")

    def __init__(self, size: int, rows, cols, vals):
        self.size = operator.index(size)
        if self.size < 0:
            raise ValueError(f"size must be at least 0, got {self.size}")
        arrays = tuple(map(np.asarray, (rows, cols, vals)))
        for name, arr in zip(("rows", "cols", "vals"), arrays):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
        for arr in arrays:
            arr.setflags(write=False)
        self.rows, self.cols, self.vals = arrays

    @classmethod
    def from_dense(cls, M: np.ndarray) -> "SymmetricEntries":
        """M symmetric with entries in [0, p)."""
        # the transpose's row-major nonzeros are M's in column-major order
        cols, rows = np.nonzero(M.T)
        upper = rows <= cols
        rows, cols = rows[upper], cols[upper]
        return cls(M.shape[0], rows, cols, M[rows, cols].astype(np.int64))

    @classmethod
    def coalesce(cls, size: int, p: int, rows, cols,
                 vals) -> "SymmetricEntries":
        """Upper-triangle terms (rows <= cols), repeats allowed, summed mod
        p."""
        key = cols * size + rows
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        total = np.add.reduceat(vals[order], starts) % p
        keep = total != 0
        key = key[starts[keep]]
        return cls(size, key % size, key // size, total[keep])

    def permuted(self, order) -> "SymmetricEntries":
        """P^T A P for the permutation matrix with P[order[k], k] = 1:
        position k holds coordinate order[k]. order must be an integer
        permutation of range(size) (ValueError)."""
        order = np.asarray(order)
        if (order.dtype.kind not in "iu"
                or not np.array_equal(np.sort(order), np.arange(self.size))):
            raise ValueError(
                f"order must be a permutation of range({self.size})")
        inv = np.empty(self.size, dtype=np.int64)
        inv[order] = np.arange(self.size)
        r, c = inv[self.rows], inv[self.cols]
        rows, cols = np.minimum(r, c), np.maximum(r, c)
        # distinct positions stay distinct: only the sort is left to redo
        k = np.argsort(cols * self.size + rows)
        return SymmetricEntries(self.size, rows[k], cols[k], self.vals[k])

    def _row_entries(self):
        """(ptr, cols, vals) of every row, both triangles: row i's entries
        lie at ptr[i]:ptr[i + 1], in no particular order within the row."""
        off = self.rows != self.cols
        r = np.concatenate((self.rows, self.cols[off]))
        order = np.argsort(r, kind="stable")
        c = np.concatenate((self.cols, self.rows[off]))[order]
        v = np.concatenate((self.vals, self.vals[off]))[order]
        return np.searchsorted(r[order], np.arange(self.size + 1)), c, v

    def dense_rows(self):
        """Yield the dense int64 rows in order through one reused buffer,
        which each row overwrites: read a row before asking for the next.
        The dense matrix is never built."""
        ptr, c, v = self._row_entries()
        row = np.zeros(self.size, dtype=np.int64)
        for i in range(self.size):
            k = slice(ptr[i], ptr[i + 1])
            row[c[k]] = v[k]
            yield row
            row[c[k]] = 0

    def __array__(self, dtype=None, copy=None):
        M = np.zeros((self.size, self.size), dtype=np.int64)
        M[self.rows, self.cols] = self.vals
        M[self.cols, self.rows] = self.vals
        return M if dtype is None else M.astype(dtype)

    def __eq__(self, other):
        if not isinstance(other, SymmetricEntries):
            return NotImplemented
        return (self.size == other.size
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))


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
        for arr in (self.L, self.diagonal, self.mu):
            if arr is not None:
                arr.setflags(write=False)


def _check_entries(S: SymmetricEntries, p: int) -> None:
    # the layout `diagonalize` relies on, which `SymmetricEntries` does not
    # check when it is built by hand: a breach can give a wrong answer
    rows, cols, vals = S.rows, S.cols, S.vals
    for arr in (rows, cols, vals):
        if not np.can_cast(arr.dtype, np.int64):
            raise TypeError(f"theta must hold integers, got dtype {arr.dtype}")
    if not (len(rows) == len(cols) == len(vals)
            and np.all(np.diff(cols * S.size + rows) > 0)
            and np.all((0 <= rows) & (rows <= cols) & (cols < S.size))
            and np.all((1 <= vals) & (vals < p))):
        raise ValueError(
            "theta's entries must be upper-triangle positions in range, "
            "sorted by column and then row, each once, with values in "
            f"[1, {p})")


def _pick_dtype(alpha: int, p: int):
    # Lazy mod keeps trailing entries below p + (alpha + PANEL) * (p - 1)^2;
    # float32 is exact under 2^24 and float64 under 2^53; past that no float
    # type is exact, so the form is refused. A right-hand-side entry is a
    # block entry under the same bound (Dumas, Giorgi & Pernet's delayed
    # reduction): it loses less than (p - 1)^2 per pivot, and is reduced
    # when its coordinate pivots or a fold reduces the block, after which a
    # fold leaves it below 2p. An empty form does no arithmetic at all.
    bound = p + (alpha + PANEL) * (p - 1) ** 2 if alpha else 0
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise ValueError(f"p = {p} with alpha = {alpha} is beyond exact float64 "
                     f"elimination: lazy bound {bound} >= 2^53")


def _row_ends(size: int, rows, cols) -> np.ndarray:
    # ext[i] bounds row i's support: A[i, ext[i]:] == 0, and ext[i] > i
    ext = np.arange(1, size + 1)
    np.maximum.at(ext, rows, cols + 1)
    return ext


def diagonalize(theta, p: int, want_l: bool = False,
                eta=None) -> DiagonalizationResult:
    """Full congruence diagonalization with panel-deferred updates.

    p must be an integer (TypeError) that is an odd prime (ValueError).
    theta is a SymmetricEntries laid out as its class states, which is
    checked (ValueError, or TypeError for arrays that do not hold
    integers), or a dense symmetric matrix of integers (TypeError for any
    other dtype, as for eta), which is turned into its entries on entry.
    Pivot selection follows oracle.split_step exactly (first nonzero
    diagonal entry by position, else the row-major first off-diagonal
    fold), so the output matches oracle.diagonalize_reference entry for
    entry: lambda, mu and L come out in pivot order, and the coordinates
    never eliminated follow in their order. theta is eliminated in the
    order given.

    Only the front is held dense: the coordinates that some eliminated
    coordinate's row of theta reaches and that are not yet eliminated
    themselves (Irons' frontal method). A coordinate enters it when a
    pivot's row reaches it, or when it becomes the pivot, and loads its
    entries of theta with the coordinates already there; it leaves when it
    is eliminated, and its slot is reused. The block is indexed by slot,
    in no particular order, so it keeps its full square. The trailing
    matrix only receives one flush per PANEL pivots; the running diagonal
    and the current pivot row are patched from the panel buffers, indexed
    by slot too, so pivot decisions never see stale values. A free slot is
    masked out of every pivot row, and a slot taken within a panel has its
    panel columns cleared. When the diagonal is exhausted, the fold
    searches the front, reduced mod p, and the entries of theta with a
    coordinate outside it. Arithmetic stays exact: entries are integers
    carried in floats small enough to be exact, reduced mod p only when
    read (the pivot row and the diagonal scan through int64, the block in
    place before a fold); a (p, alpha) too large for float64 raises
    ValueError. Memory is O(nnz(theta) + f(f + w) + PANEL(f + w)) for a
    front of at most f coordinates and w right-hand-side columns, plus the
    alpha x w int64 result: the block grows by half again, and only when
    the front outgrows it.

    eta, of shape (alpha,) or (alpha, m), is a set of right-hand sides: row i
    belongs to coordinate i and follows every column operation on Theta, so
    the result's mu = L^T eta keeps eta's shape. want_l appends the identity
    as alpha more right-hand-side columns and returns L = (L^T I)^T, so
    w = m, or m + alpha with want_l. While its coordinate is in the front,
    a row of right-hand sides is the leading w columns of the coordinate's
    row of the block, ahead of its slot columns, so it takes the panel
    updates of the block; it is written once into the int64 result, in
    output order, when the coordinate pivots, or at the end if it never
    does. Each column is transformed on its own, so the diagonal and mu
    are the same with or without want_l; `--explain` relies on that to
    print L from the same run that gives its answer.

    Each flush product of fewer than BLAS_SERIAL_MACS multiply-adds runs on
    one thread of numpy's bundled OpenBLAS, when its thread count can be
    set; each flush restores the caller's count on its way out. That count
    is global to the process, so it is changed only while the caller is the
    process's one Python thread: in a process with other Python threads,
    every product runs on the caller's count. A BLAS product that some
    non-Python thread runs during a single-threaded flush may run on one
    thread.
    """
    p = int(OddPrime(p))
    if isinstance(theta, SymmetricEntries):
        S = theta
        _check_entries(S, p)
    else:
        S = SymmetricEntries.from_dense(_as_symmetric(theta, p))
    alpha = S.size
    eta_shape = None if eta is None else np.shape(eta)
    if eta is not None and (len(eta_shape) not in (1, 2)
                            or eta_shape[0] != alpha):
        raise ValueError(f"eta must have {alpha} rows, got shape {eta_shape}")

    dtype = _pick_dtype(alpha, p)
    ptr, nbr, val = S._row_entries()
    val = val.astype(dtype)
    # the coordinates whose diagonal entry in theta is nonzero, in order;
    # those before lead[q] have entered the front
    lead, q = S.rows[S.rows == S.cols].tolist(), 0
    lam = np.zeros(alpha, dtype=np.int64)
    # slot[k] holds coordinate k while it is in the front; -1 before it
    # enters and -2 once it is eliminated
    slot = np.full(alpha, -1)
    # per slot: its coordinate (the last one it held, once free), its
    # running diagonal entry (zero once free) and whether it is free
    coord = np.zeros(alpha, dtype=np.int64)
    d = np.zeros(alpha, dtype=dtype)
    free = np.zeros(alpha, dtype=bool)
    spare = []  # the free slots
    n = 0  # slots ever taken: the front lies in [0, n)
    # right-hand sides, one row per coordinate: eta's m columns, then the
    # identity when L is wanted. A row is loaded into the block when its
    # coordinate enters the front and written out once, in output order,
    # when it pivots
    m = 0 if eta is None else (eta_shape[1] if len(eta_shape) == 2 else 1)
    w = m + (alpha if want_l else 0)
    e = np.zeros((alpha, 0), dtype=np.int64) if eta is None else (
        _as_int64(eta, "eta") % p).reshape(alpha, m)
    out = np.zeros((alpha, w), dtype=np.int64)
    # the block: slot s's row holds its coordinate's right-hand sides in
    # columns [0, w), then its entries with every slot's coordinate in
    # columns w + [0, n), so one update rule serves both
    A = np.zeros((0, w), dtype=dtype)
    # the panel buffers, one row per pending pivot: pivot j writes
    # Vp[j] = wv_j over the slots and Wp[j] = row_j laid out as the block's
    # rows, zero at free slots
    Vp, Wp = np.zeros((PANEL, 0), dtype), np.zeros((PANEL, w), dtype)
    j = 0  # pending panel rows

    def enter(c: int):
        # coordinate c, outside the front, takes a free slot or a new one
        # and loads its right-hand sides and its entries of theta with the
        # coordinates in the front, itself included. No update has reached
        # an entry with a coordinate outside the front, and a coordinate
        # outside it meets no eliminated one
        nonlocal A, Vp, Wp, n
        if spare:
            s = spare.pop()
        else:
            s, n = n, n + 1
            if n > A.shape[0]:
                g = min(alpha, max(n, A.shape[0] * 3 // 2)) - A.shape[0]
                A = np.pad(A, ((0, g), (0, g)))
                Vp, Wp = (np.pad(P, ((0, 0), (0, g))) for P in (Vp, Wp))
        slot[c], coord[s], free[s] = s, c, False
        A[s, :w + n] = 0
        A[s, :m] = e[c]
        if want_l:
            A[s, m + c] = 1
        A[:n, w + s] = 0
        # a slot taken within a panel must not carry the pending pivots'
        # values of the coordinate that held it
        Vp[:j, s] = 0
        Wp[:j, w + s] = 0
        y = slot[nbr[ptr[c]:ptr[c + 1]]]
        inside = y >= 0
        A[s, w + y[inside]] = A[y[inside], w + s] = (
            val[ptr[c]:ptr[c + 1]][inside])
        d[s] = A[s, w + s]

    def reach(k: int):
        # bring the coordinates that k's row of theta reaches into the
        # front, k itself included if its diagonal entry is nonzero
        row = nbr[ptr[k]:ptr[k + 1]]
        for c in row[slot[row] == -1].tolist():
            enter(c)

    def row_blocks():
        # the front's rows in blocks of about FLUSH_ENTRIES entries
        step = max(1, FLUSH_ENTRIES // max(w + n, 1))
        for r0 in range(0, n, step):
            yield r0, min(n, r0 + step)

    def flush():
        nonlocal j
        if j:
            with _blas_threads() as fit_threads:
                for r0, r1 in row_blocks():
                    block = A[r0:r1, :w + n]
                    fit_threads(j * (r1 - r0) * (w + n))
                    np.subtract(block, Vp[:j, r0:r1].T @ Wp[:j, :w + n],
                                out=block)
            j = 0

    def fold_pair():
        # reduce the front mod p and return the row-major first nonzero of
        # the trailing matrix, or None: the least (row, column) among the
        # front's nonzeros between occupied slots and the entries of theta
        # with a coordinate outside the front. A symmetric matrix's first
        # nonzero row has no nonzero left of its diagonal, so that is the
        # pair (I, J) with I < J
        for r0, r1 in row_blocks():
            np.mod(A[r0:r1, :w + n], p, out=A[r0:r1, :w + n])
        x, y = np.nonzero(A[:n, w:w + n])
        held = ~(free[x] | free[y])
        out = (slot[S.rows] == -1) | (slot[S.cols] == -1)
        keys = np.concatenate((coord[x[held]] * alpha + coord[y[held]],
                               S.rows[out] * alpha + S.cols[out]))
        return divmod(int(keys.min()), alpha) if keys.size else None

    for k in range(alpha):
        # the first coordinate with a nonzero diagonal entry, in the front
        # (a free slot's entry is zero) or outside it
        u = int(np.where(d[:n].astype(np.int64) % p, coord[:n], alpha).min(
            initial=alpha))
        while q < len(lead) and slot[lead[q]] != -1:
            q += 1
        if q < len(lead):
            u = min(u, lead[q])
        if u == alpha:
            # diagonal exhausted: flush, reduce the front and fold x_J into
            # x_I (x_I' = x_I + x_J), whose row is then row I plus row J,
            # right-hand sides included
            flush()
            found = fold_pair()
            if found is None:
                break  # remaining coordinates never enter the form
            u, J = found
            reach(u)
            reach(J)
            i, jj = slot[u], slot[J]
            A[i, :w + n] += A[jj, :w + n]
            # A[u, u] and A[J, J] are zero, since the diagonal is exhausted
            A[i, w + i] = d[i] = 2 * A[i, w + jj]
            A[:n, w + i] = A[i, w:w + n]
        else:
            reach(u)
        i = int(slot[u])
        a = int(d[i]) % p
        lam[k] = a
        ainv = inverse_mod(a, p)
        free[i] = True
        row = A[i, :w + n]
        if j:
            row = row - Vp[:j, i] @ Wp[:j, :w + n]
        # reduced through int64, exact for these integers below 2^53 and
        # much cheaper than a float mod; free slots, u's own included, are
        # masked out. The first w entries are u's finished right-hand sides
        ri = row.astype(np.int64) % p
        ri[w:][free[:n]] = 0
        row = ri.astype(dtype)
        out[k] = ri[:w]
        wv = (ri[w:] * ainv % p).astype(dtype)
        d[:n] -= wv * row[w:]
        d[i] = 0
        Vp[j, :n] = wv
        Wp[j, :w + n] = row
        slot[u] = -2
        spare.append(i)
        j += 1
        if j == PANEL:
            flush()

    rank = int(np.count_nonzero(lam))
    # each pivot's lambda is nonzero, so the rank pivots come first and the
    # coordinates never eliminated follow in their order. The loop ends
    # with every coordinate eliminated, or just after fold_pair flushed and
    # reduced the block: the rows still held are final, and those never
    # entered keep eta and the identity
    rest = np.flatnonzero(slot != -2)
    tail, held = out[rank:], slot[rest] >= 0
    tail[:, :m] = e[rest]
    if want_l:
        tail[np.arange(rest.size), m + rest] = 1
    tail[held] = A[slot[rest[held]], :w]
    L = out[:, m:].T if want_l else None
    mu = None if eta is None else out[:, :m].reshape(eta_shape)
    return DiagonalizationResult(L, lam, rank, mu)
