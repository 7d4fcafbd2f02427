"""Congruence diagonalization of symmetric matrices over F_p (p an odd prime).

A symmetric matrix is held as its nonzeros: `SymmetricEntries` keeps the
upper-triangle entries sorted by column. `diagonalize` computes L
invertible with L^T A L = diag(lambda) by rank-1 updates deferred in panels
of PANEL pivots, so the trailing matrix is touched O(alpha/PANEL) times
instead of O(alpha) times. The panel width and the flush block size are
module constants, not parameters. The panel buffers are indexed like the
dense block's columns and are as wide as its buffer. They are never
cleared: a pivot writes its panel row over the whole window, every read
lies inside the current window, and neither end of the window ever moves
back. The one-peel-at-a-time ground truth,
`oracle.diagonalize_reference`, composes `oracle.split_step` literally; the
tests require the same L and the same diagonal, entry for entry.

Pivot rule: use the first nonzero diagonal entry (lowest index); if the
diagonal is all zero but A is not, take the row-major first nonzero
off-diagonal entry A[I,J] and fold coordinate J into I (x_I' = x_I + x_J),
which puts 2*A[I,J] on the diagonal.

Only a sliding block of coordinates is ever dense. Rank-one updates never
reach past the running maximum of the pivot rows' support bounds, so every
entry beyond the loaded block is still an untouched entry of A; a
coordinate's entries are loaded when the window or a fold first reaches
it, up to a panel's width ahead while the buffer has room, and finished
coordinates are dropped from the block. The buffer is sized from the
envelope (George and Liu 1981, ch. 4) before any numerical work: E, the
widest window hi_t - t of the static row ends plus two panels, caps its
growth by half again, and it grows past E, to a panel beyond the live
block, only when deferred coordinates widen that block to within a panel
of E. When the block runs past the buffer's end it moves once: the buffer
is reallocated in place (the first one from an empty buffer), and each
live row is copied once to the front at the new stride, so the block
slides and grows in one pass and no move holds two blocks. Memory is
O(nnz(A) + c^2 + PANEL * c) for a buffer of c <= max(E, w + PANEL)
coordinates, w the widest live block.

The block is symmetric, so only its upper triangle is kept current: loads
write the entries on and above the diagonal, each panel flush updates a row
block from its diagonal on, a pivot reads its row as its column above the
diagonal and its row from the diagonal on, and a fold adds row and column
in it directly. Entries below the diagonal are stale and never read. Each
pivot row, and the diagonal when the next pivot is sought, is reduced mod p
through int64 rather than by a float mod; the casts are exact, since every
value is an integer below 2^53 in magnitude. Only a fold reduces the block
itself, in place.

Each pivot is eliminated at the position where it stands. The coordinates
it skipped, whose diagonal was zero, stay where they are, deferred, and the
finished positions among them are masked out of later pivot rows. One
stable compaction per panel clears these holes: the finished positions move
to the front in pivot order and the deferred ones behind them in their
order, so every flush, fold search and block move sees the live
coordinates contiguous and in the order `oracle.split_step` keeps them.

`diagonalize` eliminates in the order it is given, so its window is the
envelope of A in that order, and it does not reorder. `envelope_order`
offers a Cuthill-McKee order (Cuthill and McKee 1969), one breadth-first
search from a coordinate of least degree in each component, when the
block work of eliminating in it is strictly lower than in the given
order; the caller then eliminates `S.permuted(order)` with its right-hand
sides permuted alike. That is a congruence, so the rank, the square class
of the nonzero diagonal's product and, with eta permuted alike, whether
some coordinate has lambda_i = 0 and mu_i != 0 do not change; the
diagonal, L, mu and the count of such coordinates are those of the
permuted form. `evaluator.amplitude` is the only caller that reorders.

`diagonalize` never forms L while it eliminates. It applies each column
operation to a matrix of right-hand sides instead, so it returns
mu = L^T eta for every column of eta at once; L itself, when asked for, is
read off the identity carried as extra right-hand-side columns,
L = (L^T I)^T.
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


def _moved(order, rows, cols):
    # upper-triangle positions of the entries (rows, cols) once position k
    # holds coordinate order[k]
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order))
    r, c = inv[rows], inv[cols]
    return np.minimum(r, c), np.maximum(r, c)


class SymmetricEntries:
    """A symmetric size x size matrix over F_p held as its nonzero
    upper-triangle entries (rows[k] <= cols[k], vals[k] in [1, p)), sorted
    by column and then by row, each position once. The constructor trusts
    its arrays; `diagonalize` checks this layout. size must be an integer
    (anything `operator.index` accepts, TypeError otherwise). `np.asarray`
    gives the dense int64 matrix."""

    __slots__ = ("size", "rows", "cols", "vals")

    def __init__(self, size: int, rows, cols, vals):
        self.size = operator.index(size)
        self.rows, self.cols, self.vals = rows, cols, vals
        for arr in (rows, cols, vals):
            arr.setflags(write=False)

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
        rows, cols = _moved(order, self.rows, self.cols)
        # distinct positions stay distinct: only the sort is left to redo
        k = np.argsort(cols * self.size + rows)
        return SymmetricEntries(self.size, rows[k], cols[k], self.vals[k])

    def dense_rows(self):
        """Yield the dense int64 rows in order through one reused buffer,
        which each row overwrites: read a row before asking for the next.
        The dense matrix is never built."""
        off = self.rows != self.cols
        r = np.concatenate((self.rows, self.cols[off]))
        order = np.argsort(r, kind="stable")
        c = np.concatenate((self.cols, self.rows[off]))[order]
        v = np.concatenate((self.vals, self.vals[off]))[order]
        ptr = np.searchsorted(r[order], np.arange(self.size + 1))
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
    # type is exact, so the form is refused. A right-hand-side entry stays
    # under the same bound: it loses less than (p - 1)^2 per pivot and a
    # fold restarts it below 2p. An empty form does no arithmetic at all.
    bound = p + (alpha + PANEL) * (p - 1) ** 2 if alpha else 0
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise ValueError(f"p = {p} with alpha = {alpha} is beyond exact float64 "
                     f"elimination: lazy bound {bound} >= 2^53")


def _row_ends(size: int, rows, cols) -> np.ndarray:
    # ext[i] bounds row i's support: A[i, ext[i]:] == 0 (at least i + 1 so
    # the window always reaches past the diagonal)
    ext = np.arange(1, size + 1)
    np.maximum.at(ext, rows, cols + 1)
    return ext


def _windows(ext: np.ndarray) -> np.ndarray:
    # hi_t - t for each pivot t, hi_t the running maximum of the row ends:
    # the window that pivot's updates can reach
    return np.maximum.accumulate(ext) - np.arange(len(ext))


def _block_work(ext: np.ndarray) -> int:
    # the sum of the squared windows
    return int(np.square(_windows(ext)).sum())


def _capacity(size: int, cap: int, envelope: int, rest: int) -> int:
    # the block buffer's capacity, now cap, for a live block of size
    # coordinates out of rest: cap while the block fills at most three
    # quarters of it, else half again the block while that stays below the
    # envelope, else the envelope, or a panel past the block where deferred
    # coordinates make it about as wide as the envelope; never above rest
    if 4 * size <= 3 * cap:
        return cap
    grown = size + size // 2
    if grown >= envelope:
        grown = max(envelope, size + PANEL)
    return max(cap, min(grown, rest))


def _cuthill_mckee(S: SymmetricEntries) -> np.ndarray:
    """A Cuthill-McKee order of S's off-diagonal pattern: breadth first from
    an unseen coordinate of least degree, once per connected component,
    each level's unseen neighbours parent by parent and each parent's by
    increasing degree, and coordinates without off-diagonal entries last."""
    off = S.rows != S.cols
    r = np.concatenate((S.rows[off], S.cols[off]))
    c = np.concatenate((S.cols[off], S.rows[off]))
    deg = np.bincount(r, minlength=S.size)
    # each row's neighbours by degree, then index
    nbr = c[np.argsort((r * (deg.max(initial=0) + 1) + deg[c]) * S.size + c)]
    ptr = np.concatenate(([0], np.cumsum(deg)))
    seen = deg == 0
    parts = []
    while not seen.all():
        level = np.array([np.argmin(np.where(seen, S.size, deg))])
        seen[level] = True
        while level.size:
            parts.append(level)
            lo, counts = ptr[level], ptr[level + 1] - ptr[level]
            offsets = np.cumsum(counts) - counts
            reach = nbr[np.repeat(lo - offsets, counts)
                        + np.arange(counts.sum())]
            reach = reach[~seen[reach]]
            # a coordinate reached by several parents goes with the first
            _, first = np.unique(reach, return_index=True)
            level = reach[np.sort(first)]
            seen[level] = True
    parts.append(np.flatnonzero(deg == 0))
    return np.concatenate(parts)


def envelope_order(S: SymmetricEntries) -> np.ndarray | None:
    """A Cuthill-McKee order of S when eliminating in it takes strictly
    less block work than in the given order, else None.

    The block work W = sum over pivots t of (hi_t - t)^2, with hi_t the
    running maximum of the row ends, is the square of the window each
    pivot's updates can reach, so it bounds the panel flushes of an
    elimination in a given order in entries. It takes O(alpha) from the
    row ends `diagonalize` computes; the order takes a sort of the
    off-diagonal entries and a breadth-first search."""
    order = _cuthill_mckee(S)
    moved = _row_ends(S.size, *_moved(order, S.rows, S.cols))
    canonical = _row_ends(S.size, S.rows, S.cols)
    return order if _block_work(moved) < _block_work(canonical) else None


def diagonalize(theta, p: int, want_l: bool = False,
                eta=None) -> DiagonalizationResult:
    """Full congruence diagonalization with panel-deferred updates.

    p must be an integer (TypeError) that is an odd prime (ValueError).
    theta is a SymmetricEntries laid out as its class states, which is
    checked (ValueError), or a dense symmetric matrix of integers (TypeError
    for any other dtype, as for eta), which is turned into its entries on
    entry. Pivot selection follows
    oracle.split_step exactly (first nonzero diagonal entry, else row-major
    first off-diagonal fold), so the output matches
    oracle.diagonalize_reference entry for entry. The trailing matrix only
    receives one flush per PANEL pivots; the running diagonal and the
    current pivot row are patched from the panel buffers so pivot decisions
    never see stale values. Each pivot is eliminated where it stands:
    the zero-diagonal coordinates it skipped stay in place, deferred, and
    a mask keeps the finished positions out of later pivot rows. Before
    each flush, before the fold search and before the block grows or
    slides, one stable compaction moves the finished positions of the
    window to its front in pivot order and the deferred ones behind them,
    so lambda, mu and L come out in pivot order and the pivot sequence is
    the reference's. The panel buffers are indexed like the block's columns
    and never cleared: a pivot writes its row over the whole window [t, hi),
    every read lies in the window of a later pivot, and a compaction, slide
    or grow moves the rows' columns with their coordinates. Only the block's
    upper triangle is current; nothing reads below its diagonal. Arithmetic
    stays exact: entries are integers carried in floats small enough to be
    exact, reduced mod p only when read (the pivot row and the diagonal
    scan through int64, the block in place before a fold); a (p, alpha)
    too large for float64 raises ValueError.

    eta, of shape (alpha,) or (alpha, m), is a set of right-hand sides: row i
    belongs to coordinate i and follows every column operation on Theta, so
    the result's mu = L^T eta keeps eta's shape. want_l appends the identity
    as alpha more right-hand-side columns and returns L = (L^T I)^T. Each
    column is transformed on its own, so the diagonal and mu are the same
    with or without want_l; `--explain` relies on that to print L from the
    same run that gives its answer.

    All elimination work is confined to a sliding window [t, hi): a pivot's
    update row vanishes at and beyond the running maximum hi of the per-row
    support bounds seen so far, because rank-one updates never create fill
    to the right of the rows that produced them. Only the block [t, top)
    with top >= hi is held dense; coordinates from top on still carry their
    original entries, which are loaded when the window or a fold first
    reaches them, up to PANEL coordinates ahead while the buffer has room.
    The buffer grows in place, by half again up to the static envelope E,
    the widest hi - t of theta's row ends plus two panels, and past it only
    to a panel beyond a live block that deferred coordinates widen. A load
    past the buffer's end moves the block once: it reallocates the buffer,
    the first one from an empty one, and copies each live row once to the
    front at the buffer's new stride, so a slide and a grow share one pass.
    Memory is O(nnz(theta) + c^2 + PANEL * c) for a buffer of c <= max(E,
    w + PANEL) coordinates, w the widest live block; matrices from circuits
    are close to banded, so the block is usually much narrower than the
    matrix.
    theta is eliminated in the order given; `envelope_order` offers one of
    less block work.

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
    rows, cols, vals = S.rows, S.cols, S.vals.astype(dtype)
    # column c's entries are colptr[c]:colptr[c + 1]
    colptr = np.searchsorted(cols, np.arange(alpha + 1))
    d = np.zeros(alpha, dtype=dtype)
    on_diag = rows == cols
    d[rows[on_diag]] = vals[on_diag]
    lam = np.zeros(alpha, dtype=np.int64)
    ext = _row_ends(alpha, rows, cols)
    # the widest static window, and room for loads to read ahead and for
    # the block to slide seldom: the buffer grows no further unless
    # deferred coordinates widen the live block past it
    envelope = min(alpha, int(_windows(ext).max(initial=0)) + 2 * PANEL)
    # coordinate orig[k] of A sits at position k; pos is the inverse. Only
    # compactions permute, and only inside [t, front)
    orig = np.arange(alpha)
    pos = np.arange(alpha)
    # the dense block: position k at A[k - base], for base <= t <= k < top
    A = np.zeros((0, 0), dtype=dtype)
    # the panel buffers, indexed like the block's columns, one row per
    # pending pivot: pivot j writes Vp[j] = wv_j and Wp[j] = row_j over its
    # window [t, hi), zero at finished positions. Nothing clears them: every
    # read lies in the window of the current step, neither of whose ends
    # moves back, a row holds values only left of the hi of its last write,
    # so a reused row's old values lie left of t or under its new write; a
    # compaction moves the pending rows' columns with their coordinates, and
    # a move of the block moves every row's with it
    Vp = np.zeros((PANEL, 0), dtype=dtype)
    Wp = np.zeros((PANEL, 0), dtype=dtype)
    base = top = 0
    # right-hand sides: eta's m columns, then the identity when L is wanted
    m = 0 if eta is None else (eta_shape[1] if len(eta_shape) == 2 else 1)
    rhs = np.zeros((alpha, m + (alpha if want_l else 0)), dtype=dtype)
    if eta is not None:
        rhs[:, :m] = (_as_int64(eta, "eta") % p).reshape(alpha, m)
    if want_l:
        np.fill_diagonal(rhs[:, m:], 1)

    # positions before t are finished, in pivot order. In [t, front) lie
    # the pivots made since the last compaction, at the positions in holes
    # (in pivot order) and marked in done, and the deferred coordinates,
    # whose diagonal was zero when a pivot right of them was taken; no
    # position from front on has been a pivot
    t = front = 0
    holes = []
    done = np.zeros(alpha, dtype=bool)
    j = 0  # pending panel rows
    hi = 0  # window end; grows monotonically

    def compact():
        # move the finished positions of [t, front) to its front in pivot
        # order and the deferred ones behind them in their order. A deferred
        # row keeps its upper triangle: it meets the other deferred ones in
        # the same order, and the positions from front on do not move. Its
        # support inside [t, front) stays below hi, so ext needs no clamp
        nonlocal t, holes
        if not holes:
            return
        live = t + np.flatnonzero(~done[t:front])
        moved = np.concatenate((holes, live))
        rhs[t:front] = rhs[moved]
        orig[t:front] = orig[moved]
        pos[orig[t:front]] = np.arange(t, front)
        t += len(holes)
        holes = []
        if live.size:
            for x in (d, ext):
                x[t:front] = x[live]
            r, k, f, end = live - base, t - base, front - base, top - base
            for x in (Vp[:j].T, Wp[:j].T):
                x[k:f] = x[r]
            A[k:f, f:end] = A[r, f:end]
            A[k:f, k:f] = A[np.ix_(r, r)]
            done[t:front] = False

    def load(end: int):
        # extend the block to [t, end), and up to PANEL columns further
        # that the buffer already holds. An entry between a loaded position
        # and a coordinate c >= top is still A's original entry of orig
        # there, since no update reaches past hi <= top, so coordinate c
        # loads as its original column. Finished positions have no entry
        # that far out.
        nonlocal Vp, Wp, base, top
        if end <= top:
            return
        if end - base > A.shape[0]:
            # the capacity and the move below see only live positions
            compact()
            live, shift, cap = top - t, t - base, A.shape[0]
            # a move frees at least a quarter of the buffer, or the margin
            # at the envelope: either way O(w^2) copying buys O(w) pivots
            grown = _capacity(end - t, cap, envelope, alpha - t)
            # numpy reallocates the buffer in place, the first one from
            # (0, 0), so no second block is ever held (no view of it is
            # alive here). Live row r still sits cap apart, at offset shift,
            # and goes to row r at stride grown: it moves by r * (grown -
            # cap) - shift * (cap + 1), which rises with r. The rows that
            # move to higher addresses go first, last to first, then the
            # rest, first to last, so none lands on a row not yet moved;
            # numpy copies a block of PANEL rows first where it overlaps
            # its own source
            A.resize((grown, grown), refcheck=False)
            src = A.reshape(-1)[shift * cap:(shift + live) * cap].reshape(
                live, cap)[:, shift:shift + live]
            split = int(np.count_nonzero(
                np.arange(live) * (grown - cap) <= shift * (cap + 1)))
            for r1 in range(live, split, -PANEL):
                r0 = max(split, r1 - PANEL)
                A[r0:r1, :live] = src[r0:r1]
            for r0 in range(0, split, PANEL):
                r1 = min(r0 + PANEL, split)
                A[r0:r1, :live] = src[r0:r1]
            # the panel columns move with the block; the rest is zero: it
            # lies right of every hi so far, where a reused row must read
            # zero
            Vp, Wp = (np.pad(P[:, shift:shift + live],
                             ((0, 0), (0, grown - live))) for P in (Vp, Wp))
            base = t
        end = min(alpha, end + PANEL, base + A.shape[0])
        # only the new columns' upper triangle: every loaded entry sits
        # above the diagonal, since pos[r] < top <= c or pos[r] = r <= c
        old, new = top - base, end - base
        A[t - base:new, old:new] = 0
        s0, s1 = colptr[top], colptr[end]
        A[pos[rows[s0:s1]] - base, cols[s0:s1] - base] = vals[s0:s1]
        top = end

    def row_blocks(end: int):
        # the block's rows from t to end, in blocks that hold about
        # FLUSH_ENTRIES entries from their diagonal on: taller as the
        # triangle narrows, and one block for a narrow window
        r0 = t - base
        while r0 < end:
            r1 = min(end, r0 + max(1, FLUSH_ENTRIES // (end - r0)))
            yield r0, r1
            r0 = r1

    def flush():
        # compact, then update each row block from its diagonal on, so only
        # the upper triangle (and the lower half of the blocks' diagonal
        # squares) moves
        nonlocal j
        compact()
        if j:
            end = hi - base
            with _blas_threads() as fit_threads:
                for r0, r1 in row_blocks(end):
                    block = A[r0:r1, r0:end]
                    fit_threads(j * (r1 - r0) * (end - r0))
                    np.subtract(block, Vp[:j, r0:r1].T @ Wp[:j, r0:end],
                                out=block)
            j = 0

    def reduce_and_find():
        # reduce the block's upper triangle mod p and return the row-major
        # first nonzero of the trailing matrix. A symmetric matrix's first
        # nonzero row has no nonzero left of its diagonal, so it is the
        # upper triangle's first nonzero row, in the block or among the
        # untouched entries of columns top and on
        found = None
        end = top - base
        for r0, r1 in row_blocks(end):
            block = A[r0:r1, r0:end]
            np.mod(block, p, out=block)
            if found is None:
                live = np.flatnonzero(np.triu(block).any(axis=1))
                if live.size:
                    r = int(live[0])
                    c = r + int(np.flatnonzero(block[r, r:])[0])
                    found = (base + r0 + r, base + r0 + c)
        s0 = colptr[top]
        if s0 < len(rows):
            r, c = pos[rows[s0:]], cols[s0:]
            k = int(np.argmin(r * alpha + c))
            if found is None or (int(r[k]), int(c[k])) < found:
                found = (int(r[k]), int(c[k]))
        return found

    while t + len(holes) < alpha:
        # finished positions keep a zero diagonal, so the first nonzero
        # entry from t on is the first live one
        hits = np.flatnonzero(d[t:front + 64].astype(np.int64) % p)
        if not hits.size and front + 64 < alpha:
            hits = np.flatnonzero(d[front + 64:].astype(np.int64) % p)
            if hits.size:
                hits = hits + (front + 64 - t)
        if hits.size:
            u = t + int(hits[0])
        else:
            # diagonal exhausted: flush, which compacts, reduce the block
            # and look for an off-diagonal pivot to fold in; its rows'
            # supports end by ext[I] and ext[J], so only that far is loaded
            flush()
            found = reduce_and_find()
            if found is None:
                break  # remaining coordinates never enter the form
            I, J = found
            load(max(int(ext[I]), int(ext[J])))
            # x_I' = x_I + x_J on the upper triangle, with I < J: column I
            # above the diagonal, then row I, whose partner row J left of
            # its diagonal is column J. A[I, I] and A[J, J] are zero, since
            # the diagonal is exhausted
            i, jj, lo, end = I - base, J - base, t - base, top - base
            A[i, i] = 2 * A[i, jj]
            A[lo:i, i] += A[lo:i, jj]
            A[i, i + 1:jj] += A[i + 1:jj, jj]
            A[i, jj:end] += A[jj, jj:end]
            d[t:top] = A[lo:end, lo:end].diagonal()
            ext[I] = max(int(ext[I]), int(ext[J]), hi)
            rhs[I] = rhs[I] % p + rhs[J] % p
            u = I

        hi = max(hi, u + 1, int(ext[u]))
        if hi > top:
            # a load that grows or slides the block compacts it first
            coord = orig[u]
            load(hi)
            u = int(pos[coord])
        a = int(d[u]) % p
        lam[t + len(holes)] = a
        ainv = inverse_mod(a, p)
        # the pivot row over [t, hi): column u above the diagonal, then row
        # u from the diagonal on; finished positions, u's own included, are
        # masked out
        i, k, end = t - base, u - base, hi - base
        row = np.concatenate((A[i:k, k], A[k, k:end]))
        if j:
            row -= Vp[:j, k] @ Wp[:j, i:end]
        # reduced through int64, exact for these integers below 2^53 and
        # much cheaper than a float mod
        ri = row.astype(np.int64) % p
        done[u] = True
        front = max(front, u + 1)
        ri[:front - t][done[t:front]] = 0
        row = ri.astype(dtype)
        wv = (ri * ainv % p).astype(dtype)
        d[t:hi] -= wv * row
        d[u] = 0
        Vp[j, i:end] = wv
        Wp[j, i:end] = row
        rhs[t:hi] -= wv[:, None] * (rhs[u] % p)
        if u == t and not holes:
            t += 1
        else:
            holes.append(u)
        j += 1
        if j == PANEL:
            flush()

    compact()
    rank = int(np.count_nonzero(lam))
    np.mod(rhs, p, out=rhs)
    rhs = rhs.astype(np.int64)
    L = rhs[:, m:].T if want_l else None
    mu = None if eta is None else rhs[:, :m].reshape(eta_shape)
    return DiagonalizationResult(L, lam, rank, mu)
