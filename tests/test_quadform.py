"""Congruence diagonalization over F_p: the one-step peel, the blocked
engine, and the Gaussian rank cross-check."""
from __future__ import annotations

import contextlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import random_circuit
from quopitsim import quadform
from quopitsim.circuit import normalize_to_standard_form
from quopitsim.oracle import diagonalize_reference, gf_rank, split_step
from quopitsim.pathsum import phase_polynomial_direct
from quopitsim.quadform import (DiagonalizationResult, SymmetricEntries,
                                diagonalize)

PRIMES = [3, 5, 7, 11, 13]


def random_symmetric(rng, alpha: int, p: int, hollow: bool = False,
                     max_rank: int | None = None) -> np.ndarray:
    if max_rank is not None:
        # G^T D G has rank at most max_rank by construction
        G = rng.integers(0, p, size=(max_rank, alpha))
        D = np.diag(rng.integers(0, p, size=max_rank))
        return (G.T @ D @ G) % p
    M = rng.integers(0, p, size=(alpha, alpha))
    M = (M + M.T) % p
    if hollow:
        np.fill_diagonal(M, 0)
    return M


def test_split_step_off_diagonal_pivot():
    # no nonzero diagonal entry, so the first off-diagonal entry is folded
    # into the diagonal: a = 2 * A[0, 1]
    P, a, B = split_step([[0, 1], [1, 0]], 3)
    assert a == 2
    assert P.tolist() == [[1, 1], [1, 2]]
    assert B.tolist() == [[1]]
    assert ((P.T @ np.array([[0, 1], [1, 0]]) @ P) % 3).tolist() == [[2, 0],
                                                                     [0, 1]]


def test_split_step_diagonal_pivot():
    P, a, B = split_step([[1, 0], [0, 2]], 5)
    assert a == 1
    assert P.tolist() == [[1, 0], [0, 1]]
    assert B.tolist() == [[2]]


def test_split_step_zero_matrix():
    P, a, B = split_step(np.zeros((3, 3), dtype=np.int64), 7)
    assert a == 0
    assert np.array_equal(P, np.eye(3, dtype=np.int64))
    assert B.shape == (2, 2) and not B.any()


def test_split_step_rejects_bad_input():
    with pytest.raises(ValueError):
        split_step([[1, 2], [3, 4]], 5)  # not symmetric
    with pytest.raises(ValueError):
        split_step([[1, 2, 3], [4, 5, 6]], 5)  # not square


def test_split_step_congruence_property():
    rng = np.random.default_rng(101)
    for _ in range(150):
        p = int(rng.choice(PRIMES))
        alpha = int(rng.integers(1, 7))
        A = random_symmetric(rng, alpha, p, hollow=bool(rng.integers(2)))
        P, a, B = split_step(A, p)
        assert gf_rank(P, p) == alpha  # invertible
        assert np.array_equal(B, B.T)
        expect = np.zeros((alpha, alpha), dtype=np.int64)
        expect[0, 0] = a
        expect[1:, 1:] = B
        assert np.array_equal((P.T @ A @ P) % p, expect)


def test_reference_diagonalization_properties():
    rng = np.random.default_rng(7)
    for _ in range(80):
        p = int(rng.choice(PRIMES))
        alpha = int(rng.integers(1, 8))
        A = random_symmetric(rng, alpha, p, hollow=bool(rng.integers(2)))
        res = diagonalize_reference(A, p)
        assert gf_rank(res.L, p) == alpha
        assert np.array_equal((res.L.T @ A @ res.L) % p,
                              np.diag(res.diagonal))
        assert res.rank == gf_rank(A, p)
        assert res.rank == int(np.count_nonzero(res.diagonal))


def _assert_same(blocked: DiagonalizationResult,
                 ref: DiagonalizationResult, eta, p: int):
    assert np.array_equal(blocked.diagonal, ref.diagonal)
    assert blocked.rank == ref.rank
    assert np.array_equal(blocked.L, ref.L)
    assert np.array_equal(blocked.mu, (ref.L.T @ eta) % p)


def test_blocked_matches_reference():
    rng = np.random.default_rng(23)
    rhs_rng = np.random.default_rng(29)
    for _ in range(120):
        p = int(rng.choice(PRIMES))
        alpha = int(rng.integers(1, 12))
        kind = int(rng.integers(3))
        if kind == 0:
            A = random_symmetric(rng, alpha, p)
        elif kind == 1:
            A = random_symmetric(rng, alpha, p, hollow=True)
        else:
            A = random_symmetric(rng, alpha, p,
                                 max_rank=int(rng.integers(0, alpha + 1)))
        ref = diagonalize_reference(A, p)
        for eta in (rng.integers(0, p, size=alpha),
                    rhs_rng.integers(0, p, size=(alpha, 3))):
            blocked = diagonalize(A, p, want_l=True, eta=eta)
            _assert_same(blocked, ref, eta, p)


def test_blocked_small_panels(monkeypatch):
    # panel = 2 or 3 forces many flushes and exercises the interplay with
    # off-diagonal folds mid-panel
    rng = np.random.default_rng(41)
    for panel in (2, 3):
        monkeypatch.setattr(quadform, "PANEL", panel)
        for _ in range(40):
            p = int(rng.choice(PRIMES))
            alpha = int(rng.integers(4, 11))
            A = random_symmetric(rng, alpha, p, hollow=bool(rng.integers(2)))
            eta = rng.integers(0, p, size=alpha)
            blocked = diagonalize(A, p, want_l=True, eta=eta)
            _assert_same(blocked, diagonalize_reference(A, p), eta, p)


def test_blocked_banded_and_scattered(monkeypatch):
    # banded inputs keep the elimination window narrow, and scattered
    # supports force pivots that lie past the window's edge
    rng = np.random.default_rng(59)
    for _ in range(60):
        p = int(rng.choice(PRIMES))
        alpha = int(rng.integers(6, 40))
        bw = int(rng.integers(1, 6))
        A = random_symmetric(rng, alpha, p, hollow=bool(rng.integers(2)))
        r, c = np.indices(A.shape)
        A[np.abs(r - c) > bw] = 0
        eta = rng.integers(0, p, size=alpha)
        monkeypatch.setattr(quadform, "PANEL", int(rng.choice([3, 96])))
        blocked = diagonalize(A, p, want_l=True, eta=eta)
        _assert_same(blocked, diagonalize_reference(A, p), eta, p)
    monkeypatch.undo()
    for _ in range(40):
        p = int(rng.choice(PRIMES))
        alpha = int(rng.integers(8, 30))
        A = random_symmetric(rng, alpha, p)
        keep = rng.random(alpha) < 0.3
        A[~keep] = 0
        A[:, ~keep] = 0
        eta = rng.integers(0, p, size=alpha)
        blocked = diagonalize(A, p, want_l=True, eta=eta)
        _assert_same(blocked, diagonalize_reference(A, p), eta, p)


def _banded_with_zero_stretches(rng, p: int, alpha: int,
                                starts=(10, 60, 110),
                                length: int = 35) -> np.ndarray:
    # bandwidth 3, and stretches of `length` coordinates with a zero
    # diagonal that the band before them does not reach: at a stretch the
    # first nonzero diagonal entry lies far past the loaded block, so the
    # block has to load up to it while the stretch stays deferred
    A = random_symmetric(rng, alpha, p)
    r, c = np.indices(A.shape)
    A[np.abs(r - c) > 3] = 0
    for start in starts:
        stretch = np.arange(start, start + length)
        A[stretch, stretch] = 0
        A[:start, start:] = 0
        A[start:, :start] = 0
    return A


def _block_diagonal_hollow_tail(rng, p: int, sizes, hollow_from: int,
                                gap: int) -> np.ndarray:
    # blocks separated by all-zero gaps; every block from hollow_from on
    # has a zero diagonal, so once the others are eliminated the whole
    # remaining diagonal is zero and the first off-diagonal entry lies in a
    # block the engine has not loaded: the fold's rows are beyond the block
    alpha = sum(sizes) + gap * (len(sizes) - 1)
    A = np.zeros((alpha, alpha), dtype=np.int64)
    at = 0
    for k, size in enumerate(sizes):
        A[at:at + size, at:at + size] = random_symmetric(
            rng, size, p, hollow=k >= hollow_from)
        at += size + gap
    return A


def _sliding_window_inputs():
    rng = np.random.default_rng(83)
    # the small primes run on float32, 10007 and 65537 on float64
    for p0, p1, p2 in ((5, 3, 7), (10007,) * 3, (65537,) * 3):
        yield p0, _banded_with_zero_stretches(rng, p0, 160)
        yield p1, _block_diagonal_hollow_tail(rng, p1,
                                              (30, 25, 20, 20, 15, 15),
                                              hollow_from=2, gap=12)
        # both at once: a banded head with a zero stretch, then hollow
        # blocks
        head = _banded_with_zero_stretches(rng, p2, 150)[:100, :100]
        tail = _block_diagonal_hollow_tail(rng, p2, (12, 10, 8),
                                           hollow_from=0, gap=9)
        A = np.zeros((100 + 9 + len(tail),) * 2, dtype=np.int64)
        A[:100, :100] = head
        A[109:, 109:] = tail
        yield p2, A
    # a zero stretch of 100 coordinates, so the next pivot lies far
    # outside the front
    for p in (5, 10007):
        yield p, _banded_with_zero_stretches(rng, p, 160, starts=(30,),
                                             length=100)


@pytest.mark.parametrize("p, A", list(_sliding_window_inputs()))
def test_sliding_window_matches_reference(p, A, monkeypatch):
    # the reference is computed once per matrix; every panel width and both
    # eta shapes must reproduce its L and diagonal entry for entry
    ref = diagonalize_reference(A, p)
    rng = np.random.default_rng(len(A))
    entries = SymmetricEntries.from_dense(A % p)
    for panel in (1, 2, 7, 96):
        monkeypatch.setattr(quadform, "PANEL", panel)
        for eta in (rng.integers(0, p, size=len(A)),
                    rng.integers(0, p, size=(len(A), 2))):
            _assert_same(diagonalize(A, p, want_l=True, eta=eta), ref, eta,
                         p)
        eta = rng.integers(0, p, size=len(A))
        sparse = diagonalize(entries, p, eta=eta)
        assert np.array_equal(sparse.diagonal, ref.diagonal)
        assert np.array_equal(sparse.mu, (ref.L.T @ eta) % p)
    # panel flushes split into many row blocks, of one row where the window
    # is widest
    monkeypatch.setattr(quadform, "FLUSH_ENTRIES", 100)
    for panel in (7, 96):
        monkeypatch.setattr(quadform, "PANEL", panel)
        _assert_same(diagonalize(A, p, want_l=True, eta=eta), ref, eta, p)


COMPACTION_PANELS = (1, 2, 3, 7, 96)


def _assert_panels_match(A, p: int, monkeypatch, panels=COMPACTION_PANELS):
    # every panel width, with L and a two-column eta, entry for entry
    ref = diagonalize_reference(A, p)
    eta = np.random.default_rng(len(A)).integers(0, p, size=(len(A), 2))
    for panel in panels:
        monkeypatch.setattr(quadform, "PANEL", panel)
        _assert_same(diagonalize(A, p, want_l=True, eta=eta), ref, eta, p)


def _band_with_deferred(rng, p: int, alpha: int, partners,
                        band: int = 2) -> np.ndarray:
    # a band of half-width band with a nonzero diagonal, in which each
    # coordinate z of partners has a zero diagonal and meets only the
    # coordinates partners[z]: z is deferred until the first of them is
    # eliminated, which gives z a nonzero diagonal, and z is then the next
    # pivot, left of the one that revived it
    A = random_symmetric(rng, alpha, p)
    r, c = np.indices(A.shape)
    A[np.abs(r - c) > band] = 0
    np.fill_diagonal(A, rng.integers(1, p, size=alpha))
    for z, others in partners.items():
        A[z] = A[:, z] = 0
        for w in others:
            A[z, w] = A[w, z] = rng.integers(1, p)
    return A


@pytest.mark.parametrize("p", [5, 10007])
def test_deferred_coordinate_outlives_several_panels(p, monkeypatch):
    # 20 waits for 190 and 25 for 110, so each stays deferred while whole
    # panels of pivots finish left and right of it, and compactions move
    # it along
    A = _band_with_deferred(np.random.default_rng(101), p, 200,
                            {20: (190,), 25: (110,)})
    _assert_panels_match(A, p, monkeypatch)


@pytest.mark.parametrize("p", [3, 7, 10007])
def test_revived_coordinate_pivots_left_of_an_earlier_pivot(p, monkeypatch):
    # [[0, 1], [1, 1]]: 1 is the first pivot, and it revives 0, which is
    # eliminated second, so lambda, mu and L are in pivot order
    A = np.array([[0, 1], [1, 1]])
    res = diagonalize(A, p, want_l=True, eta=np.array([1, 2]))
    assert res.diagonal.tolist() == [1, p - 1]
    assert res.mu.tolist() == [2, (1 - 2) % p]
    _assert_panels_match(A, p, monkeypatch)
    # revivals inside one panel, one after another, and a coordinate that
    # waits for a revived one: 11 is revived by 12 and then revives 10
    A = _band_with_deferred(np.random.default_rng(103), p, 60,
                            {5: (8,), 10: (11, 14), 11: (12,), 30: (31,)})
    _assert_panels_match(A, p, monkeypatch)


def test_block_grows_and_slides_while_deferred(monkeypatch):
    # a revived coordinate whose row reaches far past the front, and long
    # zero stretches whose next pivot lies outside it, so the front takes in
    # far coordinates and its block grows in the middle of a panel; flushes
    # in row blocks of a few rows
    rng = np.random.default_rng(107)
    monkeypatch.setattr(quadform, "FLUSH_ENTRIES", 50)
    for p in (5, 10007):
        A = _band_with_deferred(rng, p, 160, {20: (30, 150), 40: (130,)})
        _assert_panels_match(A, p, monkeypatch)
        A = _banded_with_zero_stretches(rng, p, 160, starts=(20, 90),
                                        length=40)
        _assert_panels_match(A, p, monkeypatch)


def test_one_move_slides_and_grows_the_block(monkeypatch):
    # a band whose row 10 reaches 40 and whose row 14 reaches 64: pivot 10
    # brings 40 into the front and, four pivots later, pivot 14 brings 64,
    # so the block grows twice within a panel while the slots the band's
    # pivots free are taken again by the coordinates that follow them
    rng = np.random.default_rng(127)
    for p in (5, 10007):
        A = _band_with_deferred(rng, p, 100, {}, band=3)
        for i, j in ((10, 40), (14, 64)):
            A[i, j] = A[j, i] = rng.integers(1, p)
        _assert_panels_match(A, p, monkeypatch)


def _front_sizes(monkeypatch) -> list[int]:
    # with PANEL = 1 every pivot flushes the block's n x n slots in one
    # product of n^2 multiply-adds (FLUSH_ENTRIES is far above n^2 here), n
    # the most slots the front has held so far
    sizes = []

    @contextlib.contextmanager
    def record():
        yield lambda macs: sizes.append(math.isqrt(macs))
    monkeypatch.setattr(quadform, "_blas_threads", record)
    monkeypatch.setattr(quadform, "PANEL", 1)
    return sizes


def _diagonal_waiting_for_the_last(alpha: int = 400):
    # a diagonal form whose coordinate 0 has a zero diagonal and meets only
    # the last coordinate, so it waits for it
    v = np.arange(alpha) % 4 + 1
    A = np.diag(v)
    A[0, 0] = 0
    A[0, -1] = A[-1, 0] = 1
    return A, v


def test_block_buffer_holds_only_live_coordinates(monkeypatch):
    # the front is the pivot and, once the last coordinate pivots,
    # coordinate 0: never more than two slots, and the block is never
    # allocated wider, although the positional window of this form spans
    # every coordinate
    A, v = _diagonal_waiting_for_the_last()
    sizes = _front_sizes(monkeypatch)
    sides, pad = [], np.pad

    def record_pad(array, *args, **kwargs):
        out = pad(array, *args, **kwargs)
        if out.ndim == 2 and out.shape[0] == out.shape[1]:
            sides.append(out.shape[0])
        return out
    monkeypatch.setattr(quadform.np, "pad", record_pad)
    res = diagonalize(A, 5)
    monkeypatch.undo()
    # 1 .. alpha - 1 in order, then 0, revived to -1/v[-1]
    assert res.diagonal.tolist() == [*v[1:], (-pow(int(v[-1]), -1, 5)) % 5]
    assert len(sizes) == len(A) and max(sizes) == 2
    assert 0 < max(sides) <= 2


def test_block_buffer_grows_in_place_only_as_the_live_block_needs(
        monkeypatch):
    # the form above at the default panel width, whose positional window
    # spans every coordinate, since coordinate 0 meets the last one. The
    # block is one buffer, padded only when the front takes a slot past its
    # side, so each growth starts from the side the last one left
    A, v = _diagonal_waiting_for_the_last()
    grows, pad = [], np.pad

    def record_pad(array, *args, **kwargs):
        out = pad(array, *args, **kwargs)
        if out.ndim == 2 and out.shape[0] == out.shape[1]:
            grows.append((array.shape[0], out.shape[0]))
        return out
    monkeypatch.setattr(quadform.np, "pad", record_pad)
    res = diagonalize(A, 5)
    monkeypatch.undo()
    assert res.diagonal.tolist() == [*v[1:], (-pow(int(v[-1]), -1, 5)) % 5]
    assert grows and grows[0][0] == 0
    assert all(new > old for old, new in grows)
    assert all(a[1] == b[0] for a, b in zip(grows, grows[1:]))
    assert grows[-1][1] <= 8


def test_random_orders_match_reference(monkeypatch):
    # the same forms in random orders: the front's slots are taken and
    # freed in no pattern, and reused within a panel at every width
    rng = np.random.default_rng(131)
    for p in (3, 5, 10007):
        for _ in range(6):
            alpha = int(rng.integers(20, 70))
            A = _band_with_deferred(rng, p, alpha, {3: (alpha - 5,)}, band=3)
            if rng.integers(2):
                A[np.diag_indices(alpha)] *= rng.random(alpha) < 0.5
            order = rng.permutation(alpha)
            _assert_panels_match(A[np.ix_(order, order)], p, monkeypatch,
                                 panels=(1, 2, 3, 7))


def test_deferred_coordinates_widen_the_front(monkeypatch):
    # ten zero-diagonal coordinates just left of w meet only w, so all ten
    # wait for it and enter the front together when w is eliminated, beside
    # w's band of half-width 10. The first of them to pivot leaves the other
    # nine rows zero, so they stay in the front to the end: it widens past
    # anything the band alone needs
    rng = np.random.default_rng(113)
    for p in (5, 10007):
        A = _band_with_deferred(
            rng, p, 120,
            {z: (w,) for w in (30, 70, 100) for z in range(w - 10, w)},
            band=10)
        for panel in (1, 2, 3, 7):
            _assert_panels_match(A, p, monkeypatch, panels=(panel,))
        sizes = _front_sizes(monkeypatch)
        diagonalize(A, p)
        monkeypatch.undo()
        # the first 20 pivots come before w = 30
        assert max(sizes[:20]) <= 2 * 10 + 1 < max(sizes)


def test_fold_follows_a_compaction(monkeypatch):
    # a band with a deferred coordinate, then a hollow block that it meets:
    # once the band is eliminated every diagonal entry left is zero, so the
    # fold search runs while the band's pivots still leave holes, and the
    # first fold is on the deferred coordinate after it has moved
    rng = np.random.default_rng(109)
    for p in (3, 10007):
        A = np.zeros((100, 100), dtype=np.int64)
        A[:60, :60] = _band_with_deferred(rng, p, 60, {10: ()})
        hollow = random_symmetric(rng, 40, p, hollow=True)
        hollow[rng.random((40, 40)) < 0.8] = 0
        A[60:, 60:] = np.triu(hollow) + np.triu(hollow, 1).T
        A[10, 80] = A[80, 10] = 1
        _assert_panels_match(A, p, monkeypatch)


@pytest.mark.parametrize("p, next_p, alpha, dtype", [
    (409, 419, 4, np.float32), (9538433, 9538447, 3, np.float64)])
def test_exact_at_the_edge_of_each_dtype(p, next_p, alpha, dtype):
    # p is the largest prime that gets this float type at this alpha: the
    # next prime gets another type or is refused
    assert quadform._pick_dtype(alpha, p) is dtype
    try:
        next_dtype = quadform._pick_dtype(alpha, next_p)
    except ValueError:
        next_dtype = None
    assert next_dtype is not dtype
    rng = np.random.default_rng(p)
    eta = np.full(alpha, p - 1)
    for A in (np.full((alpha, alpha), p - 1),
              random_symmetric(rng, alpha, p, hollow=True)):
        res = diagonalize(A, p, want_l=True, eta=eta)
        _assert_same(res, diagonalize_reference(A, p), eta, p)
        # and in Python integers, independent of the reference
        L = res.L.astype(object)
        assert np.array_equal((L.T @ A.astype(object) @ L) % p,
                              np.diag(res.diagonal))


def test_symmetric_entries_round_trip():
    rng = np.random.default_rng(89)
    A = random_symmetric(rng, 9, 5)
    A[3] = A[:, 3] = 0
    S = SymmetricEntries.from_dense(A)
    assert np.array_equal(np.asarray(S), A)
    assert np.array_equal([row.copy() for row in S.dense_rows()], A)
    assert np.all(S.rows <= S.cols) and S.vals.all()
    # sorted by column, then row
    assert np.all(np.diff(S.cols * 9 + S.rows) > 0)
    # repeated positions are summed mod p and zero sums dropped
    summed = SymmetricEntries.coalesce(
        9, 5, np.concatenate([S.rows, S.rows]),
        np.concatenate([S.cols, S.cols]), np.concatenate([S.vals, 5 - S.vals]))
    assert summed.vals.size == 0
    assert SymmetricEntries.coalesce(9, 5, S.rows, S.cols, 6 * S.vals) == S


def test_permuted_is_the_congruence():
    rng = np.random.default_rng(97)
    for alpha in (0, 1, 9, 30):
        A = random_symmetric(rng, alpha, 7, hollow=bool(alpha % 2))
        S = SymmetricEntries.from_dense(A)
        order = rng.permutation(alpha)
        P = np.zeros((alpha, alpha), dtype=np.int64)
        P[order, np.arange(alpha)] = 1
        moved = S.permuted(order)
        assert np.array_equal(np.asarray(moved), P.T @ A @ P)
        assert moved == SymmetricEntries.from_dense(P.T @ A @ P)


def test_permuted_refuses_an_order_that_is_not_a_permutation():
    # a repeat would leave positions of the inverse uninitialized, and a
    # short, out-of-range or float order would not index at all
    S = SymmetricEntries.from_dense(np.array([[0, 1, 2], [1, 0, 1],
                                              [2, 1, 1]]))
    for order in ([0, 0, 2], [2, 1, 0, 0], [0, 1, 5], [2.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match="permutation"):
            S.permuted(np.array(order))
    assert np.array_equal(np.asarray(S.permuted(np.array([2, 0, 1]))),
                          [[1, 2, 1], [2, 0, 1], [1, 1, 0]])


def test_small_flushes_run_on_one_blas_thread(monkeypatch):
    # every product below BLAS_SERIAL_MACS runs on one thread, every other
    # one on the caller's count, which each flush restores on its way out,
    # also when a product raises
    calls = []
    monkeypatch.setattr(quadform, "_openblas",
                        lambda: (lambda: 3, calls.append))
    monkeypatch.setattr(quadform, "PANEL", 4)
    A = random_symmetric(np.random.default_rng(73), 40, 5)
    eta = np.ones(40, dtype=np.int64)
    _assert_same(diagonalize(A, 5, want_l=True, eta=eta),
                 diagonalize_reference(A, 5), eta, 5)
    assert calls and calls == [1, 3] * (len(calls) // 2)
    calls.clear()
    monkeypatch.setattr(quadform, "BLAS_SERIAL_MACS", 0)
    diagonalize(A, 5)
    assert calls == []
    monkeypatch.setattr(quadform, "BLAS_SERIAL_MACS", 10 ** 9)
    monkeypatch.setattr(quadform.np, "subtract", None)
    with pytest.raises(TypeError):
        diagonalize(A, 5)
    assert calls == [1, 3]


def test_blas_threads_are_left_alone_beside_other_threads(monkeypatch):
    # the thread count is global to the process, so with a second Python
    # thread alive no flush changes it, and a thread started during a flush
    # sends the next product back to the caller's count
    calls = []
    monkeypatch.setattr(quadform, "_openblas",
                        lambda: (lambda: 3, calls.append))
    monkeypatch.setattr(quadform, "PANEL", 4)
    A = random_symmetric(np.random.default_rng(83), 40, 5)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert np.array_equal(diagonalize(A, 5).diagonal,
                              diagonalize_reference(A, 5).diagonal)
        assert calls == []
    finally:
        release.set()
        other.join()
    diagonalize(A, 5)
    assert calls
    calls.clear()
    release.clear()
    other = threading.Thread(target=release.wait)
    with quadform._blas_threads() as fit:
        fit(0)
        other.start()
        fit(0)
        fit(0)
    release.set()
    other.join()
    assert calls == [1, 3]


def test_other_threads_never_see_the_serial_count():
    # with the real library: a thread that reads the count while another
    # diagonalizes, flushing only small products, reads the count it set
    api = quadform._openblas()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    get, put = api
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS runs on one thread here")
        A = random_symmetric(np.random.default_rng(89), 400, 5)
        A[np.abs(np.subtract.outer(np.arange(400), np.arange(400))) > 40] = 0
        seen, done = set(), threading.Event()

        def watch():
            while not done.is_set():
                seen.add(get())
        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            for _ in range(5):
                diagonalize(A, 5)
        finally:
            done.set()
            watcher.join()
        assert seen == {2}
        assert get() == 2
    finally:
        put(before)


def test_missing_blas_library_is_ignored(monkeypatch):
    monkeypatch.setattr(quadform, "_openblas", lambda: None)
    A = random_symmetric(np.random.default_rng(79), 30, 7)
    assert np.array_equal(diagonalize(A, 7).diagonal,
                          diagonalize_reference(A, 7).diagonal)


def test_zero_and_identity_matrices():
    for p in (3, 11):
        z = diagonalize(np.zeros((5, 5), dtype=np.int64), p, want_l=True)
        assert z.rank == 0 and not z.diagonal.any()
        assert np.array_equal(z.L, np.eye(5, dtype=np.int64))
        e = diagonalize(np.eye(5, dtype=np.int64), p)
        assert e.rank == 5
        assert np.array_equal(e.diagonal, np.ones(5, dtype=np.int64))


def test_empty_and_single_coordinate():
    empty = diagonalize(np.zeros((0, 0), dtype=np.int64), 5, want_l=True,
                        eta=np.zeros(0, dtype=np.int64))
    assert empty.rank == 0 and empty.diagonal.shape == (0,)
    assert empty.L.shape == (0, 0) and empty.mu.shape == (0,)
    columns = diagonalize(np.zeros((0, 0), dtype=np.int64), 5,
                          eta=np.zeros((0, 3), dtype=np.int64))
    assert columns.L is None and columns.mu.shape == (0, 3)
    one = diagonalize(np.array([[4]]), 5, want_l=True, eta=np.array([3]))
    assert one.diagonal.tolist() == [4]
    assert one.rank == 1
    assert one.L.tolist() == [[1]]
    assert one.mu.tolist() == [3]


def test_diagonalize_validation():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0, 1], [2, 0]]), 5)
    with pytest.raises(ValueError):
        diagonalize(np.zeros((3, 3), dtype=np.int64), 5,
                    eta=np.zeros(2, dtype=np.int64))



@pytest.mark.parametrize("p, error", [
    (9, ValueError), (1, ValueError), (-3, ValueError), (9.5, TypeError),
])
def test_diagonalize_refuses_a_modulus_that_is_not_an_odd_prime(p, error):
    # p = 9 once gave diagonal [1, 1] and rank 2, p = 1 rank 0, p = -3 a
    # diagonal [-1, -2], and 9.5 was accepted
    with pytest.raises(error):
        diagonalize([[1, 1], [1, 2]], p)


def test_diagonalize_refuses_a_non_integer_eta():
    # eta = [0.9, 0.2] was truncated to mu = [0, 0]
    with pytest.raises(TypeError, match="eta must hold integers"):
        diagonalize(np.eye(2, dtype=np.int64), 5, eta=[0.9, 0.2])


@pytest.mark.parametrize("engine", [diagonalize, diagonalize_reference,
                                    split_step])
@pytest.mark.parametrize("theta", [
    [[1, 0], [0, 2.7]],
    np.array([[2 ** 63 + 1]], dtype=np.uint64),
], ids=["float", "uint64"])
def test_non_integer_theta_is_refused(engine, theta):
    # the entry 2.7 was read as 2, and 2^63 + 1 wrapped to a wrong residue
    with pytest.raises(TypeError, match="theta must hold integers"):
        engine(theta, 5)

def test_refuses_modulus_beyond_float64():
    # the lazy bound p + (alpha + PANEL)(p - 1)^2 is ~397 * 2^53 here, and
    # float64 elimination of this matrix gives L^T A L != diag
    p, alpha = 100000007, 262
    rng = np.random.default_rng(0)
    A = rng.integers(0, p, size=(alpha, alpha))
    A = (A + A.T) % p
    with pytest.raises(ValueError, match="p = 100000007 with alpha = 262"):
        diagonalize(A, p, want_l=True)


def test_l_skipped_by_default():
    res = diagonalize(np.eye(3, dtype=np.int64), 5, eta=np.array([1, 2, 3]))
    assert res.L is None
    assert res.mu.tolist() == [1, 2, 3]


def test_result_arrays_read_only():
    res = diagonalize(np.eye(2, dtype=np.int64), 3, want_l=True,
                      eta=np.array([1, 1]))
    for arr in (res.diagonal, res.L, res.mu):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_gf_rank_knowns():
    assert gf_rank(np.eye(4, dtype=np.int64), 7) == 4
    assert gf_rank(np.zeros((3, 3), dtype=np.int64), 3) == 0
    assert gf_rank(np.array([[0, 1], [1, 0]]), 3) == 2
    # [[1,2],[2,4]] has proportional rows
    assert gf_rank(np.array([[1, 2], [2, 4]]), 5) == 1
    v = np.array([1, 2, 3])
    assert gf_rank(np.outer(v, v), 7) == 1
    # rectangular input is fine
    assert gf_rank(np.array([[1, 0, 2], [0, 1, 1]]), 5) == 2
    # 5 = 0 mod 5 knocks the rank down
    assert gf_rank(np.array([[5]]), 5) == 0


def _sparse_symmetric(rng, n: int, p: int, density: float) -> np.ndarray:
    M = np.where(rng.random((n, n)) < density, rng.integers(1, p, (n, n)), 0)
    return np.triu(M) + np.triu(M, 1).T


def test_diagonalize_checks_hand_built_entries():
    # SymmetricEntries' constructor checks nothing, and shuffled entries
    # made the engine raise IndexError or, on one form, return a wrong
    # diagonal; diagonalize checks the layout once and raises ValueError,
    # while entries built by from_dense, coalesce and permuted pass
    rng = np.random.default_rng(0)
    p = 5
    shuffled = 0
    for _ in range(300):
        n = int(rng.integers(3, 40))
        A = _sparse_symmetric(rng, n, p, 0.3)
        S = SymmetricEntries.from_dense(A)
        k = rng.permutation(S.vals.size)
        if np.any(k[1:] < k[:-1]):
            shuffled += 1
            with pytest.raises(ValueError, match="sorted by column"):
                diagonalize(SymmetricEntries(n, S.rows[k], S.cols[k],
                                             S.vals[k]), p)
        summed = SymmetricEntries.coalesce(
            n, p, np.concatenate([S.rows, S.rows]),
            np.concatenate([S.cols, S.cols]), np.concatenate([S.vals, S.vals]))
        for built in (S, summed, S.permuted(rng.permutation(n))):
            res = diagonalize(built, p, want_l=True)
            B = np.asarray(built).astype(object)
            assert np.array_equal((res.L.T @ B @ res.L) % p,
                                  np.diag(res.diagonal))
    # a form of one entry, or a lucky permutation, stays sorted
    assert shuffled > 250
    empty = np.zeros(0, dtype=np.int64)
    assert diagonalize(SymmetricEntries.coalesce(4, p, empty, empty, empty),
                       p).rank == 0
    S = SymmetricEntries.from_dense(_sparse_symmetric(rng, 6, p, 0.5))
    r, c, v = S.rows, S.cols, S.vals
    off = np.flatnonzero(r != c)[0]
    lower = r.copy(), c.copy()
    lower[0][off], lower[1][off] = c[off], r[off]
    malformed = [
        (6, *lower, v),                                   # below the diagonal
        (6, np.repeat(r, 2), np.repeat(c, 2), np.repeat(v, 2)),  # repeats
        (6, r, c, np.where(np.arange(v.size) == 2, 0, v)),       # a zero
        (6, r, c, np.where(np.arange(v.size) == 2, p, v)),       # p itself
        (c.max(), r, c, v),                               # column past size
        (6, r - 1, c, v),                                 # negative row
        (6, r, c, v[:-1]),                                # lengths differ
    ]
    for size, rows, cols, vals in malformed:
        with pytest.raises(ValueError, match="upper-triangle positions"):
            diagonalize(SymmetricEntries(size, rows, cols, vals), p)


@pytest.mark.parametrize("size", [2.9, 2.0, "2"])
def test_symmetric_entries_size_must_be_an_integer(size):
    # int(size) truncated 2.9 to 2, and diagonalize eliminated the form
    one = np.array([0])
    with pytest.raises(TypeError):
        SymmetricEntries(size, one, one, np.array([1]))
    assert SymmetricEntries(np.int64(2), one, one, np.array([1])).size == 2


@pytest.mark.parametrize("field, values", [
    ("vals", [2.5]), ("vals", [3.7]), ("rows", [0.0]), ("cols", [1.0]),
    ("vals", np.array([2], dtype=np.uint64))])
def test_hand_built_entries_must_hold_integers(field, values):
    # the value 2.5 gave diagonal [5, 2] at rank 2 and 3.7 raised
    # ZeroDivisionError; float rows or columns raised IndexError. The dense
    # path refuses the same values
    arrays = {"rows": np.array([0]), "cols": np.array([1]),
              "vals": np.array([2])}
    arrays[field] = np.asarray(values)
    with pytest.raises(TypeError, match="theta must hold integers"):
        diagonalize(SymmetricEntries(2, **arrays), 7, eta=np.array([1, 2]))


def test_hand_built_entries_from_lists():
    # lists raised AttributeError in the constructor's setflags, before
    # diagonalize could check their layout; now they are taken as arrays,
    # so float lists reach its TypeError. An array passed in is kept as it
    # is and becomes read-only
    S = SymmetricEntries(2, [0, 0], [0, 1], [1, 2])
    eta = np.array([1, 2])
    _assert_same(diagonalize(S, 5, want_l=True, eta=[1, 2]),
                 diagonalize_reference(np.asarray(S), 5), eta, 5)
    with pytest.raises(TypeError, match="theta must hold integers"):
        diagonalize(SymmetricEntries(2, [0], [1], [2.5]), 5)
    with pytest.raises(ValueError, match="upper-triangle positions"):
        diagonalize(SymmetricEntries(2, [1], [0], [2]), 5)
    vals = np.array([2])
    assert SymmetricEntries(2, [0], [1], vals).vals is vals
    assert not vals.flags.writeable


EMPTY = np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("size, rows, cols, vals, error", [
    (-3, EMPTY, EMPTY, EMPTY, "size must be at least 0, got -3"),
    (2, [[0]], [[1]], [[2]], r"rows must be 1-D, got shape \(1, 1\)"),
    (2, [0], 1, [2], r"cols must be 1-D, got shape \(\)"),
    (2, [0], [1], np.array([[2]]), r"vals must be 1-D, got shape \(1, 1\)"),
], ids=["negative-size", "rows-2d", "cols-0d", "vals-2d"])
def test_symmetric_entries_refuse_a_negative_size_or_arrays_not_1d(
        size, rows, cols, vals, error):
    # a negative size was built, then failed inside numpy in diagonalize
    # ("negative dimensions") or as "eta must have -1 entries" in
    # QuadraticForm; arrays of another rank met numpy's "same number of
    # dimensions" error
    with pytest.raises(ValueError, match=error):
        SymmetricEntries(size, rows, cols, vals)
    if isinstance(vals, np.ndarray):
        assert vals.flags.writeable  # refused before it was kept


@pytest.mark.parametrize("p, bound", [(3, 1.45), (10007, 1.8)])
def test_right_hand_sides_are_held_once(p, bound):
    # with L, the result is the int64 alpha x alpha array L^T I, and each
    # of its rows is written there once, in output order: the elimination's
    # traced peak stays within bound times that array. A float copy of the
    # right-hand sides in coordinate order, gathered and then cast, reached
    # 1.67x (p = 3, float32) and 2.33x (p = 10007, float64)
    c = normalize_to_standard_form(
        random_circuit(np.random.default_rng(1), p, 20, 3000))
    q = phase_polynomial_direct(c, (0,) * 20, (1,) * 20)
    alpha = q.theta_entries.size
    assert alpha > 1000
    tracemalloc.start()
    try:
        res = diagonalize(q.theta_entries, p, want_l=True, eta=q.eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.L.shape == (alpha, alpha) and res.L.dtype == np.int64
    assert np.array_equal(res.mu, res.L.T @ q.eta % p)
    assert peak < bound * 8 * alpha ** 2, peak / (8 * alpha ** 2)
