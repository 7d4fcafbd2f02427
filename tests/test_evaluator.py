"""Closed-form amplitudes: Weil sums, exact reports, and whole-outcome
tables, checked against the dense oracle on small instances."""
from __future__ import annotations

import cmath
import functools
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import random_circuit, standard_corpus
from quopitsim import (CapExceeded, Gate, SymmetricEntries, amplitude,
                       amplitude_table, balance_weight, dense_amplitude,
                       diagonalize, extract_phase_polynomial, label_circuit,
                       make_circuit, normalize_to_standard_form,
                       parse_circuit, phase_polynomial_direct, probability,
                       weil_sum)
from quopitsim import evaluator, quadform
from quopitsim.evaluator import phase_unit_exponent
from quopitsim.fields import ExactScalar, legendre


def direct_weil(lam: int, mu: int, p: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * ((lam * x * x + mu * x) % p) / p)
               for x in range(p))


def test_weil_sum_degenerate_cases():
    assert weil_sum(0, 0, 7) == ExactScalar(7, sqrtp_exponent=2)
    assert weil_sum(0, 0, 7).to_complex() == 7
    assert weil_sum(0, 3, 7).is_zero
    assert weil_sum(7, 14, 7) == ExactScalar(7, sqrtp_exponent=2)  # mod p


def test_weil_sum_takes_numpy_integers():
    # diagonal and mu entries arrive as np.int64, whose mu * mu wraps near
    # p = 10^7
    p = 9636251
    exact = weil_sum(5, 9000000, p)
    assert weil_sum(np.int64(5), np.int64(9000000), p) == exact
    assert exact.render() == f"{p}^(1/2) * i^1 * chi(660288)"


def test_weil_sum_gauss_values():
    # the pure quadratic sum has magnitude sqrt(p); it is real for
    # p = 1 mod 4 and purely imaginary for p = 3 mod 4
    assert weil_sum(1, 0, 5).to_complex() == pytest.approx(5 ** 0.5)
    assert weil_sum(1, 0, 13).to_complex() == pytest.approx(13 ** 0.5)
    assert weil_sum(1, 0, 7).to_complex() == pytest.approx(1j * 7 ** 0.5)
    assert weil_sum(1, 0, 3).to_complex() == pytest.approx(1j * 3 ** 0.5)
    assert phase_unit_exponent(5) == 0
    assert phase_unit_exponent(7) == 1


def test_weil_sum_matches_direct_summation():
    for p in (3, 5, 7):
        for lam in range(p):
            for mu in range(p):
                exact = weil_sum(lam, mu, p).to_complex()
                assert abs(exact - direct_weil(lam, mu, p)) < 1e-9


def test_double_fourier_negates_the_input():
    for p in (3, 5):
        c = make_circuit(p, 1, [Gate.fourier(0), Gate.fourier(0)])
        for a in range(p):
            for b in range(p):
                rep = amplitude(c, (a,), (b,))
                if b == (-a) % p:
                    assert rep.amplitude == ExactScalar(p)
                    assert rep.probability == 1
                else:
                    assert rep.amplitude.is_zero
                    assert rep.probability == 0
                    assert rep.z_size > 0


def test_phase_only_circuit_invariants():
    rep = balance_weight(make_circuit(3, 1, [Gate.phase(0)]))
    assert rep.weight == 1.0
    assert rep.rank == 2
    assert rep.alpha == 3
    assert rep.amplitude == ExactScalar(3)


def test_amplitude_matches_dense_oracle():
    rng = np.random.default_rng(73)
    for _ in range(30):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        c = random_circuit(rng, p, n, int(rng.integers(0, 15)))
        a = tuple(int(v) for v in rng.integers(0, p, size=n))
        b = tuple(int(v) for v in rng.integers(0, p, size=n))
        rep = amplitude(c, a, b)
        assert abs(rep.amplitude.to_complex() - dense_amplitude(c, a, b)) < 1e-9
        assert float(rep.probability) == pytest.approx(
            abs(rep.amplitude.to_complex()) ** 2)
        if not rep.amplitude.is_zero:
            assert abs(rep.amplitude.to_complex()) == pytest.approx(rep.weight)


def test_amplitude_normalizes_internally():
    c = make_circuit(5, 2, [Gate.phase(0), Gate.sum(1, 0)])
    cn = normalize_to_standard_form(c)
    for a in ((0, 0), (1, 3), (4, 2)):
        r1 = amplitude(c, a, (2, 2))
        r2 = amplitude(cn, a, (2, 2))
        assert r1.amplitude == r2.amplitude
        assert r1.probability == r2.probability


def test_probability_shortcut():
    c = make_circuit(3, 1, [Gate.fourier(0)])
    assert probability(c, (0,), (1,)) == Fraction(1, 3)


def test_table_matches_pointwise_evaluation():
    rng = np.random.default_rng(91)
    for _ in range(8):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        c = random_circuit(rng, p, n, int(rng.integers(0, 12)))
        a = tuple(int(v) for v in rng.integers(0, p, size=n))
        table = amplitude_table(c, a)
        assert len(table) == p ** n
        for rep, b in zip(table, product(range(p), repeat=n)):
            single = amplitude(c, a, b)
            assert rep.amplitude == single.amplitude
            assert rep.probability == single.probability
            assert rep.rank == single.rank
            assert rep.alpha == single.alpha


def test_table_probabilities_sum_to_one():
    rng = np.random.default_rng(97)
    for _ in range(10):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        c = random_circuit(rng, p, n, int(rng.integers(0, 15)))
        a = tuple(int(v) for v in rng.integers(0, p, size=n))
        table = amplitude_table(c, a)
        total = sum(rep.probability for rep in table)
        assert total == 1
        nonzero = {rep.probability for rep in table if rep.probability}
        assert len(nonzero) == 1  # balanced: one shared value


def reference_amplitude(c, a, b) -> ExactScalar:
    """<b|U|a> without the closed-form assembly: the reference extractor,
    a diagonalization in reversed coordinate order, and a product of
    one-variable Weil sums."""
    p, n = int(c.modulus), c.n
    q = extract_phase_polynomial(label_circuit(c, a, b))
    rev = np.arange(len(q.eta))[::-1]
    res = diagonalize(q.theta[np.ix_(rev, rev)], p, eta=q.eta[rev])
    value = ExactScalar(p, sqrtp_exponent=-(n + len(q.eta)), p_phase=q.zeta)
    for lam, mu in zip(res.diagonal.tolist(), res.mu.tolist()):
        value = value * weil_sum(lam, mu, p)
    return value


@pytest.mark.parametrize("p", [65537, 99991])
def test_table_exact_at_large_modulus(p):
    # lambda^(-1) * mu^2 summed over X passes 2^63 at these moduli unless
    # every product is reduced mod p first
    c = make_circuit(p, 1, [Gate.fourier(0), Gate.phase(0)] * 3
                     + [Gate.fourier(0)])
    table = amplitude_table(c, (1,))
    assert len(table) == p
    rows = np.random.default_rng(p).choice(p, size=200, replace=False)
    for b in rows.tolist():
        assert table[b].amplitude == reference_amplitude(c, (1,), (b,)), b


def test_table_cap():
    c = make_circuit(7, 6, [])
    with pytest.raises(CapExceeded):
        amplitude_table(c, (0,) * 6)


def test_table_checks_input_length():
    c = make_circuit(3, 2, [Gate.fourier(0), Gate.sum(0, 1)])
    with pytest.raises(ValueError):
        amplitude_table(c, (0,))
    with pytest.raises(ValueError):
        amplitude_table(c, (0, 0, 0))



def test_float_inputs_are_refused():
    # a float is refused rather than truncated; numpy integers still pass
    c = make_circuit(3, 1, [Gate.fourier(0), Gate.phase(0)])
    for call in (lambda: amplitude(c, (1.7,), (0,)),
                 lambda: amplitude(c, (0,), (np.float64(2.0),)),
                 lambda: amplitude_table(c, (2.9,)),
                 lambda: ExactScalar(3, sqrtp_exponent=0.5),
                 lambda: ExactScalar(3, quarter_turns=1.0),
                 lambda: weil_sum(1.5, 0, 3),
                 lambda: weil_sum(1, 2.0, 3)):
        with pytest.raises(TypeError):
            call()
    assert amplitude(c, (np.int64(1),), (np.int32(2),)) \
        == amplitude(c, (1,), (2,))
    assert amplitude_table(c, (np.int64(2),)) == amplitude_table(c, (2,))
    assert ExactScalar(3, np.int64(1), np.int8(5)) == ExactScalar(3, 1, 1)

def test_table_extracts_once(monkeypatch):
    # b only scales the final register rows, so one b-free pass covers
    # every outcome; count the extractions under both names the evaluator
    # can reach them by
    calls = []

    def counted(name):
        fn = getattr(evaluator, name, None)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_extract_b_free", "phase_polynomial_direct"):
        monkeypatch.setattr(evaluator, name, counted(name), raising=False)
    c = random_circuit(np.random.default_rng(5), 3, 3, 20)
    table = amplitude_table(c, (1, 0, 2))
    assert len(table) == 27
    assert calls == ["_extract_b_free"]


def test_table_memory_is_bounded():
    # 59049 outcomes with alpha = 222: the whole alpha x p^n mu matrix
    # alone would be 100 MB, so only chunked assembly stays under the bound
    c = random_circuit(np.random.default_rng(0), 3, 10, 600)
    tracemalloc.start()
    try:
        table = amplitude_table(c, (0,) * 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 3 ** 10
    assert table[0].alpha == 222
    assert peak < 64 * 2 ** 20, peak / 2 ** 20


def test_table_chunks_follow_alpha():
    # alpha = 1002 and 6561 outcomes: in chunks of a fixed 4096 outcomes,
    # one copy of mu alone would be 31 MB, so only chunks of about
    # FLUSH_ENTRIES entries stay under the bound
    c = random_circuit(np.random.default_rng(1), 3, 8, 3000)
    tracemalloc.start()
    try:
        table = amplitude_table(c, (0,) * 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 3 ** 8
    assert table[0].alpha == 1002
    assert peak < 32 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("entries", [1, 100, 500])
def test_table_does_not_depend_on_the_chunks(monkeypatch, entries):
    # a chunk is FLUSH_ENTRIES // (alpha + m + 1) outcomes, here with
    # alpha = 19 and m = 5: by default the 243 outcomes are one chunk; with
    # a smaller budget they are split into chunks of 1, 4 and 20 outcomes
    c = random_circuit(np.random.default_rng(4), 3, 5, 30)
    a = (2, 0, 1, 1, 0)
    whole = amplitude_table(c, a)
    assert whole[0].alpha == 19
    assert evaluator.FLUSH_ENTRIES // (19 + 5 + 1) >= 3 ** 5
    assert {rep.z_size > 0 for rep in whole} == {False, True}
    monkeypatch.setattr(evaluator, "FLUSH_ENTRIES", entries)
    assert amplitude_table(c, a) == whole


def test_table_rows_share_their_reports():
    # one report per distinct (|Z|, phase): rows with equal nonzero
    # amplitudes are the same object
    c = random_circuit(np.random.default_rng(4), 3, 5, 30)
    nonzero = [rep for rep in amplitude_table(c, (2, 0, 1, 1, 0))
               if not rep.z_size]
    assert len({id(rep) for rep in nonzero}) == len(set(nonzero))
    assert len(set(nonzero)) < len(nonzero)


def test_table_takes_one_legendre_symbol(monkeypatch):
    # the rank, the quarter turns and the weight are worked out once per
    # table, not once per chunk of outcomes
    calls = []

    def counted(x, p):
        calls.append(x)
        return legendre(x, p)
    monkeypatch.setattr(evaluator, "legendre", counted)
    c = random_circuit(np.random.default_rng(1), 3, 8, 300)
    table = amplitude_table(c, (0,) * 8)
    assert len(table) == 3 ** 8 and table[0].rank > 0
    assert len(calls) == 1


def test_amplitude_memory_is_bounded():
    # alpha = 2770: the dense int64 Theta alone would be 59 MB, so only an
    # evaluation that keeps Theta as its nonzeros stays under the bound
    c = random_circuit(np.random.default_rng(0), 3, 50, 8000)
    tracemalloc.start()
    try:
        rep = amplitude(c, (0,) * 50, (0,) * 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.alpha == 2770
    assert rep.alpha ** 2 * 8 > 40 * 2 ** 20
    assert peak < 20 * 2 ** 20, peak / 2 ** 20


def test_invariants_do_not_depend_on_tuples():
    rng = np.random.default_rng(113)
    for _ in range(6):
        p = int(rng.choice([3, 5, 7]))
        n = int(rng.integers(1, 3))
        c = random_circuit(rng, p, n, int(rng.integers(0, 15)))
        reports = []
        for _ in range(5):
            a = tuple(int(v) for v in rng.integers(0, p, size=n))
            b = tuple(int(v) for v in rng.integers(0, p, size=n))
            reports.append(amplitude(c, a, b))
        assert len({rep.rank for rep in reports}) == 1
        assert len({rep.alpha for rep in reports}) == 1
        assert len({rep.weight for rep in reports}) == 1
        base = balance_weight(c)
        assert reports[0].rank == base.rank
        assert reports[0].weight == base.weight


def _canonical(c, a, b):
    # the report of the canonical elimination, whatever amplitude routes
    cn = normalize_to_standard_form(c)
    q = phase_polynomial_direct(cn, a, b)
    res = diagonalize(q.theta_entries, int(cn.modulus), eta=q.eta)
    return evaluator.assemble_amplitude(cn, q, res.diagonal, res.mu)


def _force_route(monkeypatch, order):
    # amplitude eliminates every form in order(alpha): it sorts the
    # coordinates by the values `_row_ends` gives, here the positions the
    # order puts them at
    monkeypatch.setattr(evaluator, "_row_ends",
                        lambda size, rows, cols: np.argsort(order(size)))


def _row_end_order(S):
    return np.argsort(quadform._row_ends(S.size, S.rows, S.cols),
                      kind="stable")


def test_reordered_route_reports_the_canonical_fields():
    # amplitude eliminates every form in row-end order; on the corpus the
    # report matches the canonical one field for field, |Z| included, also
    # where the reordered elimination alone finds another |Z|
    z_moved = routed = 0
    for c in standard_corpus():
        p, n = int(c.modulus), c.n
        for a, b in (((0,) * n, (1,) * n), ((1,) * n, (2,) * n)):
            want = _canonical(c, a, b)
            assert amplitude(c, a, b) == want
            q = phase_polynomial_direct(normalize_to_standard_form(c), a, b)
            order = _row_end_order(q.theta_entries)
            if np.array_equal(order, np.arange(len(order))):
                continue
            routed += 1
            res = diagonalize(q.theta_entries.permuted(order), p,
                              eta=q.eta[order])
            z_moved += int(np.count_nonzero(res.mu[res.diagonal == 0])) \
                != want.z_size
    assert routed > 200
    assert z_moved > 0


# zero amplitudes of corank alpha - r = 1 and 2, with |Z| = 1 and 2
_CORANK_ONE = ("p 3\nn 3\nF 0\nF 2\nSUM 0 1\nF 1\nR 1\nF 0\nSUM 0 1\n"
               "R 1\nSUM 2 1\n", (1, 1, 0), (2, 2, 2))
_CORANK_TWO = ("p 3\nn 3\nF 0\nR 2\nR 0\nR 1\nSUM 2 1\nSUM 1 0\nF 1\n"
               "F 1\nF 0\nSUM 0 2\nSUM 0 2\nSUM 1 2\nR 1\n", (0, 0, 0),
               (1, 1, 1))


def test_routed_zero_amplitude_reruns_only_from_corank_two(monkeypatch):
    # |Z| is 0 or 1 in every order when alpha - r <= 1, so only a zero
    # amplitude of corank 2 or more is eliminated a second time
    _force_route(monkeypatch, lambda size: np.arange(size)[::-1])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return diagonalize(*args, **kwargs)
    monkeypatch.setattr(evaluator, "diagonalize", counted)
    for (text, a, b), corank, runs in ((_CORANK_ONE, 1, 1),
                                       (_CORANK_TWO, 2, 2)):
        c = parse_circuit(text)
        calls.clear()
        rep = amplitude(c, a, b)
        assert rep.amplitude.is_zero
        assert (rep.alpha - rep.rank, rep.z_size) == (corank, corank)
        assert len(calls) == runs
        assert rep == _canonical(c, a, b)


def test_corank_one_z_size_does_not_depend_on_the_order():
    # Z lies among the alpha - r zero-diagonal coordinates and its
    # emptiness is invariant, so with alpha - r <= 1 every order gives the
    # same |Z|; with more, only its emptiness is invariant
    rng = np.random.default_rng(89)
    coranks = set()
    for _ in range(400):
        p = int(rng.choice([3, 5, 7]))
        alpha = int(rng.integers(1, 12))
        rank = int(rng.integers(max(alpha - 2, 0), alpha + 1))
        # G^T D G has rank at most rank by construction
        G = rng.integers(0, p, size=(rank, alpha))
        D = np.diag(rng.integers(1, p, size=rank))
        A = (G.T @ D @ G) % p
        eta = rng.integers(0, p, size=alpha)
        res = diagonalize(A, p, eta=eta)
        z = np.count_nonzero(res.mu[res.diagonal == 0])
        order = rng.permutation(alpha)
        moved = diagonalize(SymmetricEntries.from_dense(A).permuted(order),
                            p, eta=eta[order])
        z_moved = np.count_nonzero(moved.mu[moved.diagonal == 0])
        assert moved.rank == res.rank
        assert bool(z_moved) == bool(z)
        if alpha - res.rank <= 1:
            assert z_moved == z
            coranks.add((alpha - res.rank, int(z)))
    assert coranks == {(0, 0), (1, 0), (1, 1)}


@functools.cache
def _class_circuit(p: int, n: int):
    # the benchmark's `large` (p = 3, n = 50) and `wide` (p = 10007,
    # n = 200) classes, and others: 10^4 gates, uniform over F, R and SUM
    rng = np.random.default_rng(p * n)
    c = random_circuit(rng, p, n, 10_000)
    a = tuple(int(v) for v in rng.integers(0, p, size=n))
    b = tuple(int(v) for v in rng.integers(0, p, size=n))
    return c, a, b


def _front(S) -> int:
    # the most coordinates an elimination in S's order holds in its front
    # when every pivot is taken in order: coordinate c is held from the
    # step of its first neighbour, or its own, through its own step
    first = np.arange(S.size)
    np.minimum.at(first, S.cols, S.rows)
    held = np.zeros(S.size + 1, dtype=np.int64)
    np.add.at(held, first, 1)
    held[1:] -= 1
    return int(np.cumsum(held).max(initial=0))


def test_benchmark_classes_are_routed(monkeypatch):
    # amplitude eliminates the benchmark's classes, p = 3 on 200 registers
    # too, in row-end order, whose front is at most two thirds of the
    # canonical order's (596 of 1190, 187 of 296 and 446 of 1001)
    seen = []

    def recorded(S, *args, **kwargs):
        seen.append(S)
        return diagonalize(S, *args, **kwargs)
    monkeypatch.setattr(evaluator, "diagonalize", recorded)
    for p, n in ((10007, 200), (3, 50), (3, 200)):
        c, a, b = _class_circuit(p, n)
        q = phase_polynomial_direct(normalize_to_standard_form(c), a, b)
        S = q.theta_entries
        seen.clear()
        amplitude(c, a, b)
        assert seen[0] == S.permuted(_row_end_order(S))
        assert 3 * _front(seen[0]) <= 2 * _front(S)


def test_wide_amplitude_memory_is_bounded():
    # the canonical elimination of this form (alpha = 3759) once peaked at
    # 138 MB, since its dense float64 block spanned nearly every
    # coordinate. In row-end order the whole call peaks at 29.4 MB, most of
    # it the extraction: the front's block is 711 coordinates wide (4 MB)
    c, a, b = _class_circuit(10007, 200)
    tracemalloc.start()
    try:
        rep = amplitude(c, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == _canonical(c, a, b)
    assert peak < 40 * 2 ** 20, peak / 2 ** 20


def test_wide_elimination_holds_a_narrow_front(monkeypatch):
    # the block only grows, by half again, as the front outgrows it: its
    # rows, one per slot, stay within half again the row-end order's front
    # and below the canonical order's, and the traced peak is the entries
    # of Theta and the block, not the 3759-coordinate dense form
    sides, pad = [], np.pad

    def record_pad(array, *args, **kwargs):
        # only the block gains rows, one per slot; the panel buffers keep
        # their PANEL rows and grow in columns only
        out = pad(array, *args, **kwargs)
        if out.ndim == 2 and out.shape[0] > array.shape[0]:
            sides.append(out.shape[0])
        return out
    c, a, b = _class_circuit(10007, 200)
    q = phase_polynomial_direct(normalize_to_standard_form(c), a, b)
    order = _row_end_order(q.theta_entries)
    S = q.theta_entries.permuted(order)
    monkeypatch.setattr(quadform.np, "pad", record_pad)
    tracemalloc.start()
    try:
        quadform.diagonalize(S, 10007, eta=q.eta[order])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert max(sides) <= 1.5 * _front(S) < _front(q.theta_entries)
    assert peak < 20 * 2 ** 20, peak / 2 ** 20
