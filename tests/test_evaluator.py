"""Closed-form amplitudes: Weil sums, exact reports, and whole-outcome
tables, checked against the dense oracle on small instances."""
from __future__ import annotations

import cmath
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import random_circuit
from quopitsim import (CapExceeded, Gate, amplitude, amplitude_table,
                       balance_weight, dense_amplitude, diagonalize,
                       extract_phase_polynomial, label_circuit, make_circuit,
                       normalize_to_standard_form, probability, weil_sum)
from quopitsim import evaluator
from quopitsim.evaluator import phase_unit_exponent
from quopitsim.fields import ExactScalar


def direct_weil(lam: int, mu: int, p: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * ((lam * x * x + mu * x) % p) / p)
               for x in range(p))


def test_weil_sum_degenerate_cases():
    assert weil_sum(0, 0, 7) == ExactScalar(7, sqrtp_exponent=2)
    assert weil_sum(0, 0, 7).to_complex() == 7
    assert weil_sum(0, 3, 7).is_zero
    assert weil_sum(7, 14, 7) == ExactScalar(7, sqrtp_exponent=2)  # mod p


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
