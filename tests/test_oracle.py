import itertools
import tracemalloc

import numpy as np
import pytest

import quopitsim.oracle
from quopitsim import (CapExceeded, Gate, amplitude, brute_force_path_sum,
                       dense_amplitude, dense_state, extract_phase_polynomial,
                       inverse_mod, label_circuit, make_circuit)
from quopitsim.oracle import chi_table, fourier_matrix, phase_vector
from quopitsim.pathsum import QuadraticForm
from quopitsim.quadform import SymmetricEntries


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fourier_matrix_unitary(p):
    F = fourier_matrix(p)
    assert np.allclose(F @ F.conj().T, np.eye(p), atol=1e-12)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fourier_fourth_power_is_identity(p):
    F = fourier_matrix(p)
    assert np.allclose(np.linalg.matrix_power(F, 4), np.eye(p), atol=1e-12)


def test_fourier_entries():
    p = 5
    F = fourier_matrix(p)
    for s in range(p):
        for t in range(p):
            want = np.exp(2j * np.pi * s * t / p) / np.sqrt(p)
            assert abs(F[s, t] - want) < 1e-12


def test_phase_vector_values():
    for p in (3, 5, 7):
        inv2 = inverse_mod(2, p)
        v = phase_vector(p)
        for t in range(p):
            want = np.exp(2j * np.pi * ((t * (t - 1) * inv2) % p) / p)
            assert abs(v[t] - want) < 1e-12
        # t = 0 and t = 1 give phase 1
        assert abs(v[0] - 1) < 1e-12
        assert abs(v[1] - 1) < 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_sum_gate_is_the_right_permutation(p):
    # Sigma |s, t> = |s, s + t>, control register 0
    c = make_circuit(p, 2, [Gate.sum(0, 1)])
    for s, t in itertools.product(range(p), repeat=2):
        psi = dense_state(c, (s, t))
        want = np.zeros((p, p), dtype=complex)
        want[s, (s + t) % p] = 1.0
        assert np.allclose(psi, want, atol=1e-12)


def test_sum_gate_reversed_registers():
    # control register 1, target register 0
    p = 3
    c = make_circuit(p, 2, [Gate.sum(1, 0)])
    for s, t in itertools.product(range(p), repeat=2):
        psi = dense_state(c, (s, t))
        assert abs(psi[(s + t) % p, t] - 1.0) < 1e-12


def test_dense_amplitude_single_fourier():
    p = 7
    c = make_circuit(p, 1, [Gate.fourier(0)])
    F = fourier_matrix(p)
    for a in range(p):
        for b in range(p):
            assert abs(dense_amplitude(c, (a,), (b,)) - F[b, a]) < 1e-12


def test_dense_norm_is_preserved():
    gates = [Gate.fourier(0), Gate.sum(1, 0), Gate.phase(1), Gate.fourier(1),
             Gate.sum(0, 1), Gate.phase(0)]
    c = make_circuit(5, 2, gates)
    psi = dense_state(c, (2, 3))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_dense_norm_violation_raises(monkeypatch):
    # an explicit error, not an assert, so the check survives python -O
    monkeypatch.setattr(quopitsim.oracle, "fourier_matrix",
                        lambda p: 2 * np.eye(p))
    c = make_circuit(3, 1, [Gate.fourier(0)])
    with pytest.raises(RuntimeError, match="norm"):
        dense_state(c, (0,))


def test_gate_arrays_built_once_per_modulus():
    # the dense oracle looks them up on every gate, so each p's arrays are
    # shared, and shared arrays must not be writable
    for build in (chi_table, fourier_matrix, phase_vector):
        arr = build(7)
        assert build(7) is arr
        with pytest.raises(ValueError):
            arr[0] = 0


def test_dense_cap():
    c = make_circuit(7, 6, [Gate.fourier(r) for r in range(6)])
    with pytest.raises(CapExceeded):
        dense_state(c, (0,) * 6)


def test_dense_cap_message_past_the_int_digit_limit():
    # 3^9100 has 4342 digits, more than Python >= 3.11 turns into a string,
    # so the message names the power rather than its value
    with pytest.raises(CapExceeded, match=r"p\^n = 3\^9100 exceeds"):
        dense_state(make_circuit(3, 9100, []), (0,) * 9100)


def test_dense_gate_cap_refuses_before_building():
    # an n = 1 circuit passes the dimension cap at any p below 10^4, but its
    # p x p Fourier gate would not: p = 1031 is refused without allocating
    c = make_circuit(1031, 1, [Gate.fourier(0)])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="p\\^2 = 1062961"):
            dense_state(c, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # 1021^2 is below the cap (a phase gate alone builds no p x p gate)
    c = make_circuit(1021, 1, [Gate.phase(0)])
    assert dense_state(c, (5,)).shape == (1021,)


def test_dense_tuple_length_checked():
    c = make_circuit(3, 2, [Gate.fourier(0), Gate.fourier(1)])
    with pytest.raises(ValueError):
        dense_state(c, (0,))
    with pytest.raises(ValueError):
        dense_amplitude(c, (0, 0), (0,))


def test_path_sum_against_direct_loop():
    # alpha = 2 quadratic form, summed by hand
    p = 5
    theta = np.array([[1, 2], [2, 0]], dtype=np.int64)
    eta = np.array([3, 1], dtype=np.int64)
    q = QuadraticForm(p, theta, eta, 4)
    total = 0j
    for x in itertools.product(range(p), repeat=2):
        x = np.array(x)
        s = (x @ theta @ x + eta @ x + 4) % p
        total += np.exp(2j * np.pi * s / p)
    n = 1
    want = float(p) ** (-(n + 2) / 2) * total
    assert abs(brute_force_path_sum(q, n) - want) < 1e-12


def test_path_sum_alpha_zero():
    q = QuadraticForm(3, np.zeros((0, 0), dtype=np.int64),
                      np.zeros(0, dtype=np.int64), 2)
    want = 3 ** (-0.5) * np.exp(4j * np.pi / 3)
    assert abs(brute_force_path_sum(q, 1) - want) < 1e-12


def test_path_sum_cap():
    alpha = 14
    q = QuadraticForm(3, np.zeros((alpha, alpha), dtype=np.int64),
                      np.zeros(alpha, dtype=np.int64), 0)
    with pytest.raises(CapExceeded):
        brute_force_path_sum(q, 1)


def test_path_sum_cap_message_past_the_int_digit_limit():
    # 3^9100 has 4342 digits, more than Python >= 3.11 turns into a string,
    # so the message names the power rather than its value
    empty = np.zeros(0, dtype=np.int64)
    q = QuadraticForm(3, SymmetricEntries(9100, empty, empty, empty),
                      np.zeros(9100, dtype=np.int64), 0)
    with pytest.raises(CapExceeded, match=r"p\^alpha = 3\^9100 exceeds"):
        brute_force_path_sum(q, 1)


def test_chi_table():
    for p in (3, 5):
        chi = chi_table(p)
        assert abs(chi[0] - 1) < 1e-12
        assert abs(chi[1] - np.exp(2j * np.pi / p)) < 1e-12
        assert abs(np.sum(chi)) < 1e-12  # full character sum vanishes


def test_reference_extractor_refuses_what_amplitude_refuses():
    # Theta[0, 0] = 8 * 2^(-1) mod p sums eight residues near 2^60 in int64,
    # which wraps past 2^63 into p - 4; the reference refuses this
    # (p, alpha) with amplitude's error instead
    p = 2 ** 61 - 1
    c = make_circuit(p, 1, [Gate.fourier(0)] + [Gate.phase(0)] * 8
                     + [Gate.fourier(0)])
    with pytest.raises(ValueError) as extracted:
        extract_phase_polynomial(label_circuit(c, (0,), (0,)))
    with pytest.raises(ValueError) as evaluated:
        amplitude(c, (0,), (0,))
    assert str(extracted.value) == str(evaluated.value)
