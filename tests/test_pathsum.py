import itertools

import numpy as np
import pytest

from conftest import random_circuit
from quopitsim import (CircuitParseError, Gate, OddPrime, amplitude,
                       brute_force_path_sum, dense_amplitude, diagonalize,
                       extract_phase_polynomial, label_circuit, make_circuit,
                       normalize_to_standard_form, parse_circuit,
                       phase_polynomial_direct)
from quopitsim.circuit import FOURIER, SUM
from quopitsim.evaluator import assemble_amplitude
from quopitsim.oracle import AffineForm
from quopitsim.pathsum import (QuadraticForm, _extract_b_free,
                               render_phase_polynomial)

FIG_TEXT = "p 3\nn 3\nR 0\nF 1\nSUM 0 1\nF 2\nF 0\nSUM 1 2\nF 0\nF 1\nF 2\n"


def fig_circuit():
    return parse_circuit(FIG_TEXT)


def test_affine_form_canonical():
    f = AffineForm.build(5, 7, [(0, 3), (1, 5), (2, 2)])
    assert f.constant == 2
    assert f.coeffs == ((0, 3), (2, 2))  # the coefficient 5 = 0 mod 5 drops
    g = f + AffineForm.build(5, 1, [(0, 2)])
    assert g.coeffs == ((2, 2),)  # 3 + 2 = 0 mod 5
    assert g.constant == 3
    assert (f + 3).constant == 0


def test_affine_form_render():
    f = AffineForm.build(3, 1, [(0, 1), (2, 2)])
    assert f.render() == "x1 + 2*x3 + 1"
    assert AffineForm.const(3, 0).render() == "0"
    assert AffineForm.variable(3, 4).render() == "x5"


def test_labeling_fig_circuit():
    # the worked three-register example: path variables in file order,
    # SUM adds control into target, terminal Fourier gates emit b
    c = fig_circuit()
    a, b = (1, 1, 1), (1, 1, 1)
    lc = label_circuit(c, a, b)
    assert lc.alpha == 3
    start = [f.render() for f in lc.snapshots[0]]
    assert start == ["1", "1", "1"]
    after_sum = [f.render() for f in lc.snapshots[3]]
    assert after_sum == ["1", "x1 + 1", "1"]
    final = [f.render() for f in lc.snapshots[-1]]
    assert final == ["1", "1", "1"]
    # gate-level views
    assert [f.render() for f in lc.gate_inputs(5)] == ["x1 + 1", "x2"]
    assert [f.render() for f in lc.gate_outputs(5)] == ["x1 + 1",
                                                        "x1 + x2 + 1"]
    assert [f.render() for f in lc.gate_inputs(8)] == ["x1 + x2 + 1"]


def test_fig_circuit_phase_polynomial():
    # With a = b = (1,1,1) the x1 coefficient a2 + b2 + b3 = 3 vanishes
    # mod 3, leaving eta = (0, 2, 2). zeta collects each terminal gate's
    # input constant times b: the register-0 input is the bare x3, so only
    # registers 1 and 2 contribute, 1*b2 + 1*b3 = 2; the phase-gate term
    # 2^(-1)*a1*(a1 - 1) = 0 at a1 = 1.
    c = fig_circuit()
    q = extract_phase_polynomial(label_circuit(c, (1, 1, 1), (1, 1, 1)))
    assert np.array_equal(q.theta, np.zeros((3, 3), dtype=np.int64))
    assert q.eta.tolist() == [0, 2, 2]
    assert q.zeta == 2


def test_theta_does_not_depend_on_tuples():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.choice([3, 5, 7]))
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, p, n, int(rng.integers(0, 20)))
        cn = normalize_to_standard_form(c)
        thetas = set()
        for _ in range(4):
            a = tuple(int(v) for v in rng.integers(0, p, size=n))
            b = tuple(int(v) for v in rng.integers(0, p, size=n))
            q = phase_polynomial_direct(cn, a, b)
            thetas.add(q.theta.tobytes())
        assert len(thetas) == 1


def test_direct_extraction_matches_reference():
    rng = np.random.default_rng(17)
    for _ in range(60):
        p = int(rng.choice([3, 5, 7]))
        n = int(rng.integers(1, 4))
        cn = normalize_to_standard_form(
            random_circuit(rng, p, n, int(rng.integers(0, 25))))
        a = tuple(int(v) for v in rng.integers(0, p, size=n))
        b = tuple(int(v) for v in rng.integers(0, p, size=n))
        ref = extract_phase_polynomial(label_circuit(cn, a, b))
        direct = phase_polynomial_direct(cn, a, b)
        assert ref == direct


def test_path_sum_reproduces_dense_amplitude():
    # the central identity: <b|U|a> = p^(-(n+alpha)/2) sum_x chi(S(x)),
    # checked by literal enumeration against the dense simulator
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 25:
        p = 3
        n = int(rng.integers(1, 3))
        cn = normalize_to_standard_form(
            random_circuit(rng, p, n, int(rng.integers(0, 13))))
        q0 = phase_polynomial_direct(cn, (0,) * n, (0,) * n)
        if p ** len(q0.eta) > 100_000:
            continue
        a = tuple(int(v) for v in rng.integers(0, p, size=n))
        b = tuple(int(v) for v in rng.integers(0, p, size=n))
        q = phase_polynomial_direct(cn, a, b)
        got = brute_force_path_sum(q, n)
        want = dense_amplitude(cn, a, b)
        assert abs(got - want) < 1e-9
        checked += 1


def test_label_requires_standard_form():
    c = make_circuit(3, 1, [Gate.phase(0)])
    with pytest.raises(CircuitParseError, match="not in standard form"):
        label_circuit(c, (0,), (0,))
    with pytest.raises(CircuitParseError, match="not in standard form"):
        phase_polynomial_direct(c, (0,), (0,))


def test_label_checks_tuple_lengths():
    c = make_circuit(3, 2, [Gate.fourier(0), Gate.fourier(1)])
    with pytest.raises(ValueError):
        label_circuit(c, (0,), (0, 0))
    # the sweep checks a, phase_polynomial_direct checks b
    for a, b in (((0,), (0, 0)), ((0, 0), (0,))):
        with pytest.raises(ValueError, match="must have length 2, got 1$"):
            phase_polynomial_direct(c, a, b)


def _eta_in_python_ints(lc):
    """eta of S(x), summed gate by gate from the wire labels in Python
    integers, which cannot wrap."""
    p = int(lc.circuit.modulus)
    inv2 = pow(2, -1, p)
    eta = [0] * lc.alpha
    for i, gate in enumerate(lc.circuit.gates):
        if gate.kind == SUM:
            continue
        (u,), (v,) = lc.gate_inputs(i), lc.gate_outputs(i)
        if gate.kind == FOURIER:
            # in * out
            terms = [(u.constant, v.coeffs), (v.constant, u.coeffs)]
        else:
            # 2^(-1) * in * (in - 1): its linear part
            terms = [(inv2 * (2 * u.constant - 1), u.coeffs)]
        for scale, coeffs in terms:
            for l, coeff in coeffs:
                eta[l] += scale * coeff
    return [e % p for e in eta]


def test_eta_terms_do_not_wrap_int64():
    # p is the largest prime the elimination accepts at alpha = 1. The
    # SUMs leave x1's coefficient on register 1 at 0.9991 p, so each phase
    # gate's eta term is near p^2, and 150,000 of them, unreduced, pass
    # 2^63 and wrap, in both extractors alike
    p = 9636251
    gates = [Gate.fourier(0)]
    gates += [Gate.sum(0, 1) if k % 2 == 0 else Gate.sum(1, 0)
              for k in range(1025)]
    gates += [Gate.phase(1)] * 150_000 + [Gate.fourier(0), Gate.fourier(1)]
    c = make_circuit(p, 2, gates)
    a, b = (0, 4376162), (0, 0)
    q = phase_polynomial_direct(c, a, b)
    lc = label_circuit(c, a, b)
    assert q.eta.tolist() == _eta_in_python_ints(lc) == [6397362]
    assert extract_phase_polynomial(lc) == q
    res = diagonalize(q.theta_entries, p, eta=q.eta)
    report = assemble_amplitude(c, q, res.diagonal, res.mu)
    assert report.amplitude.render() == "9636251^(-2/2) * i^3 * chi(9617501)"


def test_outcome_fold_does_not_wrap_int64():
    # b_r multiplies register r's final coefficients; with x1's coefficient
    # near p on each of 100,500 registers and every b_r = p - 1 the sum of
    # the products passes 2^63
    p, n = 9636251, 100_500
    gates = [Gate.fourier(0)]
    gates += [Gate.sum(0, 1) if k % 2 == 0 else Gate.sum(1, 0)
              for k in range(1025)]
    gates += [Gate.sum(1, r) for r in range(2, n)]
    gates += [Gate.fourier(r) for r in range(n)]
    c = make_circuit(p, n, gates)
    a, b = (0,) * n, (p - 1,) * n
    q0, rows = _extract_b_free(c, a)
    want = (int(q0.eta[0]) + sum(v * (p - 1) for v in rows[:, 1].tolist()))
    assert phase_polynomial_direct(c, a, b).eta.tolist() == [want % p]


def test_extraction_refuses_what_elimination_refuses():
    # Theta[0, 0] = 8 * 2^(-1) mod p sums eight residues near 2^60, which
    # passes 2^63; the extractor refuses this (p, alpha) as amplitude does
    # instead of returning the wrapped sum
    p = 2 ** 61 - 1
    c = make_circuit(p, 1, [Gate.fourier(0)] + [Gate.phase(0)] * 8
                     + [Gate.fourier(0)])
    with pytest.raises(ValueError) as extracted:
        phase_polynomial_direct(c, (0,), (0,))
    with pytest.raises(ValueError) as evaluated:
        amplitude(c, (0,), (0,))
    assert str(extracted.value) == str(evaluated.value)
    assert str(extracted.value).startswith(
        f"p = {p} with alpha = 1 is beyond exact float64 elimination")


def test_render_phase_polynomial():
    c = fig_circuit()
    q = extract_phase_polynomial(label_circuit(c, (1, 1, 1), (1, 1, 1)))
    assert render_phase_polynomial(q) == "S(x) = 2*x2 + 2*x3 + 2"
    # squares and cross terms appear with canonical names
    c2 = make_circuit(3, 1, [Gate.fourier(0), Gate.phase(0), Gate.fourier(0)])
    q2 = extract_phase_polynomial(label_circuit(c2, (0,), (0,)))
    assert "x1^2" in render_phase_polynomial(q2)


def test_quadratic_form_equality():
    z = np.zeros((1, 1), dtype=np.int64)
    e = np.zeros(1, dtype=np.int64)
    a = phase_polynomial_direct(
        make_circuit(3, 1, [Gate.fourier(0), Gate.fourier(0)]), (0,), (0,))
    assert a == phase_polynomial_direct(
        make_circuit(3, 1, [Gate.fourier(0), Gate.fourier(0)]), (0,), (0,))
    assert QuadraticForm(3, z, e, 0) != QuadraticForm(3, z, e, 1)


def test_quadratic_form_from_entries_or_dense():
    rng = np.random.default_rng(31)
    cn = normalize_to_standard_form(random_circuit(rng, 5, 3, 30))
    a, b = (1, 2, 3), (4, 0, 1)
    direct = phase_polynomial_direct(cn, a, b)
    ref = extract_phase_polynomial(label_circuit(cn, a, b))
    theta = direct.theta
    assert theta.dtype == np.int64 and theta.any()
    assert np.array_equal(theta, ref.theta)
    with pytest.raises(ValueError):
        theta[0, 0] = 1
    dense = QuadraticForm(5, theta, direct.eta, direct.zeta)
    assert dense == direct
    assert dense.theta_entries == direct.theta_entries
    i, j = (int(v) for v in np.argwhere(theta)[0])
    changed = theta.copy()
    changed[i, j] = changed[j, i] = (theta[i, j] + 1) % 5
    assert QuadraticForm(5, changed, direct.eta, direct.zeta) != direct
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(5, np.triu(theta + 1), direct.eta, direct.zeta)


def test_quadratic_form_keeps_a_copy_of_eta():
    # the caller's eta stays writable, and a later write does not reach
    # the form; a list is taken too
    z = np.zeros((2, 2), dtype=np.int64)
    e = np.array([1, 2])
    q = QuadraticForm(5, z, e, 0)
    e[0] = 3
    assert q.eta.tolist() == [1, 2] and q.eta.dtype == np.int64
    with pytest.raises(ValueError):
        q.eta[0] = 3
    assert QuadraticForm(5, z, [1, 2], 0) == q


@pytest.mark.parametrize("theta,eta", [
    (np.zeros((2, 2), dtype=np.int64), [0.9, 0.2]),
    ([[1, 0], [0, 2.7]], [0, 0]),
])
def test_quadratic_form_refuses_non_integer_entries(theta, eta):
    with pytest.raises(TypeError, match="must hold integers"):
        QuadraticForm(5, theta, eta, 0)


def test_quadratic_form_refuses_an_eta_of_another_size():
    # the path-sum oracle enumerated len(eta) = 1 variables and broadcast
    # them against the 2 x 2 Theta, returning a number instead of failing
    with pytest.raises(ValueError, match="eta must have 2 entries"):
        QuadraticForm(5, np.eye(2, dtype=np.int64), [1], 0)


def test_quadratic_form_checks_its_modulus():
    # any modulus was kept as given, so a form mod 9 was accepted and
    # brute_force_path_sum summed it, and 7.5 stayed 7.5
    z, e = np.zeros((1, 1), dtype=np.int64), np.array([1])
    with pytest.raises(ValueError, match="modulus must be prime"):
        QuadraticForm(9, z, e, 0)
    with pytest.raises(TypeError):
        QuadraticForm(7.5, z, e, 0)
    q = QuadraticForm(np.int64(7), z, e, 0)
    assert q.modulus == 7 and type(q.modulus) is OddPrime


@pytest.mark.parametrize("zeta", [2.5, "3"])
def test_quadratic_form_refuses_a_non_integer_zeta(zeta):
    # both were kept, and brute_force_path_sum then raised IndexError on
    # 2.5 and numpy's UFuncTypeError on "3"
    z, e = np.eye(1, dtype=np.int64), np.array([1])
    with pytest.raises(TypeError):
        QuadraticForm(7, z, e, zeta)
    # an integer of any type is taken, and the oracle sums the form
    q = QuadraticForm(7, z, e, np.int64(3))
    assert q == QuadraticForm(7, z, e, 3)
    brute_force_path_sum(q, 1)
