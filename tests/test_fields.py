import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quopitsim import (ExactScalar, FieldElement, OddPrime, fields,
                       inverse_mod, legendre)

PRIMES = [3, 5, 7, 11, 13]


def test_odd_prime_accepts_primes():
    for p in PRIMES + [17, 101]:
        assert int(OddPrime(p)) == p


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, 0, -3])
def test_odd_prime_rejects(bad):
    with pytest.raises(ValueError):
        OddPrime(bad)


@pytest.mark.parametrize("value", [7.0, 7.9, "7"])
def test_odd_prime_refuses_what_is_not_an_integer(value):
    # int(value) truncated 7.9 to 7 and read "7" as 7; every modulus goes
    # through OddPrime, so a scalar or residue took the truncated modulus
    with pytest.raises(TypeError):
        OddPrime(value)
    with pytest.raises(TypeError):
        ExactScalar(value)
    with pytest.raises(TypeError):
        FieldElement(3, value)
    assert OddPrime(np.int64(7)) == 7
    assert type(OddPrime(np.int32(7))) is OddPrime


def test_odd_prime_validates_once():
    # weil_sum and ExactScalar build an OddPrime from a plain int on every
    # call, so a modulus is checked by trial division only the first time
    fields._odd_prime.cache_clear()
    assert OddPrime(99991) == OddPrime(99991) == 99991
    info = fields._odd_prime.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="9 = 3"):
            OddPrime(9)
    assert fields._odd_prime.cache_info().currsize == 1


@pytest.mark.parametrize("v, prime", [
    (4294967311, True),            # the first prime above 2^32
    (2305843009213693951, True),   # 2^61 - 1
    (1000000000000000003, True),
    (9223372036854775783, True),   # the largest prime below 2^63
    (65537 * 65539, False),        # no factor below the trial limit
    (1000000007 * 1000000009, False),
    # a strong pseudoprime to every prime base up to 23
    (3825123056546413051, False),
])
def test_odd_prime_above_trial_division(v, prime):
    if prime:
        assert OddPrime(v) == v
    else:
        with pytest.raises(ValueError, match=f"modulus must be prime, got {v}$"):
            OddPrime(v)


# both prime: the first above 2^63, and the Mersenne prime 2^89 - 1
@pytest.mark.parametrize("v", [2 ** 63 + 29, 2 ** 89 - 1])
def test_odd_prime_refuses_moduli_from_2_63(v):
    with pytest.raises(ValueError, match="must be below 2\\^63"):
        OddPrime(v)


def test_inverse_mod_examples():
    assert inverse_mod(2, 5) == 3
    assert inverse_mod(2, 7) == 4
    assert inverse_mod(4, 13) == 10


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inverse_mod(14, 7)


@given(st.sampled_from(PRIMES), st.integers(min_value=-100, max_value=100))
def test_inverse_mod_property(p, x):
    if x % p == 0:
        return
    assert (x * inverse_mod(x, p)) % p == 1


def test_field_element_record():
    # the residue record behind ExactScalar.p_phase: reduced, hashable,
    # equal only to a FieldElement with the same residue and modulus
    a = FieldElement(-3, 7)
    assert (a.residue, a.modulus, int(a)) == (4, 7, 4)
    assert a == FieldElement(11, 7)
    assert hash(a) == hash(FieldElement(4, 7))
    assert a != FieldElement(4, 11)
    assert a != 4
    assert repr(a) == "FieldElement(4, mod 7)"
    assert FieldElement(np.int64(9), 7).residue == 2
    with pytest.raises(ValueError):
        FieldElement(1, 9)


@pytest.mark.parametrize("bad", [2.0, FieldElement(2, 7)])
def test_field_element_takes_only_integers(bad):
    with pytest.raises(TypeError):
        FieldElement(bad, 7)
    with pytest.raises(TypeError):
        ExactScalar(7, p_phase=bad)


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(1, 5) == 1
    assert legendre(2, 3) == -1


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=100))
def test_legendre_squares(p, x):
    if x % p == 0:
        return
    assert legendre(x * x, p) == 1


def test_legendre_counts():
    # (p-1)/2 nonzero squares and as many nonsquares
    for p in PRIMES:
        vals = [legendre(x, p) for x in range(1, p)]
        assert vals.count(1) == (p - 1) // 2
        assert vals.count(-1) == (p - 1) // 2


@pytest.mark.parametrize("call", [lambda: inverse_mod(2.5, 7),
                                  lambda: inverse_mod(2, 7.0),
                                  lambda: legendre(2.5, 7),
                                  lambda: legendre(2, 7.0)])
def test_inverse_and_legendre_refuse_floats(call):
    # a float is refused, not truncated to the integer below it
    with pytest.raises(TypeError):
        call()


def test_inverse_and_legendre_take_numpy_integers():
    assert inverse_mod(np.int64(3), np.int64(7)) == 5
    assert legendre(np.int64(2), np.int32(7)) == 1


@pytest.mark.parametrize("p", [1, 9, 15])
def test_legendre_needs_an_odd_prime(p):
    # Euler's criterion is the Legendre symbol only modulo an odd prime:
    # modulo 9 it gives -1 for 2, whose Jacobi symbol is 1
    with pytest.raises(ValueError, match="modulus must be"):
        legendre(2, p)


def test_exact_scalar_mul_examples():
    s = ExactScalar(3, sqrtp_exponent=-1)
    ss = s * s
    assert ss.sqrtp_exponent == -2
    assert ss.quarter_turns == 0
    assert int(ss.p_phase) == 0

    t = ExactScalar(5, sqrtp_exponent=0, quarter_turns=1, p_phase=1)
    tt = t * t
    assert (tt.sqrtp_exponent, tt.quarter_turns, int(tt.p_phase)) == (0, 2, 2)


def test_exact_scalar_zero():
    z = ExactScalar.zero(5)
    assert z.is_zero
    assert z.to_complex() == 0
    assert abs(z) == 0.0
    assert (z * ExactScalar(5)).is_zero
    assert z == ExactScalar(5, is_zero=True)
    # zero is canonical: exponents are forced to (0, 0, 0)
    assert (z.sqrtp_exponent, z.quarter_turns, int(z.p_phase)) == (0, 0, 0)


def test_exact_scalar_to_complex():
    s = ExactScalar(5, sqrtp_exponent=1, quarter_turns=3, p_phase=2)
    want = (5 ** 0.5) * (-1j) * cmath.exp(4j * cmath.pi / 5)
    assert abs(s.to_complex() - want) < 1e-12
    assert abs(abs(s) - 5 ** 0.5) < 1e-12


def test_exact_scalar_quarter_turn_wraps():
    s = ExactScalar(3, quarter_turns=7)
    assert s.quarter_turns == 3


def test_render_golden():
    assert ExactScalar(3, -1, 0, 0).render() == "3^(-1/2) * i^0 * chi(0)"
    assert ExactScalar.zero(3).render() == "0"
    assert ExactScalar(7, 2, 3, 6).render() == "7^(2/2) * i^3 * chi(6)"


def test_mul_modulus_mismatch():
    with pytest.raises(ValueError):
        ExactScalar(3) * ExactScalar(5)
