"""Odd-prime moduli, residue helpers and the exact scalars amplitudes
live in.

Amplitudes of quopit Clifford circuits are always of the form
p^(k/2) * i^q * chi(c) with chi(c) = exp(2*pi*i*c/p), or exactly zero.
ExactScalar stores that triple (k, q, c) so equality is decidable.
"""
from __future__ import annotations

import cmath
import functools
import operator


@functools.lru_cache(maxsize=256)
def _odd_prime(v: int) -> int:
    """v if it is an odd prime below 2^63, else ValueError. Trial division
    by d < 2^16 settles every v below 2^32 and names a factor; larger v are
    decided by deterministic Miller-Rabin. Memoised: the same few moduli
    are validated on every scalar a caller builds from a plain int, and a
    failed check is not cached."""
    if v < 3 or v % 2 == 0:
        raise ValueError(f"modulus must be an odd prime >= 3, got {v}")
    if v >= 2 ** 63:  # residues are held in int64 arrays
        raise ValueError(f"modulus must be below 2^63, got {v}")
    d = 3
    while d < 2 ** 16 and d * d <= v:
        if v % d == 0:
            raise ValueError(f"modulus must be prime, got {v} = {d}*{v // d}")
        d += 2
    if d * d <= v:
        s = ((v - 1) & (1 - v)).bit_length() - 1  # 2^s exactly divides v - 1
        # the first twelve primes as bases decide every v below 3.3e24
        # (Sorenson & Webster 2015)
        for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(base, (v - 1) >> s, v)
            if x != 1 and all(pow(x, 1 << k, v) != v - 1 for k in range(s)):
                raise ValueError(f"modulus must be prime, got {v}")
    return v


class OddPrime(int):
    """An odd prime modulus below 2^63, validated at construction: by trial
    division below 2^32, and by deterministic Miller-Rabin above. The value
    must be an integer (anything `operator.index` accepts, TypeError
    otherwise): a float or a string is refused rather than converted."""

    def __new__(cls, value):
        return super().__new__(cls, _odd_prime(operator.index(value)))


def inverse_mod(x: int, p: int) -> int:
    """Multiplicative inverse of x modulo p; numpy integers are accepted,
    floats are refused rather than truncated. p is not checked for
    primality: the elimination calls this once per pivot."""
    p = operator.index(p)
    x = operator.index(x) % p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {p}")
    return pow(x, -1, p)


class FieldElement:
    """A residue modulo an odd prime: the record `ExactScalar.p_phase`
    returns. The residue must be an integer (anything `operator.index`
    accepts); it is stored reduced into [0, p)."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        p = modulus if isinstance(modulus, OddPrime) else OddPrime(modulus)
        self.residue = operator.index(residue) % p
        self.modulus = p

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.residue == other.residue and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __int__(self):
        return self.residue

    def __repr__(self):
        return f"FieldElement({self.residue}, mod {self.modulus})"


def legendre(x: int, p: int) -> int:
    """Legendre symbol: 0 at zero, +1 for nonzero squares, -1 otherwise.

    Euler's criterion x^((p-1)/2) mod p via fast modular exponentiation,
    which is the Legendre symbol only for an odd prime p, so p goes through
    `OddPrime`. Floats are refused rather than truncated.
    """
    p = OddPrime(p)
    residue = operator.index(x) % p
    if residue == 0:
        return 0
    e = pow(residue, (p - 1) // 2, p)
    return 1 if e == 1 else -1


_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


class ExactScalar:
    """p^(k/2) * i^q * chi(c), or exactly zero (stored canonically as (0,0,0)).

    Canonical: two nonzero scalars are equal as complex numbers iff their
    (k, q, c) triples match, since i^q*chi(c) is a primitive 4p-th root power
    with gcd(4, p) = 1 and the magnitude p^(k/2) pins k.
    """

    __slots__ = ("is_zero", "sqrtp_exponent", "quarter_turns", "p_phase", "modulus")

    def __init__(self, modulus, sqrtp_exponent: int = 0, quarter_turns: int = 0,
                 p_phase: int = 0, is_zero: bool = False):
        p = modulus if isinstance(modulus, OddPrime) else OddPrime(modulus)
        self.modulus = p
        self.is_zero = bool(is_zero)
        if self.is_zero:
            sqrtp_exponent = quarter_turns = p_phase = 0
        self.sqrtp_exponent = operator.index(sqrtp_exponent)
        self.quarter_turns = operator.index(quarter_turns) % 4
        self.p_phase = FieldElement(p_phase, p)

    @classmethod
    def zero(cls, modulus) -> "ExactScalar":
        return cls(modulus, is_zero=True)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
        if self.is_zero or other.is_zero:
            return ExactScalar.zero(self.modulus)
        return ExactScalar(
            self.modulus,
            self.sqrtp_exponent + other.sqrtp_exponent,
            self.quarter_turns + other.quarter_turns,
            self.p_phase.residue + other.p_phase.residue,
        )

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        p = self.modulus
        magnitude = float(p) ** (self.sqrtp_exponent / 2)
        root = cmath.exp(2j * cmath.pi * self.p_phase.residue / p)
        return magnitude * _QUARTER_TURNS[self.quarter_turns] * root

    def __abs__(self) -> float:
        if self.is_zero:
            return 0.0
        return float(self.modulus) ** (self.sqrtp_exponent / 2)

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero == other.is_zero
        return (self.sqrtp_exponent == other.sqrtp_exponent
                and self.quarter_turns == other.quarter_turns
                and self.p_phase == other.p_phase)

    def __hash__(self):
        return hash((self.modulus, self.is_zero, self.sqrtp_exponent,
                     self.quarter_turns, self.p_phase.residue))

    def render(self) -> str:
        """Exact text form `p^(k/2) * i^q * chi(c)`; zero renders as `0`."""
        if self.is_zero:
            return "0"
        return (f"{self.modulus}^({self.sqrtp_exponent}/2)"
                f" * i^{self.quarter_turns} * chi({self.p_phase.residue})")

    def __repr__(self):
        return f"ExactScalar({self.render()})"
