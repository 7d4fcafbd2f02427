"""Exact arithmetic over F_p and the scalar algebra amplitudes live in.

Amplitudes of quopit Clifford circuits are always of the form
p^(k/2) * i^q * chi(c) with chi(c) = exp(2*pi*i*c/p), or exactly zero.
ExactScalar stores that triple (k, q, c) so equality is decidable.
"""
from __future__ import annotations

import cmath
import functools
import re


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
    division below 2^32, and by deterministic Miller-Rabin above."""

    def __new__(cls, value):
        return super().__new__(cls, _odd_prime(int(value)))


def inverse_mod(x: int, p: int) -> int:
    """Multiplicative inverse of x modulo p; numpy integers are accepted."""
    p = int(p)
    x = int(x) % p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {p}")
    return pow(x, -1, p)


class FieldElement:
    """A residue modulo an odd prime, with field arithmetic."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        p = modulus if isinstance(modulus, OddPrime) else OddPrime(modulus)
        self.residue = int(residue) % p
        self.modulus = p

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other
        return FieldElement(other, self.modulus)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.residue + o.residue, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.residue - o.residue, self.modulus)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.residue * o.residue, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.residue, self.modulus)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return FieldElement(pow(self.residue, exponent, self.modulus), self.modulus)

    def inverse(self) -> "FieldElement":
        return FieldElement(inverse_mod(self.residue, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.residue == other.residue and self.modulus == other.modulus
        if isinstance(other, int):
            return self.residue == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __int__(self):
        return self.residue

    def __repr__(self):
        return f"FieldElement({self.residue}, mod {self.modulus})"


def legendre(x, p: int | None = None) -> int:
    """Legendre symbol: 0 at zero, +1 for nonzero squares, -1 otherwise.

    Euler's criterion x^((p-1)/2) mod p via fast modular exponentiation.
    """
    if isinstance(x, FieldElement):
        residue, p = x.residue, x.modulus
    else:
        if p is None:
            raise TypeError("legendre needs a modulus for a plain integer")
        residue = int(x) % p
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
                 p_phase=0, is_zero: bool = False):
        p = modulus if isinstance(modulus, OddPrime) else OddPrime(modulus)
        self.modulus = p
        self.is_zero = bool(is_zero)
        if self.is_zero:
            self.sqrtp_exponent = 0
            self.quarter_turns = 0
            self.p_phase = FieldElement(0, p)
        else:
            self.sqrtp_exponent = int(sqrtp_exponent)
            self.quarter_turns = int(quarter_turns) % 4
            self.p_phase = p_phase if isinstance(p_phase, FieldElement) \
                else FieldElement(p_phase, p)
            if self.p_phase.modulus != p:
                raise ValueError("p_phase modulus mismatch")

    @classmethod
    def zero(cls, modulus) -> "ExactScalar":
        return cls(modulus, is_zero=True)

    @classmethod
    def one(cls, modulus) -> "ExactScalar":
        return cls(modulus)

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
            self.p_phase + other.p_phase,
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


_SCALAR_RE = re.compile(
    r"^\s*(\d+)\^\((-?\d+)/2\) \* i\^(\d+) \* chi\((\d+)\)\s*$")


def parse_exact_scalar(text: str, modulus=None) -> ExactScalar:
    """Parse the render() form back into an ExactScalar.

    `0` needs the modulus supplied by the caller; a nonzero form carries its
    own p (checked against `modulus` when both are present).
    """
    if text.strip() == "0":
        if modulus is None:
            raise ValueError("parsing `0` needs an explicit modulus")
        return ExactScalar.zero(modulus)
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ValueError(f"not an exact scalar: {text!r}")
    p, k, q, c = (int(g) for g in m.groups())
    if modulus is not None and int(modulus) != p:
        raise ValueError(f"scalar modulus {p} does not match expected {modulus}")
    return ExactScalar(p, k, q, c)
