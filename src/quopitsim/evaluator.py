"""Closed-form circuit evaluation.

The amplitude of a standard-form circuit is a quadratic exponential sum,
which factors through the congruence diagonalization of Theta into a product
of one-variable Weil sums. With lambda the diagonal, mu = L^T eta, and the
index sets X = {lambda_i != 0}, Y = {lambda_i = 0, mu_i = 0},
Z = {lambda_i = 0, mu_i != 0}:

    <b|U|a> = p^(-(n + r - alpha)/2) * [Z empty] * i^(r*eps)
              * (prod of lambda over X / p) * chi(zeta - 4^(-1) * sum over X
                of lambda_i^(-1) * mu_i^2)

where r = |X| is the rank of Theta, eps = 0 for p = 1 mod 4 and 1 otherwise,
and (./p) is the Legendre symbol. Everything here is exact integer
arithmetic; floats only appear when a caller asks for complex values.

Only mu and zeta depend on the transition, and both are affine in (a, b).
`_closed_form` therefore evaluates the formula for a whole matrix of mu
columns at once: a single amplitude is one column. An outcome table runs
one b-free extraction, whose final register rows are d eta / d b_i and
d zeta / d b_i, hands `diagonalize` the right-hand sides
[eta(b = 0) | d eta / d b_i], and expands them to every outcome b in
fixed-size chunks, without forming L.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import Circuit, normalize_to_standard_form
from .fields import ExactScalar, OddPrime, inverse_mod, legendre
from .oracle import CapExceeded
from .pathsum import _extract_b_free, phase_polynomial_direct
from .quadform import diagonalize

TABLE_CAP = 100_000
# outcomes assembled at once; bounds a table's alpha x chunk working set
TABLE_CHUNK = 4096


def phase_unit_exponent(p: int) -> int:
    """eps(p): 0 when p = 1 mod 4, else 1 (the i-power attached to each
    nondegenerate one-variable sum)."""
    return 0 if p % 4 == 1 else 1


def weil_sum(lam: int, mu: int, p: int) -> ExactScalar:
    """The one-variable quadratic sum over F_p,
    sum over x of chi(lam*x^2 + mu*x), in exact form.

    lam = mu = 0 gives p; lam = 0 with mu != 0 gives 0; for lam != 0 the
    value is i^eps(p) * (lam/p) * sqrt(p) * chi(-4^(-1)*lam^(-1)*mu^2).
    """
    lam %= p
    mu %= p
    if lam == 0:
        if mu == 0:
            return ExactScalar(p, sqrtp_exponent=2)
        return ExactScalar.zero(p)
    q = phase_unit_exponent(p) + (2 if legendre(lam, p) == -1 else 0)
    c = -inverse_mod(4, p) * inverse_mod(lam, p) * mu * mu
    return ExactScalar(p, sqrtp_exponent=1, quarter_turns=q, p_phase=c)


@dataclass(frozen=True)
class AmplitudeReport:
    """One evaluated transition: the exact amplitude, its probability as an
    exact rational, and the invariants behind them. weight is the magnitude
    p^(-(n + r - alpha)/2) shared by every nonzero outcome of the circuit."""

    amplitude: ExactScalar
    probability: Fraction
    rank: int
    alpha: int
    z_size: int
    weight: float


def _closed_form(p: int, lam: np.ndarray, mu: np.ndarray, zeta: np.ndarray):
    """The Gauss-sum product for each column of mu (alpha x m) with constant
    term zeta (m,): returns the rank r, the quarter turns q shared by every
    column, and per column |Z| and the chi-phase. Each product is reduced
    mod p before it is summed, so int64 stays exact for every p whose
    diagonalization is exact."""
    nz = lam != 0
    r = int(np.count_nonzero(nz))
    z_size = np.count_nonzero(mu[~nz], axis=0)
    lam_inv = np.array([inverse_mod(int(v), p) for v in lam[nz]],
                       dtype=np.int64)
    mu_x = mu[nz]
    # in place: for a table, mu and its copies are alpha x TABLE_CHUNK
    terms = lam_inv[:, None] * mu_x
    terms %= p
    terms *= mu_x
    terms %= p
    phase = (zeta - inverse_mod(4, p) * (terms.sum(axis=0) % p)) % p
    prod = 1
    for v in lam[nz].tolist():
        prod = (prod * v) % p
    q = r * phase_unit_exponent(p) + (2 if r and legendre(prod, p) == -1 else 0)
    return r, q, z_size, phase


def _reports(p: OddPrime, n: int, alpha: int, r: int, q: int,
             z_size: np.ndarray, phase: np.ndarray) -> list[AmplitudeReport]:
    k = alpha - n - r
    weight = float(p) ** (0.5 * k)
    prob = Fraction(int(p)) ** k
    zero, zero_prob = ExactScalar.zero(p), Fraction(0)
    return [AmplitudeReport(zero, zero_prob, r, alpha, z, weight) if z
            else AmplitudeReport(ExactScalar(p, k, q, c), prob, r, alpha, 0,
                                 weight)
            for z, c in zip(z_size.tolist(), phase.tolist())]


def amplitude(c: Circuit, a, b) -> AmplitudeReport:
    """Exact transition amplitude <b|U|a>. The circuit is brought to standard
    form first, so any circuit is accepted."""
    cn = normalize_to_standard_form(c)
    p = int(cn.modulus)
    q = phase_polynomial_direct(cn, a, b)
    alpha = len(q.eta)
    res = diagonalize(q.theta, p, eta=q.eta, assume_canonical=True)
    form = _closed_form(p, res.diagonal, res.mu[:, None], np.array([q.zeta]))
    return _reports(cn.modulus, cn.n, alpha, *form)[0]


def probability(c: Circuit, a, b) -> Fraction:
    """Exact outcome probability |<b|U|a>|^2 as a Fraction."""
    return amplitude(c, a, b).probability


def balance_weight(c: Circuit) -> AmplitudeReport:
    """Evaluate at a = b = 0 just to expose the circuit-level invariants:
    rank, alpha, and the shared magnitude of all nonzero outcomes. Theta does
    not depend on (a, b), so these hold for every transition."""
    zeros = (0,) * c.n
    return amplitude(c, zeros, zeros)


def amplitude_table(c: Circuit, a) -> list[AmplitudeReport]:
    """AmplitudeReport for every outcome b, in lexicographic order of the
    outcome tuples. Refuses tables longer than TABLE_CAP rows."""
    cn = normalize_to_standard_form(c)
    p = int(cn.modulus)
    n = cn.n
    total = p ** n
    if total > TABLE_CAP:
        raise CapExceeded(f"table has {p}^{n} = {total} rows, cap is {TABLE_CAP}")
    q0, rows = _extract_b_free(cn, a)
    alpha = len(q0.eta)
    rhs = np.column_stack([q0.eta, rows[:, 1:].T])
    res = diagonalize(q0.theta, p, eta=rhs, assume_canonical=True)
    reports = []
    for start in range(0, total, TABLE_CHUNK):
        stop = min(start + TABLE_CHUNK, total)
        B = np.array(np.unravel_index(np.arange(start, stop), (p,) * n))
        mu = res.mu[:, 1:] @ B
        mu += res.mu[:, :1]
        mu %= p
        zeta = (q0.zeta + rows[:, 0] @ B) % p
        reports += _reports(cn.modulus, n, alpha,
                            *_closed_form(p, res.diagonal, mu, zeta))
    return reports
