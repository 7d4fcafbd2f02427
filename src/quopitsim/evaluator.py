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
`_closed_form` therefore takes them as a constant column plus one column
per outcome register, works out the rank, the Legendre symbol and the
weight once, and expands the outcomes itself, a chunk of about
`FLUSH_ENTRIES` entries of mu at a time, so a table's working set is
bounded by that budget rather than by alpha times the number of outcomes.
A single amplitude has no outcome columns: `assemble_amplitude` evaluates
it from one extraction and one diagonalization, which `amplitude` runs,
and which `--explain` runs with L kept for printing. An outcome table runs
one b-free extraction, whose final register rows are d eta / d b_i and
d zeta / d b_i, hands `diagonalize` the right-hand sides
[eta(b = 0) | d eta / d b_i], and passes its mu to `_closed_form` as is,
without forming L.

Only `amplitude` eliminates Theta in another order: the coordinates
sorted by the end of their row of Theta (`quadform._row_ends`), in which
the front `quadform.diagonalize` holds dense is narrow. P^T Theta P with
eta permuted alike is a congruence, under which the amplitude, the
probability, the rank, alpha, the weight and whether Z is empty are
invariant. |Z| is not in general, but Z lies among the alpha - r
coordinates with lambda_i = 0, so where alpha - r <= 1 it is 0 or 1 in
every order, fixed by whether the amplitude is zero. A reordered
elimination that finds Z nonempty with alpha - r >= 2 is redone
canonically, so every report field is the canonical one. Tables and
`--explain` eliminate in the canonical order, since they print or expand
the diagonal and mu themselves.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import CapExceeded, Circuit, normalize_to_standard_form
from .fields import ExactScalar, inverse_mod, legendre
from .pathsum import (QuadraticForm, _extract_b_free,
                      phase_polynomial_direct)
from .quadform import _row_ends, diagonalize

TABLE_CAP = 100_000
# entries of mu per chunk of a table's outcomes; bounds its working set
FLUSH_ENTRIES = 1 << 20


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
    # as Python ints: numpy integers would wrap in mu * mu below; floats
    # are refused rather than truncated
    lam = operator.index(lam) % p
    mu = operator.index(mu) % p
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


def _closed_form(cn: Circuit, lam: np.ndarray, mu: np.ndarray,
                 zeta: np.ndarray) -> list[AmplitudeReport]:
    """The Gauss-sum product of the standard-form circuit cn for each of the
    p^m outcomes b of m registers, in lexicographic order: the diagonal lam
    is shared, and mu (alpha x (m + 1)) and zeta ((m + 1,)) are a constant
    column plus one column per register, so the outcome b has
    mu[:, 0] + mu[:, 1:] b and zeta[0] + zeta[1:] b. A single transition
    is m = 0.

    The rank r, the quarter turns q and the weight are worked out once.
    The outcomes are expanded a chunk at a time, about `FLUSH_ENTRIES`
    entries of mu, and each distinct (|Z|, chi-phase) pair gets one report,
    which a table repeats. Each product is reduced mod p before it is
    summed, so int64 stays exact for every p whose diagonalization is
    exact."""
    p = int(cn.modulus)
    nz = lam != 0
    r = int(np.count_nonzero(nz))
    lam_x = lam[nz].tolist()
    # (4 lambda)^(-1), so the sum over X is the phase's whole X term
    lam_inv = np.array([inverse_mod(4 * v, p) for v in lam_x], np.int64)
    prod = functools.reduce(lambda acc, v: acc * v % p, lam_x, 1)
    q = r * phase_unit_exponent(p) + (2 if r and legendre(prod, p) == -1 else 0)
    alpha, m = mu.shape[0], mu.shape[1] - 1
    k = alpha - cn.n - r
    weight = float(p) ** (0.5 * k)
    prob = Fraction(p) ** k
    zero, zero_prob = ExactScalar.zero(cn.modulus), Fraction(0)

    @functools.cache
    def report(z: int, c: int) -> AmplitudeReport:
        if z:
            return AmplitudeReport(zero, zero_prob, r, alpha, z, weight)
        return AmplitudeReport(ExactScalar(cn.modulus, k, q, c), prob, r,
                               alpha, 0, weight)

    # the rows of X, zeta's and the rest, so that each chunk expands them
    # with one product and X and the rest are slices
    M = np.vstack([mu[nz], zeta, mu[~nz]])
    # the outcome columns in float64, so the product runs through BLAS. It
    # is exact: every entry and digit lies in [0, p), and m (p - 1)^2 <
    # 2^53 wherever p^m <= TABLE_CAP
    outcome = M[:, 1:].astype(np.float64)
    # the place value of each register's digit in an outcome's index
    place = p ** np.arange(m)[::-1, None]
    # per outcome: mu's alpha rows, zeta's and the m digits
    chunk = max(1, FLUSH_ENTRIES // (alpha + m + 1))
    reports = []
    for start in range(0, p ** m, chunk):
        B = np.arange(start, min(start + chunk, p ** m)) // place % p
        E = (outcome @ B.astype(np.float64)).astype(np.int64)
        E += M[:, :1]
        E %= p
        z_size = np.count_nonzero(E[r + 1:], axis=0)
        # (4 lambda)^(-1) mu^2 over X, in place, each product reduced mod p
        X = E[:r]
        X *= X
        X %= p
        X *= lam_inv[:, None]
        X %= p
        phase = (E[r] - X.sum(axis=0)) % p
        reports += map(report, z_size.tolist(), phase.tolist())
    return reports


def assemble_amplitude(cn: Circuit, q: QuadraticForm, diagonal: np.ndarray,
                       mu: np.ndarray) -> AmplitudeReport:
    """The report for one transition of the standard-form circuit cn, from
    its phase polynomial q and the diagonal and mu = L^T eta of one
    diagonalization of q's Theta."""
    return _closed_form(cn, diagonal, mu[:, None], np.array([q.zeta]))[0]


def amplitude(c: Circuit, a, b) -> AmplitudeReport:
    """Exact transition amplitude <b|U|a>. The circuit is brought to standard
    form first, so any circuit is accepted.

    Theta is eliminated with its coordinates sorted by the end of their
    row, with eta permuted alike. Every field of the report is then the
    canonical one except perhaps |Z|, which can depend on the order. Z
    lies among the alpha - r coordinates whose lambda is zero, and whether
    it is empty does not depend on the order, since the amplitude is zero
    exactly then. So where alpha - r <= 1, |Z| is 0 or 1 in either order
    and the two agree; only a reordered run that finds Z nonempty with
    alpha - r >= 2 is redone in the canonical order.
    """
    cn = normalize_to_standard_form(c)
    q = phase_polynomial_direct(cn, a, b)
    p = int(cn.modulus)
    S = q.theta_entries
    order = np.argsort(_row_ends(S.size, S.rows, S.cols), kind="stable")
    res = diagonalize(S.permuted(order), p, eta=q.eta[order])
    report = assemble_amplitude(cn, q, res.diagonal, res.mu)
    if not report.z_size or report.alpha - report.rank < 2:
        return report
    res = diagonalize(S, p, eta=q.eta)
    return assemble_amplitude(cn, q, res.diagonal, res.mu)


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
    outcome tuples, from one b-free extraction and one elimination.
    Refuses tables longer than TABLE_CAP rows."""
    cn = normalize_to_standard_form(c)
    p = int(cn.modulus)
    if p ** cn.n > TABLE_CAP:
        # a power, not its value: that can pass the digit limit Python
        # puts on int to str conversion
        raise CapExceeded(f"table has {p}^{cn.n} rows, cap is {TABLE_CAP}")
    q0, rows = _extract_b_free(cn, a)
    res = diagonalize(q0.theta_entries, p,
                      eta=np.column_stack([q0.eta, rows[:, 1:].T]))
    return _closed_form(cn, res.diagonal, res.mu,
                        np.append(q0.zeta, rows[:, 0]))
