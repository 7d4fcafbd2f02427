"""End-to-end acceptance gate: eight numbered checks with live PASS/FAIL
lines, covering the wire-labeling golden, the one-variable sum closed form,
triple-oracle agreement on a 200-circuit corpus, exact probabilities,
balancedness, the diagonalization contract, large-circuit timing, and the
single-gate identities."""
from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import CORPUS_SEED, random_circuit, standard_corpus
from quopitsim import (ExactScalar, Gate, amplitude, amplitude_table,
                       balance_weight, brute_force_path_sum, dense_state,
                       diagonalize, gf_rank, inverse_mod, label_circuit,
                       make_circuit, normalize_to_standard_form,
                       parse_circuit, phase_polynomial_direct, weil_sum)
from quopitsim.circuit import FOURIER, PHASE
from quopitsim.oracle import chi_table

ENUM_CAP = 1_000_000


@contextmanager
def announce(capsys, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {label}: PASS")


# ---------------------------------------------------------------------------
# 1. wire-labeling golden: reconstructing symbolic labels from numeric probes
#    must reproduce the hand-derived labeled circuit and its per-gate phase
#    terms exactly, in under a millisecond.

EXAMPLE_TEXT = """\
p 3
n 3
R 0
F 1
SUM 0 1
F 2
F 0
SUM 1 2
F 0
F 1
F 2
"""

KIND_ORDER = {"a": 0, "x": 1, "b": 2}


def _skey(sym):
    return (KIND_ORDER[sym[0]], sym[1])


def _sym(name: str):
    return (name[0], int(name[1:]))


def _mono(*names):
    return tuple(sorted((_sym(s) for s in names), key=_skey))


EXPECTED_GRID = [
    ["a1", "a2", "a3"],
    ["a1", "a2", "a3"],          # R 0
    ["a1", "x1", "a3"],          # F 1
    ["a1", "a1 + x1", "a3"],     # SUM 0 1
    ["a1", "a1 + x1", "x2"],     # F 2
    ["x3", "a1 + x1", "x2"],     # F 0
    ["x3", "a1 + x1", "a1 + x1 + x2"],   # SUM 1 2
    ["b1", "a1 + x1", "a1 + x1 + x2"],   # terminal F 0
    ["b1", "b2", "a1 + x1 + x2"],        # terminal F 1
    ["b1", "b2", "b3"],                  # terminal F 2
]

# per-gate contributions: in*out for Fourier gates, 2^(-1)*s*(s-1) for the
# phase gate (2^(-1) = 2 mod 3, so s*(s-1)/2 at s = a1 gives 2*a1^2 + a1)
EXPECTED_GATE_TERMS = [
    {_mono("a1", "a1"): 2, _mono("a1"): 1},
    {_mono("a2", "x1"): 1},
    {},
    {_mono("a3", "x2"): 1},
    {_mono("a1", "x3"): 1},
    {},
    {_mono("x3", "b1"): 1},
    {_mono("a1", "b2"): 1, _mono("x1", "b2"): 1},
    {_mono("a1", "b3"): 1, _mono("x1", "b3"): 1, _mono("x2", "b3"): 1},
]

EXPECTED_POLY = ("a1 + 2*a1^2 + a1*x3 + a1*b2 + a1*b3 + a2*x1 + a3*x2"
                 " + x1*b2 + x1*b3 + x2*b3 + x3*b1")


def _reconstruct_labels(c, p: int, n: int):
    """Wire labels as symbolic affine forms in a_i, b_i, x_l, recovered by
    probing the numeric labeling at unit input/outcome tuples. The x
    coefficients must agree across probes; the constants are affine."""
    zeros = (0,) * n

    def unit(i):
        t = [0] * n
        t[i] = 1
        return tuple(t)

    lc0 = label_circuit(c, zeros, zeros)
    lca = [label_circuit(c, unit(i), zeros) for i in range(n)]
    lcb = [label_circuit(c, zeros, unit(i)) for i in range(n)]
    grid = []
    for t in range(len(lc0.snapshots)):
        row = []
        for r in range(n):
            base = lc0.snapshots[t][r]
            for lc in lca + lcb:
                assert lc.snapshots[t][r].coeffs == base.coeffs
            label = {("x", l + 1): co for l, co in base.coeffs}
            for i, lc in enumerate(lca):
                d = (lc.snapshots[t][r].constant - base.constant) % p
                if d:
                    label[("a", i + 1)] = d
            for i, lc in enumerate(lcb):
                d = (lc.snapshots[t][r].constant - base.constant) % p
                if d:
                    label[("b", i + 1)] = d
            row.append((label, base.constant))
        grid.append(row)
    return grid


def _render_label(label, const) -> str:
    parts = []
    for sym, co in sorted(label.items(), key=lambda kv: _skey(kv[0])):
        name = f"{sym[0]}{sym[1]}"
        parts.append(name if co == 1 else f"{co}*{name}")
    if const or not parts:
        parts.append(str(const))
    return " + ".join(parts)


def _sym_product(u, v, p: int):
    lu, gu = u
    lv, gv = v
    out = {}

    def bump(key, val):
        val %= p
        if val:
            out[key] = (out.get(key, 0) + val) % p
            if not out[key]:
                del out[key]

    for s1, c1 in lu.items():
        for s2, c2 in lv.items():
            bump(tuple(sorted((s1, s2), key=_skey)), c1 * c2)
        bump((s1,), c1 * gv)
    for s2, c2 in lv.items():
        bump((s2,), gu * c2)
    bump((), gu * gv)
    return out


def _gate_terms(c, grid, p: int):
    inv2 = inverse_mod(2, p)
    terms = []
    for i, g in enumerate(c.gates):
        if g.kind == FOURIER:
            terms.append(_sym_product(grid[i][g.register],
                                      grid[i + 1][g.register], p))
        elif g.kind == PHASE:
            u = grid[i][g.register]
            acc = _sym_product(u, u, p)
            for sym, co in u[0].items():
                acc[(sym,)] = (acc.get((sym,), 0) - co) % p
                if not acc[(sym,)]:
                    del acc[(sym,)]
            const = (acc.get((), 0) + u[1] * (u[1] - 1)) % p
            acc.pop((), None)
            if const:
                acc[()] = const
            terms.append({k: (inv2 * v) % p for k, v in acc.items()})
        else:
            terms.append({})
    return terms


def _render_poly(mono, p: int) -> str:
    parts = []
    for key in sorted(mono, key=lambda k: tuple(_skey(s) for s in k)):
        co = mono[key]
        if not key:
            parts.append(str(co))
            continue
        if len(key) == 2 and key[0] == key[1]:
            name = f"{key[0][0]}{key[0][1]}^2"
        else:
            name = "*".join(f"{s[0]}{s[1]}" for s in key)
        parts.append(name if co == 1 else f"{co}*{name}")
    return " + ".join(parts) if parts else "0"


def test_1_wire_labeling_golden(capsys):
    with announce(capsys, "1 wire-labeling golden"):
        c = parse_circuit(EXAMPLE_TEXT)

        def run():
            grid = _reconstruct_labels(c, 3, 3)
            rendered = [[_render_label(*cell) for cell in row]
                        for row in grid]
            terms = _gate_terms(c, grid, 3)
            total = {}
            for t in terms:
                for k, v in t.items():
                    total[k] = (total.get(k, 0) + v) % 3
                    if not total[k]:
                        del total[k]
            return rendered, terms, _render_poly(total, 3)

        run()  # warm caches before the timed run
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            rendered, terms, poly = run()
            best = min(best, time.perf_counter() - t0)
        assert rendered == EXPECTED_GRID
        assert terms == EXPECTED_GATE_TERMS
        assert poly == EXPECTED_POLY
        assert best < 1e-3


# ---------------------------------------------------------------------------
# 2. one-variable quadratic sums: closed form versus direct summation,
#    exhaustively over (lam, mu) for five moduli, within 1e-9 and one second.

def test_2_weil_sums_exhaustive(capsys):
    with announce(capsys, "2 one-variable sums exhaustive"):
        t0 = time.perf_counter()
        for p in (3, 5, 7, 11, 13):
            chi = chi_table(p)
            xs = np.arange(p)
            assert weil_sum(0, 0, p) == ExactScalar(p, sqrtp_exponent=2)
            for mu in range(1, p):
                assert weil_sum(0, mu, p).is_zero
            for lam in range(p):
                for mu in range(p):
                    direct = chi[(lam * xs * xs + mu * xs) % p].sum()
                    exact = weil_sum(lam, mu, p).to_complex()
                    assert abs(exact - direct) < 1e-9
        assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3/4/5. the shared 200-circuit corpus. The module fixture evaluates every
# transition once through the closed form and once through the dense
# simulator; its wall time counts toward the corpus budget.

@pytest.fixture(scope="module")
def corpus_data():
    t0 = time.perf_counter()
    entries = []
    for c in standard_corpus():
        cn = normalize_to_standard_form(c)
        p = int(cn.modulus)
        n = cn.n
        dim = p ** n
        base = balance_weight(cn)
        closed = np.empty((dim, dim), dtype=complex)
        dense = np.empty((dim, dim), dtype=complex)
        for idx, a in enumerate(product(range(p), repeat=n)):
            closed[idx] = [rep.amplitude.to_complex()
                           for rep in amplitude_table(cn, a)]
            dense[idx] = dense_state(cn, a).reshape(-1)
        mags = np.abs(dense)
        nonzero = mags > base.weight / 2
        entries.append({
            "cn": cn, "p": p, "n": n, "alpha": base.alpha,
            "rank": base.rank, "weight": base.weight,
            "max_dev": float(np.max(np.abs(closed - dense))),
            "zero_dust": float(mags[~nonzero].max(initial=0.0)),
            "mag_dev": float(np.max(np.abs(mags[nonzero] - base.weight))),
            "has_nonzero": bool(nonzero.any()),
        })
    return {"entries": entries, "elapsed": time.perf_counter() - t0}


def _literal_path_sum(cn, grid, sq, a, b) -> complex:
    """Direct enumeration of p^(-(n+alpha)/2) * sum_x chi(S(x)) with the
    (a, b)-independent quadratic table sq = x^T Theta x hoisted out."""
    q = phase_polynomial_direct(cn, a, b)
    p = int(q.modulus)
    n = cn.n
    alpha = len(q.eta)
    prefactor = float(p) ** (-(n + alpha) / 2)
    if alpha == 0:
        return prefactor * complex(chi_table(p)[q.zeta % p])
    s = (sq + grid @ q.eta + q.zeta) % p
    counts = np.bincount(s, minlength=p)
    return prefactor * complex(counts @ chi_table(p))


def test_3_triple_oracle_corpus(capsys, corpus_data):
    with announce(capsys, "3 triple-oracle corpus"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(CORPUS_SEED + 3)
        for entry in corpus_data["entries"]:
            assert entry["max_dev"] < 1e-9
            cn, p, n, alpha = (entry["cn"], entry["p"], entry["n"],
                               entry["alpha"])
            if p ** alpha > ENUM_CAP:
                continue
            dim = p ** n
            if dim * dim <= 25:
                pairs = [(a, b)
                         for a in product(range(p), repeat=n)
                         for b in product(range(p), repeat=n)]
            else:
                pairs = [(tuple(int(v) for v in rng.integers(0, p, size=n)),
                          tuple(int(v) for v in rng.integers(0, p, size=n)))
                         for _ in range(25)]
            if alpha:
                grid = np.indices((p,) * alpha).reshape(alpha, -1)
                grid = np.ascontiguousarray(grid.T, dtype=np.int32)
                theta = phase_polynomial_direct(cn, (0,) * n, (0,) * n).theta
                g = grid @ theta.astype(np.int32)
                sq = ((g * grid).sum(axis=1) % p).astype(np.int32)
                del g
            else:
                grid = None
                sq = None
            for i, (a, b) in enumerate(pairs):
                closed = amplitude(cn, a, b).amplitude.to_complex()
                literal = _literal_path_sum(cn, grid, sq, a, b)
                assert abs(closed - literal) < 1e-9
                if i == 0:
                    q = phase_polynomial_direct(cn, a, b)
                    assert abs(closed - brute_force_path_sum(q, n)) < 1e-9
        enum_elapsed = time.perf_counter() - t0
        assert corpus_data["elapsed"] + enum_elapsed < 120.0


def test_4_exact_probabilities(capsys, corpus_data):
    with announce(capsys, "4 exact probabilities"):
        rng = np.random.default_rng(CORPUS_SEED + 4)
        for entry in corpus_data["entries"]:
            cn, p, n = entry["cn"], entry["p"], entry["n"]
            e = n + entry["rank"] - entry["alpha"]
            expected = Fraction(1, p ** e) if e >= 0 else Fraction(p ** -e)
            for _ in range(3):
                a = tuple(int(v) for v in rng.integers(0, p, size=n))
                table = amplitude_table(cn, a)
                assert len(table) == p ** n
                for rep in table:
                    if rep.z_size:
                        assert rep.probability == 0
                    else:
                        assert rep.probability == expected
                assert sum(rep.probability for rep in table) == 1


def test_5_balanced_magnitudes(capsys, corpus_data):
    with announce(capsys, "5 balanced magnitudes"):
        rng = np.random.default_rng(CORPUS_SEED + 5)
        for entry in corpus_data["entries"]:
            # dense magnitudes split into exactly two classes: zero and the
            # shared weight p^(-(n + r - alpha)/2)
            assert entry["has_nonzero"]
            assert entry["zero_dust"] < 1e-9
            assert entry["mag_dev"] < 1e-9
            cn, p, n = entry["cn"], entry["p"], entry["n"]
            reps = []
            for _ in range(10):
                a = tuple(int(v) for v in rng.integers(0, p, size=n))
                b = tuple(int(v) for v in rng.integers(0, p, size=n))
                reps.append(amplitude(cn, a, b))
            assert {rep.rank for rep in reps} == {entry["rank"]}
            assert {rep.weight for rep in reps} == {entry["weight"]}
            for rep in reps:
                if not rep.amplitude.is_zero:
                    assert rep.amplitude.sqrtp_exponent == (
                        entry["alpha"] - n - entry["rank"])


# ---------------------------------------------------------------------------
# 6. diagonalization contract on random symmetric matrices, plus a
#    polynomial-time sanity check at alpha = 50.

def test_6_diagonalization_suite(capsys):
    with announce(capsys, "6 diagonalization suite"):
        rng = np.random.default_rng(CORPUS_SEED + 6)
        for _ in range(1000):
            p = int(rng.choice([3, 5, 7, 11]))
            alpha = int(rng.integers(1, 9))
            A = rng.integers(0, p, size=(alpha, alpha))
            A = (A + A.T) % p
            if rng.integers(2):
                np.fill_diagonal(A, 0)
            res = diagonalize(A, p, want_l=True)
            assert gf_rank(res.L, p) == alpha
            assert np.array_equal((res.L.T @ A @ res.L) % p,
                                  np.diag(res.diagonal))
            assert res.rank == gf_rank(A, p)
        A = rng.integers(0, 7, size=(50, 50))
        A = (A + A.T) % 7
        t0 = time.perf_counter()
        res = diagonalize(A, 7, want_l=True)
        assert time.perf_counter() - t0 < 1.0
        assert res.rank == gf_rank(A, 7)


# ---------------------------------------------------------------------------
# 7. scale: a 10^4-gate circuit on 50 registers evaluates in under a second,
#    with the magnitude pinned to 0 or p^(-(n + r - alpha)/2).

def test_7_large_circuit_timing(capsys):
    with announce(capsys, "7 large-circuit timing"):
        rng = np.random.default_rng(CORPUS_SEED + 7)
        warm = random_circuit(rng, 3, 5, 200)
        amplitude(warm, (0,) * 5, (0,) * 5)
        c = random_circuit(rng, 3, 50, 10_000)
        a = tuple(int(v) for v in rng.integers(0, 3, size=50))
        b = tuple(int(v) for v in rng.integers(0, 3, size=50))
        t0 = time.perf_counter()
        rep = amplitude(c, a, b)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        if not rep.amplitude.is_zero:
            assert rep.amplitude.sqrtp_exponent == rep.alpha - 50 - rep.rank
        bw = balance_weight(c)
        assert bw.rank == rep.rank
        assert bw.alpha == rep.alpha
        assert bw.weight == rep.weight
        if not rep.amplitude.is_zero:
            mag = abs(rep.amplitude.to_complex())
            assert abs(mag - bw.weight) < 1e-9 * bw.weight


# ---------------------------------------------------------------------------
# 8. single-gate identities, exactly.

def test_8_gate_identities(capsys):
    with announce(capsys, "8 gate identities"):
        for p in (3, 5, 7):
            inv2 = inverse_mod(2, p)
            zero = ExactScalar.zero(p)
            one = ExactScalar(p)

            f = make_circuit(p, 1, [Gate.fourier(0)])
            for a in range(p):
                for b in range(p):
                    rep = amplitude(f, (a,), (b,))
                    assert rep.amplitude == ExactScalar(
                        p, sqrtp_exponent=-1, p_phase=a * b)

            r = make_circuit(p, 1, [Gate.phase(0)])
            for a in range(p):
                for b in range(p):
                    rep = amplitude(r, (a,), (b,))
                    if a == b:
                        assert rep.amplitude == ExactScalar(
                            p, p_phase=inv2 * a * (a - 1))
                    else:
                        assert rep.amplitude == zero

            s = make_circuit(p, 2, [Gate.sum(0, 1)])
            for a in product(range(p), repeat=2):
                for b in product(range(p), repeat=2):
                    rep = amplitude(s, a, b)
                    if b == (a[0], (a[0] + a[1]) % p):
                        assert rep.amplitude == one
                    else:
                        assert rep.amplitude == zero

            f4 = make_circuit(p, 1, [Gate.fourier(0)] * 4)
            for a in range(p):
                for b, rep in enumerate(amplitude_table(f4, (a,))):
                    assert rep.amplitude == (one if a == b else zero)
