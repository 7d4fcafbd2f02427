"""Correctness checks, run after the timed region and never traced.

Each check returns a list of problems; an empty list means the op passed.
The checks use the oracles and the reference code paths, never the code
path the timed op took:

- transitions (`large`, `wide`): the production extractor against the
  reference pair label_circuit + extract_phase_polynomial; the exact result
  against a re-evaluation that diagonalizes the reference (Theta, eta) in
  reversed coordinate order and multiplies per-coordinate Weil sums, so the
  closed form's assembly step is not reused; and the magnitude invariant
  |amplitude| = p^((alpha - n - r)/2).
- corpus: every table row and every single amplitude against the dense
  state-vector simulation.
- cli: exit codes, and stdout against the library's result for the same
  input.
"""
from __future__ import annotations

import cmath
import itertools
import json
import re
from fractions import Fraction

import numpy as np

import quopitsim
from quopitsim.circuit import serialize_circuit

TOL = 1e-9
# the CLI prints six fractional digits
CLI_TOL = 2e-6

_SCALAR = re.compile(r"^(\d+)\^\((-?\d+)/2\) \* i\^([0-3]) \* chi\((\d+)\)$")


def scalar_value(text: str, p: int) -> complex:
    """Complex value of a rendered `p^(k/2) * i^q * chi(c)` (or `0`),
    computed here rather than by the library's own conversion."""
    if text == "0":
        return 0j
    m = _SCALAR.match(text)
    if m is None or int(m.group(1)) != p:
        raise ValueError(f"malformed exact scalar {text!r}")
    k, q, c = (int(g) for g in m.groups()[1:])
    return p ** (k / 2) * 1j ** q * cmath.exp(2j * cmath.pi * c / p)


def transition(text: str, a, b, rep) -> list[str]:
    problems = []
    c = quopitsim.parse_circuit(text)
    if len(c.gates) != text.count("\n") - 2:
        problems.append("parsed gate count differs from the generated text")
    cn = quopitsim.normalize_to_standard_form(c)
    p, n = int(cn.modulus), cn.n
    ref = quopitsim.extract_phase_polynomial(quopitsim.label_circuit(cn, a, b))
    if quopitsim.phase_polynomial_direct(cn, a, b) != ref:
        problems.append("phase_polynomial_direct disagrees with "
                        "label_circuit + extract_phase_polynomial")
    alpha = len(ref.eta)
    rev = np.arange(alpha)[::-1]
    res = quopitsim.diagonalize(ref.theta[np.ix_(rev, rev)], p,
                                eta=ref.eta[rev])
    value = quopitsim.ExactScalar(p, sqrtp_exponent=-(n + alpha),
                                  p_phase=ref.zeta)
    for lam, mu in zip(res.diagonal.tolist(), res.mu.tolist()):
        value = value * quopitsim.weil_sum(lam, mu, p)
        if value.is_zero:
            break
    if value != rep.amplitude:
        problems.append(f"amplitude {rep.amplitude.render()} != reversed-order "
                        f"Weil-sum product {value.render()}")
    r = res.rank
    if (rep.rank, rep.alpha) != (r, alpha):
        problems.append(f"(rank, alpha) = {(rep.rank, rep.alpha)}, "
                        f"expected {(r, alpha)}")
    k = alpha - n - r
    if not rep.amplitude.is_zero and (rep.amplitude.sqrtp_exponent != k
                                      or rep.probability != Fraction(p) ** k):
        problems.append(f"magnitude is not p^({k}/2)")
    return problems


def corpus(inputs, outputs) -> list[str]:
    """One corpus op: inputs [(text, tables, singles)], outputs
    [(rendered tables, rendered singles, weight)] per circuit."""
    problems = []
    for (text, _, _), (tables, singles, weight) in zip(inputs, outputs):
        problems += corpus_circuit(text, tables, singles, weight)
    return problems


def corpus_circuit(text: str, tables, singles, weight: float) -> list[str]:
    """tables: [(a, [(amp_text, prob_text), ...])];
    singles: [(a, b, amp_text, complex_value)]."""
    problems = []
    c = quopitsim.parse_circuit(text)
    p, n = int(c.modulus), c.n
    states = {}

    def state(a):
        if a not in states:
            states[a] = quopitsim.dense_state(c, a)
        return states[a]

    for a, rows in tables:
        psi = state(a).reshape(-1)
        if len(rows) != p ** n:
            problems.append(f"table for a={a} has {len(rows)} rows")
            continue
        for idx, (amp_text, prob_text) in enumerate(rows):
            want = psi[idx]
            if abs(scalar_value(amp_text, p) - want) >= TOL:
                problems.append(f"a={a} row {idx}: {amp_text} != {want}")
            if abs(float(Fraction(prob_text)) - abs(want) ** 2) >= TOL:
                problems.append(f"a={a} row {idx}: probability {prob_text}")
            if abs(want) > TOL and abs(abs(want) - weight) >= TOL:
                problems.append(f"a={a} row {idx}: |amplitude| != weight")
    for a, b, amp_text, value in singles:
        want = state(a)[b]
        if abs(scalar_value(amp_text, p) - want) >= TOL \
                or abs(value - want) >= TOL:
            problems.append(f"<{b}|U|{a}> = {amp_text} != {want}")
    return problems


def _parse_cli_complex(line: str) -> complex:
    m = re.fullmatch(r"(-?\d+\.\d{6})([+-]\d+\.\d{6})i", line)
    if m is None:
        raise ValueError(f"malformed complex {line!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def _report_dict(rep) -> dict:
    amp = rep.amplitude
    return {"amplitude": {"k": amp.sqrtp_exponent, "q": amp.quarter_turns,
                          "c": amp.p_phase.residue},
            "probability": {"num": rep.probability.numerator,
                            "den": rep.probability.denominator},
            "r": rep.rank, "alpha": rep.alpha, "z_size": rep.z_size}


def cli(command: dict, text: str, code: int, stdout: str) -> list[str]:
    """command: {"kind", "a", "b", "trials", "seed"}; text: the input
    file's contents."""
    kind = command["kind"]
    if code != 0:
        return [f"{kind}: exit code {code}"]
    lines = stdout.splitlines()
    circuit = quopitsim.parse_circuit(text)
    cn = quopitsim.normalize_to_standard_form(circuit)
    p, n = int(cn.modulus), cn.n
    problems = []
    if kind in ("amp", "amp_explain"):
        rep = quopitsim.amplitude(cn, command["a"], command["b"])
        if lines[-2:-1] != [rep.amplitude.render()]:
            problems.append(f"{kind}: exact line {lines[-2:-1]}")
        elif abs(_parse_cli_complex(lines[-1])
                 - scalar_value(lines[-2], p)) >= CLI_TOL:
            problems.append(f"{kind}: complex line {lines[-1]!r}")
        if kind == "amp_explain":
            q = quopitsim.phase_polynomial_direct(cn, command["a"],
                                                  command["b"])
            head = (f"standard form: p = {p}, n = {n}, "
                    f"gates = {len(cn.gates)}, alpha = {len(q.eta)}")
            diag = [ln for ln in lines if ln.startswith("diagonal = [")]
            if lines[0] != head:
                problems.append(f"explain: header {lines[0]!r}")
            if f"zeta = {q.zeta}" not in lines:
                problems.append("explain: zeta line missing or wrong")
            if len(diag) != 1 or sum(
                    v != "0" for v in diag[0][12:-1].split()) != rep.rank:
                problems.append("explain: diagonal does not have rank "
                                f"{rep.rank} nonzero entries")
    elif kind == "prob_json":
        rep = quopitsim.amplitude(cn, command["a"], command["b"])
        if len(lines) != 1 or json.loads(lines[0]) != _report_dict(rep):
            problems.append(f"prob --json: {stdout[:200]!r}")
    elif kind == "table":
        reps = quopitsim.amplitude_table(cn, command["a"])
        outcomes = itertools.product(range(p), repeat=n)
        want = [f"{','.join(map(str, b))}\t{r.amplitude.render()}\t"
                f"{r.probability}" for b, r in zip(outcomes, reps)]
        if lines != want:
            problems.append("table rows differ from amplitude_table")
    elif kind == "weight":
        rep = quopitsim.balance_weight(circuit)
        k = rep.alpha - n - rep.rank
        prefix = f"weight = {p}^({k}/2) = "
        if (len(lines) != 3 or not lines[0].startswith(prefix)
                or abs(float(lines[0][len(prefix):]) - rep.weight) >= CLI_TOL
                * max(1.0, rep.weight)
                or lines[1:] != [f"r = {rep.rank}", f"alpha = {rep.alpha}"]):
            problems.append(f"weight: {lines}")
    elif kind == "check":
        _, alpha = quopitsim.classify_fourier_gates(cn)
        head = (f"p = {p}, n = {n}, alpha = {alpha}, "
                f"trials = {command['trials']}, seed = {command['seed']}")
        if not lines or lines[0] != head or len(lines) != 3 \
                or not lines[1].endswith("< 1e-9") \
                or not (lines[2].endswith("< 1e-9")
                        or lines[2].startswith("path_sum oracle skipped")):
            problems.append(f"check: {lines}")
    elif kind == "normalize":
        if stdout != serialize_circuit(cn):
            problems.append("normalize output differs from serialize_circuit")
    else:
        problems.append(f"unknown command kind {kind}")
    return problems


CHECKS = {"transition": transition, "corpus": corpus, "cli": cli}


def run(kind: str, args) -> list[str]:
    """Run one check; the entry point of the check worker processes."""
    try:
        return CHECKS[kind](*args)
    except Exception as exc:  # a check that cannot run fails its op
        return [f"check raised {type(exc).__name__}: {exc}"]
