"""Command-line front end.

Subcommands: amp, prob, table, weight, check, normalize. Output is
deterministic: decimals are fixed at six fractional digits (round-half-even)
and `check` draws its random transitions from a seeded generator. Exit codes:
0 success, 1 parse/validation failure (or an oracle deviation in `check`,
or a modulus too large for exact elimination), 2 brute-force cap exceeded.

`amp --explain` and `prob --explain` run one extraction and one elimination
(keeping L), print their derivation once the run has finished, and assemble
the printed answer from that same run: the wire labels are rendered from
the extraction's register rows as it sweeps the circuit. `check` compares
`amplitude` with two oracles that share none of its steps after
normalizing: the dense simulation and the path sum over S(x) from the
reference labeler.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .circuit import (FOURIER, PHASE, CapExceeded, Circuit,
                      CircuitParseError, classify_fourier_gates,
                      normalize_to_standard_form, parse_circuit,
                      serialize_circuit)
from .evaluator import (amplitude, amplitude_table, assemble_amplitude,
                        balance_weight)
from .oracle import PATH_ENUM_CAP, dense_amplitude, path_sum_amplitude
from .pathsum import (_extract_b_free, _fold_outcome, render_label,
                      render_phase_polynomial, variable_name)
from .quadform import diagonalize

DEVIATION_TOLERANCE = 1e-9


class CliError(Exception):
    """Invalid invocation; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse normally exits 2 on bad usage; route through CliError so that
    # validation failures uniformly exit 1 (2 is reserved for cap trips)
    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _fmt(x: float) -> str:
    v = round(x, 6) + 0.0  # +0.0 folds -0.0 into 0.0
    return f"{v:.6f}"


def _fmt_complex(z: complex) -> str:
    re = round(z.real, 6) + 0.0
    im = round(z.imag, 6) + 0.0
    return f"{re:.6f}{im:+.6f}i"


def _vec(v: np.ndarray) -> str:
    return "[" + " ".join(map(str, v.tolist())) + "]"


def at_least(low: int):
    """The argparse type of an integer option whose values start at low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected at least {low}, got {value}")
        return value
    return integer


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read circuit file {path}: {exc}")
    return parse_circuit(text)


def _parse_tuple(text: str, n: int, p: int, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated integers, got {text!r}")
    if len(values) != n:
        raise CliError(f"{flag}: expected {n} components, got {len(values)}")
    for v in values:
        if not 0 <= v < p:
            raise CliError(f"{flag}: component {v} not a residue in [0, {p})")
    return values


def _registers(labels) -> str:
    return ", ".join(f"reg{r} = {label}" for r, label in enumerate(labels))


def _explain(cn: Circuit, a, b):
    """Print the dump for <b|U|a> and return its report, both from one
    extraction and one elimination: the extraction's rows give the wire
    labels, the dump prints its L, and its diagonal and mu give the report.
    The label lines are held until the run has finished, since the header
    needs alpha and a refused run prints nothing; the rest is printed line
    by line as it is rendered."""
    p = int(cn.modulus)
    labels = [str(v) for v in a]
    lines = ["inputs: " + _registers(labels)]

    def record(gate, rows, const):
        # an in-label is the register's last out-label; only SUM's target
        # and F's register get a new one
        regs = gate.registers
        ins = ", ".join(labels[r] for r in regs)
        if gate.kind != PHASE:
            r = regs[-1]
            label = render_label(rows[r, 1:], const[r])
            # the pass leaves a terminal F's register as it was, while a
            # non-terminal F gives it a path variable no wire had before
            if gate.kind == FOURIER and label == labels[r]:
                label = str(b[r])
            labels[r] = label
        outs = ", ".join(labels[r] for r in regs)
        if len(regs) == 2:
            ins, outs = f"({ins})", f"({outs})"
        head = " ".join([gate.kind, *map(str, regs)])
        lines.append(f"gate {len(lines)} ({head}): in {ins} -> out {outs}")

    q = _fold_outcome(cn, *_extract_b_free(cn, a, record), b)
    res = diagonalize(q.theta_entries, p, want_l=True, eta=q.eta)
    rep = assemble_amplitude(cn, q, res.diagonal, res.mu)
    groups = {"X": [], "Y": [], "Z": []}
    for i, (lam, mu) in enumerate(zip(res.diagonal, res.mu)):
        key = "X" if lam else ("Z" if mu else "Y")
        groups[key].append(variable_name(i))
    print(f"standard form: p = {p}, n = {cn.n}, gates = {len(cn.gates)}, "
          f"alpha = {len(q.eta)}", *lines, "outputs: " + _registers(labels),
          render_phase_polynomial(q), "Theta =", sep="\n")
    for row in q.theta_entries.dense_rows():
        print(_vec(row))
    print(f"eta = {_vec(q.eta)}", f"zeta = {q.zeta}", "L =", sep="\n")
    for row in res.L:
        print(_vec(row))
    print(f"diagonal = {_vec(res.diagonal)}", "partition: " + ", ".join(
        f"{key} = {{{', '.join(members)}}}" for key, members in groups.items()),
        sep="\n")
    return rep


def _report_json(rep) -> str:
    amp = rep.amplitude
    return json.dumps({
        "amplitude": {"k": amp.sqrtp_exponent, "q": amp.quarter_turns,
                      "c": amp.p_phase.residue},
        "probability": {"num": rep.probability.numerator,
                        "den": rep.probability.denominator},
        "r": rep.rank, "alpha": rep.alpha, "z_size": rep.z_size,
    })


def _circuit_and_input(args):
    cn = normalize_to_standard_form(_load_circuit(args.circuit))
    return cn, _parse_tuple(args.a, cn.n, int(cn.modulus), "-a")


def cmd_transition(args) -> int:
    """amp and prob: the same evaluation, printed as an amplitude or as a
    probability; under --explain it follows the dump it is derived in."""
    cn, a = _circuit_and_input(args)
    b = _parse_tuple(args.b, cn.n, int(cn.modulus), "-b")
    rep = _explain(cn, a, b) if args.explain else amplitude(cn, a, b)
    if args.json:
        print(_report_json(rep))
    elif args.command == "amp":
        print(rep.amplitude.render())
        print(_fmt_complex(rep.amplitude.to_complex()))
    else:
        print(rep.probability)
        print(_fmt(float(rep.probability)))
    return 0


def cmd_table(args) -> int:
    cn, a = _circuit_and_input(args)
    outcomes = itertools.product(range(int(cn.modulus)), repeat=cn.n)
    for b, rep in zip(outcomes, amplitude_table(cn, a)):
        label = ",".join(map(str, b))
        print(f"{label}\t{rep.amplitude.render()}\t{rep.probability}")
    return 0


def cmd_weight(args) -> int:
    c = _load_circuit(args.circuit)
    rep = balance_weight(c)
    p = int(c.modulus)
    k = rep.alpha - c.n - rep.rank
    print(f"weight = {p}^({k}/2) = {_fmt(rep.weight)}")
    print(f"r = {rep.rank}")
    print(f"alpha = {rep.alpha}")
    return 0


def _within_tolerance(oracle: str, deviation: float) -> bool:
    ok = deviation < DEVIATION_TOLERANCE
    print(f"max |closed_form - {oracle}| = {deviation:.2e} "
          f"{'<' if ok else '>='} 1e-9")
    return ok


def cmd_check(args) -> int:
    cn = normalize_to_standard_form(_load_circuit(args.circuit))
    p = int(cn.modulus)
    n = cn.n
    _, alpha = classify_fourier_gates(cn)
    skip_path = p ** alpha > PATH_ENUM_CAP
    rng = np.random.default_rng(args.seed)
    max_dense = 0.0
    max_path = 0.0
    for _ in range(args.trials):
        a = tuple(int(v) for v in rng.integers(0, p, size=n))
        b = tuple(int(v) for v in rng.integers(0, p, size=n))
        # the dense oracle first: past its cap it refuses at once, before
        # the closed form has run
        dense = dense_amplitude(cn, a, b)
        closed = amplitude(cn, a, b).amplitude.to_complex()
        max_dense = max(max_dense, abs(closed - dense))
        if not skip_path:
            path = path_sum_amplitude(cn, a, b)
            max_path = max(max_path, abs(closed - path))
    print(f"p = {p}, n = {n}, alpha = {alpha}, trials = {args.trials}, "
          f"seed = {args.seed}")
    ok = _within_tolerance("dense", max_dense)
    if skip_path:
        # p^alpha is printed as a power: expanded, it can pass the
        # digit limit Python puts on int to str conversion
        print(f"path_sum oracle skipped (p^alpha = {p}^{alpha} > "
              f"{PATH_ENUM_CAP})")
    else:
        ok = _within_tolerance("path_sum", max_path) and ok
    return 0 if ok else 1


def cmd_normalize(args) -> int:
    c = _load_circuit(args.circuit)
    sys.stdout.write(serialize_circuit(normalize_to_standard_form(c)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quopitsim",
                     description="Exact quopit Clifford circuit evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, wants_a=False,
            transition=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("-c", "--circuit", required=True, metavar="FILE",
                        help="circuit file")
        if wants_a:
            sp.add_argument("-a", required=True, metavar="TUPLE",
                            help="input tuple, e.g. 0,1,2 (register 0 first)")
        if transition:
            sp.add_argument("-b", required=True, metavar="TUPLE",
                            help="outcome tuple")
            sp.add_argument("--explain", action="store_true",
                            help="dump labels, S(x), Theta/eta/zeta, L, "
                                 "diagonal, and the X/Y/Z partition")
            sp.add_argument("--json", action="store_true",
                            help="machine-readable one-line output")
        sp.set_defaults(func=func)
        return sp

    for name, help_text in (("amp", "transition amplitude <b|U|a>"),
                            ("prob", "outcome probability |<b|U|a>|^2")):
        add(name, cmd_transition, help_text, wants_a=True, transition=True)
    add("table", cmd_table, "amplitudes for every outcome b", wants_a=True)
    add("weight", cmd_weight, "balancedness weight and rank")
    sp = add("check", cmd_check, "compare against brute-force oracles")
    sp.add_argument("--trials", type=at_least(1), default=20, metavar="T",
                    help="random transitions to test (default 20)")
    sp.add_argument("--seed", type=at_least(0), default=0, metavar="S",
                    help="PRNG seed (default 0)")
    add("normalize", cmd_normalize, "print the standard-form circuit")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 1
    except CircuitParseError as exc:
        print(f"circuit error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
