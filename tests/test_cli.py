"""Command-line behavior: frozen output, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import time
from fractions import Fraction

import numpy as np
import pytest

import quopitsim.cli
import quopitsim.evaluator
import quopitsim.oracle
import quopitsim.pathsum
import quopitsim.quadform
from conftest import random_circuit
from quopitsim import fields, label_circuit
from quopitsim.circuit import normalize_to_standard_form, serialize_circuit
from quopitsim.cli import main

FIG_TEXT = """\
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
SINGLE_F = "p 3\nn 1\nF 0\n"


@pytest.fixture
def circuit_file(tmp_path):
    def write(text, name="circuit.qc"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_amp_golden(capsys, circuit_file):
    path = circuit_file(SINGLE_F)
    code, out, _ = run(capsys, ["amp", "-c", path, "-a", "0", "-b", "0"])
    assert code == 0
    assert out == "3^(-1/2) * i^0 * chi(0)\n0.577350+0.000000i\n"


def test_amp_json(capsys, circuit_file):
    path = circuit_file(SINGLE_F)
    code, out, _ = run(capsys,
                       ["amp", "-c", path, "-a", "0", "-b", "0", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "amplitude": {"k": -1, "q": 0, "c": 0},
        "probability": {"num": 1, "den": 3},
        "r": 0, "alpha": 0, "z_size": 0,
    }


def test_prob_golden(capsys, circuit_file):
    path = circuit_file(SINGLE_F)
    code, out, _ = run(capsys, ["prob", "-c", path, "-a", "0", "-b", "1"])
    assert code == 0
    assert out == "1/3\n0.333333\n"


def test_weight_golden(capsys, circuit_file):
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, ["weight", "-c", path])
    assert code == 0
    assert out == "weight = 3^(0/2) = 1.000000\nr = 0\nalpha = 3\n"


def test_table_golden(capsys, circuit_file):
    path = circuit_file(SINGLE_F)
    code, out, _ = run(capsys, ["table", "-c", path, "-a", "1"])
    assert code == 0
    assert out == ("0\t3^(-1/2) * i^0 * chi(0)\t1/3\n"
                   "1\t3^(-1/2) * i^0 * chi(1)\t1/3\n"
                   "2\t3^(-1/2) * i^0 * chi(2)\t1/3\n")


def test_table_rows_and_exact_total(capsys, circuit_file):
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, ["table", "-c", path, "-a", "1,2,0"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 ** 3
    total = Fraction(0)
    for line in lines:
        label, _, frac = line.split("\t")
        assert len(label.split(",")) == 3
        total += Fraction(frac)
    assert total == 1


def test_normalize_golden(capsys, circuit_file):
    path = circuit_file("p 5\nn 2\nR 0\nSUM 1 0\n")
    code, out, _ = run(capsys, ["normalize", "-c", path])
    assert code == 0
    assert out == ("p 5\nn 2\nR 0\nSUM 1 0\n"
                   + "F 0\n" * 4 + "F 1\n" * 4)


def test_normalize_is_identity_on_standard_form(capsys, circuit_file):
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, ["normalize", "-c", path])
    assert code == 0
    assert out == FIG_TEXT


def test_check_reports_both_oracles(capsys, circuit_file):
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, ["check", "-c", path, "--trials", "5",
                                "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p = 3, n = 3, alpha = 3, trials = 5, seed = 3"
    assert lines[1].startswith("max |closed_form - dense| = ")
    assert lines[1].endswith(" < 1e-9")
    assert lines[2].startswith("max |closed_form - path_sum| = ")
    assert lines[2].endswith(" < 1e-9")


def test_check_skips_enumeration_when_too_large(capsys, circuit_file):
    # 14 stacked Fourier gates push alpha to 13 and 3^13 past the cap,
    # while the dense oracle still fits
    path = circuit_file("p 3\nn 2\n" + "F 0\n" * 14 + "F 1\n")
    code, out, _ = run(capsys, ["check", "-c", path, "--trials", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p = 3, n = 2, alpha = 13, trials = 3, seed = 0"
    assert lines[2] == "path_sum oracle skipped (p^alpha = 3^13 > 1000000)"


def test_check_names_a_power_past_the_int_digit_limit(capsys, circuit_file):
    # alpha = 9099: 3^alpha has 4342 digits, more than Python >= 3.11 turns
    # into a string, so the note prints the power and check still exits 0
    path = circuit_file("p 3\nn 1\n" + "F 0\n" * 9100)
    code, out, err = run(capsys, ["check", "-c", path, "--trials", "1"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "p = 3, n = 1, alpha = 9099, trials = 1, seed = 0"
    assert lines[2] == "path_sum oracle skipped (p^alpha = 3^9099 > 1000000)"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_check_refuses_no_trials(capsys, circuit_file, trials):
    # no trial compares nothing, so there is no deviation to report
    path = circuit_file(FIG_TEXT)
    code, out, err = run(capsys, ["check", "-c", path, "--trials", trials])
    assert (code, out) == (1, "")
    assert err == ("quopitsim check: argument --trials: expected at least 1, "
                   f"got {trials}\n")
    code, out, _ = run(capsys, ["check", "-c", path, "--trials", "1"])
    assert code == 0
    assert out.startswith("p = 3, n = 3, alpha = 3, trials = 1, seed = 0\n")


def test_check_refuses_negative_seed(capsys, circuit_file):
    # the seeded generator takes no negative seed; the flag is named before
    # the circuit is read
    path = circuit_file(FIG_TEXT)
    code, out, err = run(capsys, ["check", "-c", path, "--seed", "-1"])
    assert (code, out) == (1, "")
    assert err == ("quopitsim check: argument --seed: expected at least 0, "
                   "got -1\n")
    code, out, _ = run(capsys, ["check", "-c", path, "--trials", "1",
                                "--seed", "0"])
    assert code == 0
    assert out.startswith("p = 3, n = 3, alpha = 3, trials = 1, seed = 0\n")


def test_check_dense_gate_cap_exits_two(capsys, circuit_file):
    # p^n = 1031 fits the dense dimension cap; the 1031 x 1031 gate does not
    path = circuit_file("p 1031\nn 1\nF 0\n")
    code, out, err = run(capsys, ["check", "-c", path, "--trials", "1"])
    assert (code, out) == (2, "")
    assert err == ("cap exceeded: dense gate size p^2 = 1062961 exceeds "
                   "1048576\n")


def test_explain_dump(capsys, circuit_file):
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, ["amp", "-c", path, "-a", "1,1,1",
                                "-b", "1,1,1", "--explain"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "standard form: p = 3, n = 3, gates = 9, alpha = 3"
    assert "gate 3 (SUM 0 1): in (1, x1) -> out (1, x1 + 1)" in lines
    assert "gate 9 (F 2): in x1 + x2 + 1 -> out 1" in lines
    assert "S(x) = 2*x2 + 2*x3 + 2" in lines
    assert "eta = [0 2 2]" in lines
    assert "zeta = 2" in lines
    assert "partition: X = {}, Y = {x1}, Z = {x2, x3}" in lines
    # the amplitude itself still follows the dump
    assert lines[-2:] == ["0", "0.000000+0.000000i"]


FIG_EXPLAIN = """\
standard form: p = 3, n = 3, gates = 9, alpha = 3
inputs: reg0 = 1, reg1 = 1, reg2 = 1
gate 1 (R 0): in 1 -> out 1
gate 2 (F 1): in 1 -> out x1
gate 3 (SUM 0 1): in (1, x1) -> out (1, x1 + 1)
gate 4 (F 2): in 1 -> out x2
gate 5 (F 0): in 1 -> out x3
gate 6 (SUM 1 2): in (x1 + 1, x2) -> out (x1 + 1, x1 + x2 + 1)
gate 7 (F 0): in x3 -> out 1
gate 8 (F 1): in x1 + 1 -> out 1
gate 9 (F 2): in x1 + x2 + 1 -> out 1
outputs: reg0 = 1, reg1 = 1, reg2 = 1
S(x) = 2*x2 + 2*x3 + 2
Theta =
[0 0 0]
[0 0 0]
[0 0 0]
eta = [0 2 2]
zeta = 2
L =
[1 0 0]
[0 1 0]
[0 0 1]
diagonal = [0 0 0]
partition: X = {}, Y = {x1}, Z = {x2, x3}
"""


@pytest.mark.parametrize("command,tail", [
    ("amp", "0\n0.000000+0.000000i\n"),
    ("prob", "0\n0.000000\n"),
])
def test_explain_full_dump(capsys, circuit_file, command, tail):
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, [command, "-c", path, "-a", "1,1,1",
                                "-b", "1,1,1", "--explain"])
    assert code == 0
    assert out == FIG_EXPLAIN + tail


def test_explain_digest_random_circuit(capsys, circuit_file):
    # full Theta, L and a 31-variable S(x) with squares, cross terms and
    # linear terms: pins term order and coefficient folding byte for byte
    c = random_circuit(np.random.default_rng(4), 5, 4, 80)
    path = circuit_file(serialize_circuit(c))
    code, out, _ = run(capsys, ["amp", "-c", path, "-a", "1,2,3,4",
                                "-b", "4,0,2,1", "--explain"])
    assert code == 0
    assert out.splitlines()[0] == ("standard form: p = 5, n = 4, gates = 88, "
                                   "alpha = 31")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ddb6a400a94022bb53c3591ff4807b60dbfd9c0d3c64c8e0aa013a6649d733e2")


def test_explain_l_through_panel_flushes(capsys, circuit_file):
    # alpha = 218 > 2 * PANEL: L's columns ride the elimination's block
    # through full panel flushes at the default panel width. The dump is
    # pinned byte for byte, and its L and diagonal are the reference's
    c = random_circuit(np.random.default_rng(6), 3, 3, 600)
    a, b = (1, 2, 0), (2, 0, 1)
    path = circuit_file(serialize_circuit(c))
    code, out, _ = run(capsys, ["amp", "-c", path, "-a", "1,2,0",
                                "-b", "2,0,1", "--explain"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("standard form: p = 3, n = 3, gates = 608, "
                        "alpha = 218")
    assert 218 > 2 * quopitsim.quadform.PANEL
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e30dd5da6cdbba04ba97612b77d18ed6b54f16bf91960ce03a411771a3a26895")
    q = quopitsim.pathsum.phase_polynomial_direct(
        normalize_to_standard_form(c), a, b)
    ref = quopitsim.oracle.diagonalize_reference(q.theta, 3)
    k = lines.index("L =") + 1
    L = [[int(v) for v in line.strip("[]").split()]
         for line in lines[k:k + 218]]
    assert L == ref.L.tolist()
    assert lines[k + 218] == "diagonal = [" + " ".join(
        map(str, ref.diagonal.tolist())) + "]"


def _count(monkeypatch, calls, name, modules):
    """Record each call of the function `name` in calls, in every module
    of modules that holds it."""
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


# every module that holds the functions quopitsim.cli calls
CALLEES = (quopitsim.cli, quopitsim.evaluator, quopitsim.pathsum)


@pytest.mark.parametrize("command", ["amp", "prob"])
def test_explain_extracts_and_eliminates_once(capsys, circuit_file,
                                              monkeypatch, command):
    # the dump is the derivation of the printed answer, not a second run,
    # and its wire labels come from that same pass, not from the reference
    # labeler
    calls = []
    for name in ("_extract_b_free", "diagonalize"):
        _count(monkeypatch, calls, name, CALLEES)
    _count(monkeypatch, calls, "label_circuit", (quopitsim.oracle, quopitsim))
    path = circuit_file(FIG_TEXT)
    code, _, _ = run(capsys, [command, "-c", path, "-a", "1,1,1",
                              "-b", "1,1,1", "--explain"])
    assert code == 0
    assert sorted(calls) == ["_extract_b_free", "diagonalize"]


def test_check_extracts_once_per_trial(capsys, circuit_file, monkeypatch):
    # the closed form extracts once per trial, and the path-sum oracle
    # takes its S(x) from the reference labeler, not from this extractor
    calls = []
    _count(monkeypatch, calls, "_extract_b_free", CALLEES)
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, ["check", "-c", path, "--trials", "4"])
    assert code == 0
    assert out.splitlines()[2].startswith("max |closed_form - path_sum| = ")
    assert calls == ["_extract_b_free"] * 4


def test_check_oracles_see_an_extraction_fault(capsys, circuit_file,
                                               monkeypatch):
    # neither oracle takes S(x) from the streaming extractor, so a fault in
    # it shows as a deviation from both
    extract = quopitsim.pathsum._extract_b_free

    def shifted(*args, **kwargs):
        q0, rows = extract(*args, **kwargs)
        q0.zeta = (q0.zeta + 1) % q0.modulus
        return q0, rows
    monkeypatch.setattr(quopitsim.pathsum, "_extract_b_free", shifted)
    path = circuit_file(FIG_TEXT)
    code, out, _ = run(capsys, ["check", "-c", path, "--trials", "4"])
    assert code == 1
    dense, path_sum = out.splitlines()[1:]
    assert dense.startswith("max |closed_form - dense| = ")
    assert path_sum.startswith("max |closed_form - path_sum| = ")
    assert dense.endswith(">= 1e-9") and path_sum.endswith(">= 1e-9")


def _reference_label_lines(lc) -> list[str]:
    """The label lines of --explain, from the snapshots of
    oracle.label_circuit."""
    def regs(forms):
        return ", ".join(f"reg{r} = {f.render()}" for r, f in enumerate(forms))
    lines = ["inputs: " + regs(lc.snapshots[0])]
    for i, gate in enumerate(lc.circuit.gates):
        head = " ".join([gate.kind, *map(str, gate.registers)])
        ins = ", ".join(f.render() for f in lc.gate_inputs(i))
        outs = ", ".join(f.render() for f in lc.gate_outputs(i))
        if len(gate.registers) == 2:
            ins, outs = f"({ins})", f"({outs})"
        lines.append(f"gate {i + 1} ({head}): in {ins} -> out {outs}")
    lines.append("outputs: " + regs(lc.snapshots[-1]))
    return lines


def test_explain_labels_match_reference_labeler(capsys):
    # the label lines rendered from the extractor's rows through its
    # per-gate hook, against the reference labeler's affine forms, as
    # printed
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = int(rng.choice([3, 5, 7, 101, 10007]))
        n = int(rng.integers(1, 7))
        cn = normalize_to_standard_form(
            random_circuit(rng, p, n, int(rng.integers(0, 81))))
        a, b = (tuple(int(v) for v in rng.integers(0, p, size=n))
                for _ in range(2))
        quopitsim.cli._explain(cn, a, b)
        dump = capsys.readouterr().out
        want = _reference_label_lines(label_circuit(cn, a, b))
        assert dump.splitlines()[1:len(want) + 1] == want


def test_output_is_deterministic(capsys, circuit_file):
    path = circuit_file(FIG_TEXT)
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["table", "-c", path, "-a", "0,1,2"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv_tail,fragment", [
    (["amp", "-a", "0,1", "-b", "0"], "expected 1 components"),
    (["amp", "-a", "5", "-b", "0"], "not a residue in [0, 3)"),
    (["amp", "-a", "x", "-b", "0"], "expected comma-separated integers"),
    (["amp"], "required: -a, -b"),
])
def test_validation_failures_exit_one(capsys, circuit_file, argv_tail,
                                      fragment):
    path = circuit_file(SINGLE_F)
    argv = [argv_tail[0], "-c", path] + argv_tail[1:]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert fragment in err


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, ["amp", "-c", str(tmp_path / "nope.qc"),
                                "-a", "0", "-b", "0"])
    assert code == 1
    assert "cannot read circuit file" in err


def test_bad_modulus_exits_one(capsys, circuit_file):
    path = circuit_file("p 4\nn 1\nF 0\n")
    code, _, err = run(capsys, ["amp", "-c", path, "-a", "0", "-b", "0"])
    assert code == 1
    assert err.startswith("circuit error: ")
    assert "odd prime" in err


def test_modulus_beyond_exact_arithmetic_exits_one(capsys, circuit_file):
    # --explain holds its label lines until the run has finished, so a
    # refused run prints nothing on stdout either
    path = circuit_file("p 100000007\nn 1\nF 0\nF 0\n")
    for flags in ([], ["--explain"]):
        code, out, err = run(capsys, ["amp", "-c", path, "-a", "0", "-b", "0",
                                      *flags])
        assert code == 1
        assert out == ""
        assert err.startswith("error: p = 100000007 with alpha = 1 ")


@pytest.mark.parametrize("p, code, stream, text", [
    # prime: decided by Miller-Rabin, not by trial division up to 10^9
    ("1000000000000000003", 0, "out",
     "1000000000000000003^(-1/2) * i^0 * chi(35)\n0.000000+0.000000i\n"),
    # 1000000007 * 1000000009
    ("1000000016000000063", 1, "err",
     "circuit error: line 1: modulus must be prime, "
     "got 1000000016000000063\n"),
    # the first prime above 2^63: refused, not an OverflowError traceback
    ("9223372036854775837", 1, "err",
     "circuit error: line 1: modulus must be below 2^63, "
     "got 9223372036854775837\n"),
], ids=["prime", "composite", "beyond-2^63"])
def test_64_bit_moduli_are_decided_quickly(capsys, circuit_file, p, code,
                                           stream, text):
    fields._odd_prime.cache_clear()
    path = circuit_file(f"p {p}\nn 1\nF 0\n")
    start = time.perf_counter()
    got, out, err = run(capsys, ["amp", "-c", path, "-a", "5", "-b", "7"])
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert {"out": out, "err": err}[stream] == text


def test_unknown_command_exits_one(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1
    assert "invalid choice" in err


def test_table_cap_exits_two(capsys, circuit_file):
    path = circuit_file("p 7\nn 6\n")
    code, _, err = run(capsys, ["table", "-c", path, "-a", "0,0,0,0,0,0"])
    assert code == 2
    assert err == "cap exceeded: table has 7^6 rows, cap is 100000\n"


def test_table_cap_names_a_power_past_the_int_digit_limit(capsys,
                                                          circuit_file):
    # 3^9100 has 4342 digits, more than Python >= 3.11 turns into a string,
    # so the cap message prints the power and the exit code stays 2
    path = circuit_file("p 3\nn 9100\n")
    code, out, err = run(capsys, ["table", "-c", path, "-a",
                                  ",".join(["0"] * 9100)])
    assert (code, out) == (2, "")
    assert err == "cap exceeded: table has 3^9100 rows, cap is 100000\n"


def test_check_refuses_past_the_dense_cap_before_the_closed_form(
        capsys, circuit_file, monkeypatch):
    # 3^9 > 10^4: the dense oracle refuses, so neither the closed form nor
    # the path-sum oracle runs
    def refuse(*args):
        raise AssertionError("closed form evaluated")
    for name in ("amplitude", "path_sum_amplitude"):
        monkeypatch.setattr(quopitsim.cli, name, refuse)
    path = circuit_file("p 3\nn 9\nF 0\n")
    code, out, err = run(capsys, ["check", "-c", path, "--trials", "1"])
    assert (code, out) == (2, "")
    assert err == "cap exceeded: dense dimension p^n = 3^9 exceeds 10000\n"


def test_console_script(circuit_file):
    exe = shutil.which("quopitsim")
    if exe is None:
        pytest.skip("console script not on PATH")
    path = circuit_file(SINGLE_F)
    proc = subprocess.run([exe, "amp", "-c", path, "-a", "0", "-b", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "3^(-1/2) * i^0 * chi(0)\n0.577350+0.000000i\n"
