import dataclasses
import re

import numpy as np
import pytest

from quopitsim import (Circuit, CircuitParseError, Gate, OddPrime, amplitude,
                       classify_fourier_gates, make_circuit,
                       normalize_to_standard_form, parse_circuit,
                       serialize_circuit)
from quopitsim import circuit
from quopitsim.circuit import NON_TERMINAL, SUM, TERMINAL

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


def test_parse_golden():
    c = parse_circuit(FIG_TEXT)
    assert int(c.modulus) == 3
    assert c.n == 3
    assert len(c.gates) == 9
    assert c.gates[0] == Gate.phase(0)
    assert c.gates[2] == Gate.sum(0, 1)
    assert c.standard_form


def test_parse_comments_and_blanks():
    text = "# header\np 5\n\nn 2  # two registers\nF 0 # last\nF 1\n"
    c = parse_circuit(text)
    assert int(c.modulus) == 5
    assert c.n == 2
    assert len(c.gates) == 2


def test_round_trip():
    c = parse_circuit(FIG_TEXT)
    assert parse_circuit(serialize_circuit(c)) == c
    # canonical text survives byte-identically
    assert serialize_circuit(c) == FIG_TEXT


@pytest.mark.parametrize("text,fragment", [
    ("n 2\np 3\n", "first line must be `p"),
    ("p 4\nn 1\n", "line 1"),
    ("p 3\nF 0\n", "second line must be `n"),
    ("p 3\nn 0\n", "register count"),
    ("p 3\nn 2\nF 0 1\n", "expects 1 argument"),
    ("p 3\nn 2\nSUM 0\n", "expects 2 argument"),
    ("p 3\nn 2\nSUM 1 1\n", "control and target must differ"),
    ("p 3\nn 2\nF 2\n", "out of range"),
    ("p 3\nn 2\nQ 0\n", "unknown directive"),
    ("p 3\nn 2\nF x\n", "non-integer"),
    ("p 3\n", "missing"),
    # an index out of range, or negative, names its line like any other
    # error
    ("p 3\nn 2\nF 0\nR 5\n", "^line 4: register index 5 out of range"),
    ("p 3\nn 2\nF 0\nR -1\n", "^line 4: register index -1 out of range"),
    ("p 3\nn 0\nF 0\n", "^line 2: register count must be >= 1, got 0"),
    ("p 3\n\n# no n\n", "^line 4: missing `n` header line"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(CircuitParseError, match=fragment) as excinfo:
        parse_circuit(text)
    assert re.match(r"line \d+: ", str(excinfo.value))


def test_gate_validation():
    # the parser reports the same messages, prefixed with the line
    with pytest.raises(CircuitParseError,
                       match=r"^F expects 1 argument\(s\), got 2$"):
        Gate("F", (0, 1))
    with pytest.raises(CircuitParseError, match="^SUM expects 2 argument"):
        Gate(SUM, (0,))
    with pytest.raises(CircuitParseError, match="must differ"):
        Gate.sum(2, 2)
    with pytest.raises(CircuitParseError, match="^unknown directive 'BOGUS'$"):
        Gate("BOGUS", (0,))


def test_gate_stores_plain_int_registers():
    # True and numpy integers are indices, stored as ints, so the gate
    # serializes as the parser reads it back
    g = Gate("R", (True,))
    assert type(g.register) is int and g == Gate.phase(1)
    c = make_circuit(3, 2, [g, Gate.sum(np.int64(1), np.int32(0))])
    assert [type(r) for r in c.gates[1].registers] == [int, int]
    assert serialize_circuit(c) == "p 3\nn 2\nR 1\nSUM 1 0\n"
    assert parse_circuit(serialize_circuit(c)) == c


@pytest.mark.parametrize("registers", [(1.0,), (0.5,)])
def test_gate_refuses_float_registers(registers):
    with pytest.raises(TypeError):
        Gate("R", registers)
    with pytest.raises(TypeError):
        Gate.sum(0, *registers)


# make_circuit and a direct Circuit(...) are one checked constructor
BUILDERS = pytest.mark.parametrize("build", [make_circuit, Circuit],
                                   ids=["make_circuit", "Circuit"])


@BUILDERS
def test_make_circuit_validation(build):
    with pytest.raises(CircuitParseError,
                       match="^register index 2 out of range for n=2$"):
        build(3, 2, [Gate.fourier(0), Gate.sum(2, 1)])
    with pytest.raises(CircuitParseError,
                       match="^register index -1 out of range for n=2$"):
        build(3, 2, [Gate.fourier(0), Gate.sum(-1, 0)])
    with pytest.raises(CircuitParseError,
                       match="^register count must be >= 1, got 0$"):
        build(3, 0, [])
    with pytest.raises(ValueError, match="modulus must be"):
        build(9, 1, [Gate.fourier(0)])
    c = build(5, 2, [Gate.fourier(1)])
    assert type(c.modulus) is OddPrime and c.gates == (Gate.fourier(1),)


@BUILDERS
@pytest.mark.parametrize("p", [7.9, 7.0, "7"])
def test_modulus_must_be_an_integer(build, p):
    # a float modulus was truncated, so 7.9 built and evaluated a p = 7
    # circuit
    with pytest.raises(TypeError):
        build(p, 1, [Gate.fourier(0)])


@BUILDERS
@pytest.mark.parametrize("n", [2.0, 2.5])
def test_register_count_must_be_an_integer(build, n):
    with pytest.raises(TypeError):
        build(3, n, [Gate.fourier(0)])


@BUILDERS
def test_register_count_is_stored_as_an_int(build):
    assert type(build(3, np.int64(2), [Gate.fourier(0)]).n) is int


@BUILDERS
def test_standard_form_flag(build):
    assert not build(3, 1, [Gate.phase(0)]).standard_form
    assert not build(3, 2, [Gate.fourier(0)]).standard_form  # reg 1 untouched
    assert build(3, 1, [Gate.fourier(0)]).standard_form
    # a SUM after the Fourier gate spoils both its registers
    c = build(3, 2, [Gate.fourier(0), Gate.fourier(1), Gate.sum(0, 1)])
    assert not c.standard_form


def test_standard_form_is_not_a_field():
    assert [f.name for f in dataclasses.fields(Circuit)] == [
        "modulus", "n", "gates"]
    with pytest.raises(TypeError):
        Circuit(3, 1, (Gate.phase(0),), True)


def test_amplitude_scans_last_gates_twice(monkeypatch):
    # normalize and classify scan once each; parsing does not scan
    calls = []
    scan = circuit._last_gate_per_register

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(circuit, "_last_gate_per_register", counted)
    c = parse_circuit("p 3\nn 2\nF 0\nSUM 0 1\nR 1\n")
    amplitude(c, (0, 0), (0, 0))
    assert len(calls) == 2


def test_parse_and_normalize_check_each_gate_once(monkeypatch):
    # the parser checks each gate's registers on its line, and neither the
    # circuit it returns nor the normalized one checks them again
    checked = []
    check = circuit._check_registers

    def counted(gates, n):
        checked.extend(gates)
        return check(gates, n)

    monkeypatch.setattr(circuit, "_check_registers", counted)
    c = parse_circuit("p 3\nn 2\nF 0\nSUM 0 1\nR 1\n")
    assert checked == list(c.gates)
    cn = normalize_to_standard_form(c)
    assert checked == list(c.gates)
    assert cn == Circuit(3, 2, cn.gates) and cn.standard_form
    # a circuit built by hand is still checked whole
    checked.clear()
    Circuit(3, 2, c.gates)
    assert checked == list(c.gates)


def test_normalize_appends_four_fouriers():
    c = make_circuit(3, 2, [Gate.phase(0)])
    cn = normalize_to_standard_form(c)
    # both registers need mending: R-ended register 0 and untouched register 1
    assert cn.standard_form
    assert len(cn.gates) == 1 + 4 + 4
    assert cn.gates[1:5] == tuple(Gate.fourier(0) for _ in range(4))
    assert cn.gates[5:] == tuple(Gate.fourier(1) for _ in range(4))


def test_normalize_keeps_standard_circuits():
    c = parse_circuit(FIG_TEXT)
    assert normalize_to_standard_form(c) is c


def test_normalize_idempotent():
    c = make_circuit(5, 3, [Gate.sum(0, 2), Gate.fourier(1)])
    cn = normalize_to_standard_form(c)
    assert normalize_to_standard_form(cn) is cn


def test_classify_roles_fig_circuit():
    c = parse_circuit(FIG_TEXT)
    roles, alpha = classify_fourier_gates(c)
    assert alpha == 3  # six Fourier gates on three registers
    assert roles == (None, NON_TERMINAL, None, NON_TERMINAL, NON_TERMINAL,
                     None, TERMINAL, TERMINAL, TERMINAL)


def test_classify_requires_standard_form():
    c = make_circuit(3, 1, [Gate.phase(0)])
    with pytest.raises(CircuitParseError):
        classify_fourier_gates(c)


def test_classify_alpha_counts():
    # n=1 with k Fourier gates: alpha = k - 1
    for k in range(1, 6):
        c = make_circuit(3, 1, [Gate.fourier(0)] * k)
        _, alpha = classify_fourier_gates(c)
        assert alpha == k - 1
