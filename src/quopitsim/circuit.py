"""Circuit data model, text-format parser, and standard-form normalization.

File format (UTF-8 text): line `p <odd prime>`, line `n <registers>`, then one
gate per line: `F <r>`, `R <r>`, `SUM <control> <target>`. `#` starts a
comment, blank lines are ignored, registers are 0-indexed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fields import OddPrime

FOURIER = "F"
PHASE = "R"
SUM = "SUM"

TERMINAL = "terminal"
NON_TERMINAL = "non-terminal"


class CircuitParseError(ValueError):
    """Raised for malformed circuit text or invalid circuit structure."""


class CapExceeded(Exception):
    """A size guard tripped: a table, a dense dimension or a path
    enumeration too large to evaluate."""


@dataclass(frozen=True)
class Gate:
    kind: str
    registers: tuple[int, ...]

    def __post_init__(self):
        if self.kind in (FOURIER, PHASE):
            if len(self.registers) != 1:
                raise CircuitParseError(f"{self.kind} acts on exactly one register")
        elif self.kind == SUM:
            if len(self.registers) != 2:
                raise CircuitParseError("SUM acts on exactly two registers")
            if self.registers[0] == self.registers[1]:
                raise CircuitParseError("SUM control and target must differ")
        else:
            raise CircuitParseError(f"unknown gate kind {self.kind!r}")

    @classmethod
    def fourier(cls, register: int) -> "Gate":
        return cls(FOURIER, (register,))

    @classmethod
    def phase(cls, register: int) -> "Gate":
        return cls(PHASE, (register,))

    @classmethod
    def sum(cls, control: int, target: int) -> "Gate":
        return cls(SUM, (control, target))

    @property
    def register(self) -> int:
        if self.kind == SUM:
            raise AttributeError("SUM gate has control/target, not a single register")
        return self.registers[0]

    @property
    def control(self) -> int:
        return self.registers[0]

    @property
    def target(self) -> int:
        return self.registers[1]


@dataclass(frozen=True)
class Circuit:
    modulus: OddPrime
    n: int
    gates: tuple[Gate, ...]
    standard_form: bool


def _last_gate_per_register(n: int, gates) -> list[int | None]:
    last: list[int | None] = [None] * n
    for i, g in enumerate(gates):
        for r in g.registers:
            last[r] = i
    return last


def make_circuit(p, n: int, gates) -> Circuit:
    """Validate and build a Circuit, computing its standard_form flag."""
    modulus = p if isinstance(p, OddPrime) else OddPrime(p)
    if n < 1:
        raise CircuitParseError(f"register count must be >= 1, got {n}")
    gates = tuple(gates)
    for g in gates:
        for r in g.registers:
            if not 0 <= r < n:
                raise CircuitParseError(
                    f"register index {r} out of range for n={n}")
    last = _last_gate_per_register(n, gates)
    standard = all(i is not None and gates[i].kind == FOURIER for i in last)
    return Circuit(modulus, n, gates, standard)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; errors carry 1-based line numbers."""
    p = None
    n = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()

        def fail(msg: str):
            raise CircuitParseError(f"line {lineno}: {msg}")

        def int_args(count: int) -> list[int]:
            if len(tokens) != count + 1:
                fail(f"{tokens[0]} expects {count} argument(s), got {len(tokens) - 1}")
            try:
                return [int(t) for t in tokens[1:]]
            except ValueError:
                fail(f"non-integer argument in {line!r}")

        key = tokens[0]
        if p is None:
            if key != "p":
                fail("first line must be `p <odd prime>`")
            (value,) = int_args(1)
            try:
                p = OddPrime(value)
            except ValueError as exc:
                fail(str(exc))
        elif n is None:
            if key != "n":
                fail("second line must be `n <registers>`")
            (n,) = int_args(1)
            if n < 1:
                fail(f"register count must be >= 1, got {n}")
        elif key == FOURIER:
            (r,) = int_args(1)
            gates.append(Gate.fourier(r))
        elif key == PHASE:
            (r,) = int_args(1)
            gates.append(Gate.phase(r))
        elif key == SUM:
            c, t = int_args(2)
            if c == t:
                fail("SUM control and target must differ")
            gates.append(Gate.sum(c, t))
        else:
            fail(f"unknown directive {key!r}")
    if p is None or n is None:
        raise CircuitParseError("missing `p` or `n` header line")
    return make_circuit(p, n, gates)


def serialize_circuit(c: Circuit) -> str:
    lines = [f"p {int(c.modulus)}", f"n {c.n}"]
    for g in c.gates:
        lines.append(" ".join([g.kind, *map(str, g.registers)]))
    return "\n".join(lines) + "\n"


def normalize_to_standard_form(c: Circuit) -> Circuit:
    """Append four Fourier gates (F^4 = identity) to every register whose
    last gate is not a Fourier gate, including untouched registers."""
    if c.standard_form:
        return c
    last = _last_gate_per_register(c.n, c.gates)
    gates = list(c.gates)
    for r in range(c.n):
        i = last[r]
        if i is None or c.gates[i].kind != FOURIER:
            gates.extend(Gate.fourier(r) for _ in range(4))
    return make_circuit(c.modulus, c.n, gates)


def classify_fourier_gates(c: Circuit) -> tuple[tuple[str | None, ...], int]:
    """Per-gate role (terminal / non-terminal for Fourier gates, None for the
    rest) and the non-terminal count alpha."""
    if not c.standard_form:
        raise CircuitParseError("circuit is not in standard form")
    last = _last_gate_per_register(c.n, c.gates)
    terminal_indices = set(last)
    roles: list[str | None] = []
    fourier_count = 0
    for i, g in enumerate(c.gates):
        if g.kind != FOURIER:
            roles.append(None)
            continue
        fourier_count += 1
        roles.append(TERMINAL if i in terminal_indices else NON_TERMINAL)
    return tuple(roles), fourier_count - c.n
