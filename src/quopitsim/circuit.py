"""Circuit data model, text-format parser, and standard-form normalization.

File format (UTF-8 text): line `p <odd prime>`, line `n <registers>`, then one
gate per line: `F <r>`, `R <r>`, `SUM <control> <target>`. `#` starts a
comment, blank lines are ignored, registers are 0-indexed.
"""
from __future__ import annotations

import operator
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
    """One gate: its kind, F, R or SUM, and its register indices.

    Gate owns the rules of a single gate, for the parser and for library
    callers alike: integer register indices (anything `operator.index`
    accepts, stored as plain ints), a known kind, one register for F and R
    and two for SUM, and distinct SUM registers. Whether an index names a
    register of the circuit is `Circuit`'s rule.
    """

    kind: str
    registers: tuple[int, ...]

    def __post_init__(self):
        # a float raises TypeError here; True is stored as 1
        object.__setattr__(self, "registers",
                           tuple(map(operator.index, self.registers)))
        if self.kind not in (FOURIER, PHASE, SUM):
            raise CircuitParseError(f"unknown directive {self.kind!r}")
        count = 2 if self.kind == SUM else 1
        if len(self.registers) != count:
            raise CircuitParseError(f"{self.kind} expects {count} "
                                    f"argument(s), got {len(self.registers)}")
        if count == 2 and self.registers[0] == self.registers[1]:
            raise CircuitParseError("SUM control and target must differ")

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
    """A circuit: its odd prime modulus, its register count n and its gates.

    Circuit owns the rules of a whole circuit, however it is built: an odd
    prime modulus (through `OddPrime`), an integer register count of at
    least one (stored as a plain int), and every register index in range
    (`_check_registers`). Each gate's own rules are `Gate`'s. The gates are
    stored as a tuple. Whether the circuit is in standard form is worked
    out from its gates, not stored.
    """

    modulus: OddPrime
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not isinstance(self.modulus, OddPrime):
            object.__setattr__(self, "modulus", OddPrime(self.modulus))
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise CircuitParseError(
                f"register count must be >= 1, got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_registers(self.gates, self.n)

    @property
    def standard_form(self) -> bool:
        return not _open_registers(self, _last_gate_per_register(self))


# the checked constructor under the name library callers know
make_circuit = Circuit


def _last_gate_per_register(c: Circuit) -> list[int | None]:
    last: list[int | None] = [None] * c.n
    for i, g in enumerate(c.gates):
        for r in g.registers:
            last[r] = i
    return last


def _open_registers(c: Circuit, last) -> list[int]:
    """The standard-form rule: every register's last gate is F. Returns the
    registers that break it, untouched ones included, from the index of
    each register's last gate (`_last_gate_per_register`)."""
    return [r for r, i in enumerate(last)
            if i is None or c.gates[i].kind != FOURIER]


def _check_registers(gates, n: int) -> None:
    """The register-range rule, shared by `Circuit` and the parser: every
    index of every gate names one of the n registers."""
    for g in gates:
        for r in g.registers:
            if not 0 <= r < n:
                raise CircuitParseError(
                    f"register index {r} out of range for n={n}")


def _checked_circuit(modulus: OddPrime, n: int, gates) -> Circuit:
    # a Circuit from parts that already keep its rules: the parser checks
    # each gate as it reads its line, and normalizing appends gates on the
    # registers of a circuit, so neither needs every gate checked again
    c = object.__new__(Circuit)
    for name, value in (("modulus", modulus), ("n", n),
                        ("gates", tuple(gates))):
        object.__setattr__(c, name, value)
    return c


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; every error begins `line N: `.

    The parser owns only the syntax: comments and blank lines, the `p` and
    `n` header lines first and in that order, one integer per header line
    and integer gate arguments. Every other rule is checked where library
    callers meet it too: the modulus by `OddPrime`, the register count by
    `Circuit`, each gate by `Gate` and its indices by
    `_check_registers`. What they raise is raised again with the line
    number of the offending line; a missing header line is reported at the
    line after the last.
    """
    p = n = None
    gates: list[Gate] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *tokens = line.split()
        try:
            if n is None and key != ("p" if p is None else "n"):
                raise CircuitParseError(
                    "first line must be `p <odd prime>`" if p is None
                    else "second line must be `n <registers>`")
            try:
                args = tuple(map(int, tokens))
            except ValueError:
                raise CircuitParseError(
                    f"non-integer argument in {line!r}") from None
            if n is not None:
                gates.append(Gate(key, args))
                _check_registers(gates[-1:], n)
            elif len(args) != 1:
                raise CircuitParseError(
                    f"{key} expects 1 argument(s), got {len(args)}")
            elif p is None:
                p = OddPrime(args[0])
            else:
                # the register-count rule is Circuit's
                n = Circuit(p, args[0], ()).n
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise CircuitParseError(f"line {len(lines) + 1}: missing "
                                f"`{'p' if p is None else 'n'}` header line")
    return _checked_circuit(p, n, gates)


def serialize_circuit(c: Circuit) -> str:
    lines = [f"p {int(c.modulus)}", f"n {c.n}"]
    for g in c.gates:
        lines.append(" ".join([g.kind, *map(str, g.registers)]))
    return "\n".join(lines) + "\n"


def normalize_to_standard_form(c: Circuit) -> Circuit:
    """Append four Fourier gates (F^4 = identity) to every register whose
    last gate is not a Fourier gate, including untouched registers."""
    open_ = _open_registers(c, _last_gate_per_register(c))
    if not open_:
        return c
    return _checked_circuit(c.modulus, c.n, c.gates + tuple(
        Gate.fourier(r) for r in open_ for _ in range(4)))


def classify_fourier_gates(c: Circuit) -> tuple[tuple[str | None, ...], int]:
    """Per-gate role (terminal / non-terminal for Fourier gates, None for the
    rest) and the non-terminal count alpha."""
    last = _last_gate_per_register(c)
    if _open_registers(c, last):
        raise CircuitParseError("circuit is not in standard form")
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
