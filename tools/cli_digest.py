"""Print one SHA-256 over the CLI's output on a seeded circuit mix.

Each circuit is written to a file and run through `quopitsim.cli.main` in
process, as `amp`, `amp --explain`, `prob --json`, `table`, `weight`,
`check --trials 3` and `normalize`; the digest covers each run's exit code,
stdout and stderr. A change that keeps every command's output byte for byte
keeps the digest. `check` prints deviations that depend on the platform's
floating point, so compare digests taken on one machine.

    PYTHONPATH=src python tools/cli_digest.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from quopitsim.cli import main as cli_main

SEED = 20240817
CIRCUITS = 300
MODULI = (3, 5, 7, 11, 13, 101, 10007, 65537)


def circuit_text(rng, p: int, n: int, n_gates: int) -> str:
    """A uniform mix of F, R and SUM gates on n registers."""
    lines = [f"p {p}", f"n {n}"]
    for _ in range(n_gates):
        kind = int(rng.integers(0, 3 if n > 1 else 2))
        if kind == 2:
            ctl, tgt = rng.choice(n, size=2, replace=False)
            lines.append(f"SUM {ctl} {tgt}")
        else:
            lines.append(f"{'FR'[kind]} {int(rng.integers(0, n))}")
    return "\n".join(lines) + "\n"


def commands(path: str, a: str, b: str) -> list[list[str]]:
    return [
        ["amp", "-c", path, "-a", a, "-b", b],
        ["amp", "-c", path, "-a", a, "-b", b, "--explain"],
        ["prob", "-c", path, "-a", a, "-b", b, "--json"],
        ["table", "-c", path, "-a", a],
        ["weight", "-c", path],
        ["check", "-c", path, "--trials", "3"],
        ["normalize", "-c", path],
    ]


def run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def main() -> int:
    rng = np.random.default_rng(SEED)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "circuit.qc")
        for _ in range(CIRCUITS):
            p = int(rng.choice(MODULI))
            n = int(rng.integers(1, 7))
            text = circuit_text(rng, p, n, int(rng.integers(0, 60)))
            Path(path).write_text(text, encoding="utf-8")
            a, b = (",".join(str(int(v)) for v in rng.integers(0, p, size=n))
                    for _ in range(2))
            for argv in commands(path, a, b):
                digest.update(run(argv))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
