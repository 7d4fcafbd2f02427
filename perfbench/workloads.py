"""The four workloads. Each one exposes

- setup(): generate the warm-up inputs and finish a warm-up call;
- prepare(k): the inputs of timed op k (untimed);
- run(inputs): the timed op, driving quopitsim through its public entry
  points, returning what the check needs;
- check_job(inputs, output): the (kind, args) that checks.run takes to
  check the op;
- boundary(k): whether the loop may stop before op k, so that a mixed
  workload always times whole blocks of its mix;
- check_inline: whether each op is checked as soon as it has been timed
  rather than after the timed region;
- peak_rss_mb(): peak resident memory of the process that did the work.

The load is a closed loop from one client: an op starts when the previous
one has finished.
"""
from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import quopitsim

from generate import (CORPUS_CLASSES, MIX, TIMED, WARMUP, circuit_text,
                      corpus_circuit, residues, rng_for)

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

# geometry per scale; "toy" is the self-test size
SCALES = {
    "full": {
        "large": {"p": 3, "n": 50, "gates": 10_000},
        "wide": {"p": 10007, "n": 200, "gates": 10_000},
        "cli": {"small": (3, 6, 40), "mid": (5, 20, 2000)},
    },
    "toy": {
        "large": {"p": 3, "n": 8, "gates": 300},
        "wide": {"p": 10007, "n": 12, "gates": 300},
        "cli": {"small": (3, 4, 30), "mid": (5, 6, 150)},
    },
}
CORPUS_TABLES = 2
CORPUS_SINGLES = 4


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Transition:
    """`large` and `wide`: every op parses a fresh circuit and evaluates one
    random transition, so nothing can be reused between ops."""

    # checked afterwards, so the checks' own memory stays out of peak RSS
    check_inline = False

    def __init__(self, name: str, seed: int, scale: str, tracer, workdir):
        self.name, self.seed = name, seed
        cfg = SCALES[scale][name]
        self.p, self.n, self.gates = cfg["p"], cfg["n"], cfg["gates"]

    def _inputs(self, rng):
        text = circuit_text(rng, self.p, self.n, self.gates)
        p, n = self.p, self.n
        return text, residues(rng, p, n), residues(rng, p, n)

    def setup(self):
        # a full-size circuit: a small one is dominated by per-call Python
        # work, which a shared host's speed drift moves about twice as much
        # as the numpy-bound op, so its set-up time would not hold still
        self.run(self._inputs(rng_for(self.seed, self.name, WARMUP)))

    def prepare(self, k: int):
        return self._inputs(rng_for(self.seed, self.name, TIMED, k))

    def run(self, inputs):
        text, a, b = inputs
        return quopitsim.amplitude(quopitsim.parse_circuit(text), a, b)

    def check_job(self, inputs, output):
        return "transition", (*inputs, output)

    def boundary(self, k: int) -> bool:
        return True

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


class Corpus:
    """Small circuits from the acceptance-corpus distribution. An op is one
    circuit of each (p, n) class, so every op has the same make-up and the
    op latency has one mode. Per circuit: parse, balance_weight, whole
    outcome tables rendered row by row, and single transitions rendered."""

    # checked at once: holding every rendered table until the end would make
    # peak RSS grow with the number of ops timed, i.e. with speed
    check_inline = True

    def __init__(self, name: str, seed: int, scale: str, tracer, workdir):
        self.name, self.seed = name, seed

    @staticmethod
    def _inputs(rng):
        inputs = []
        for p, n in CORPUS_CLASSES:
            text = corpus_circuit(rng, p, n)
            tables = [residues(rng, p, n) for _ in range(CORPUS_TABLES)]
            singles = [(residues(rng, p, n), residues(rng, p, n))
                       for _ in range(CORPUS_SINGLES)]
            inputs.append((text, tables, singles))
        return inputs

    def setup(self):
        self.run(self._inputs(rng_for(self.seed, self.name, WARMUP)))

    def prepare(self, k: int):
        return self._inputs(rng_for(self.seed, self.name, TIMED, k))

    def run(self, inputs):
        return [self._circuit(*one) for one in inputs]

    @staticmethod
    def _circuit(text, tables, singles):
        c = quopitsim.parse_circuit(text)
        weight = quopitsim.balance_weight(c).weight
        rendered = [(a, [(rep.amplitude.render(), str(rep.probability))
                         for rep in quopitsim.amplitude_table(c, a)])
                    for a in tables]
        amps = []
        for a, b in singles:
            amp = quopitsim.amplitude(c, a, b).amplitude
            amps.append((a, b, amp.render(), amp.to_complex()))
        return rendered, amps, weight

    def check_job(self, inputs, output):
        return "corpus", (inputs, output)

    def boundary(self, k: int) -> bool:
        return True

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()


# one block of the CLI mix: (command kind, input file)
CLI_BLOCK = (
    ("amp", "small"), ("amp", "mid"),
    ("amp_explain", "small"), ("amp_explain", "mid"),
    ("prob_json", "small"), ("prob_json", "mid"),
    ("table", "small"),
    ("weight", "small"), ("weight", "mid"),
    ("check", "small"),
    ("normalize", "small"), ("normalize", "mid"),
)
CHECK_TRIALS = 3


class Cli:
    """Cold `quopitsim` processes, one at a time, over a seeded order of a
    fixed command mix on a small and a mid-sized circuit file. The child is
    cli_child.py, which calls quopitsim.cli.main the way the console script
    does."""

    # the children's peak RSS is what counts; the parent holds only stdout
    check_inline = False

    def __init__(self, name: str, seed: int, scale: str, tracer, workdir):
        self.name, self.seed = name, seed
        self.tracer = tracer
        self.workdir = workdir
        self.files = {}
        self.specs = SCALES[scale]["cli"]
        self.texts = {}
        self.n_child = 0

    def setup(self):
        rng = rng_for(self.seed, self.name, WARMUP)
        for key, (p, n, gates) in self.specs.items():
            self.texts[key] = circuit_text(rng, p, n, gates)
            path = self.workdir / f"{key}.qc"
            path.write_text(self.texts[key], encoding="utf-8")
            self.files[key] = path
        code, _ = self._spawn(["weight", "-c", str(self.files["small"])])
        if code != 0:
            raise RuntimeError(f"warm-up child exited {code}")

    def prepare(self, k: int):
        block = rng_for(self.seed, self.name, MIX, k // len(CLI_BLOCK))
        kind, key = CLI_BLOCK[int(block.permutation(len(CLI_BLOCK))
                                  [k % len(CLI_BLOCK)])]
        p, n, _ = self.specs[key]
        rng = rng_for(self.seed, self.name, TIMED, k)
        cmd = {"kind": kind, "file": key, "a": residues(rng, p, n),
               "b": residues(rng, p, n), "trials": CHECK_TRIALS,
               "seed": int(rng.integers(0, 2 ** 31))}
        return cmd

    def _argv(self, cmd) -> list[str]:
        path = str(self.files[cmd["file"]])
        a = ",".join(map(str, cmd["a"]))
        b = ",".join(map(str, cmd["b"]))
        return {
            "amp": ["amp", "-c", path, "-a", a, "-b", b],
            "amp_explain": ["amp", "-c", path, "-a", a, "-b", b, "--explain"],
            "prob_json": ["prob", "-c", path, "-a", a, "-b", b, "--json"],
            "table": ["table", "-c", path, "-a", a],
            "weight": ["weight", "-c", path],
            "check": ["check", "-c", path, "--trials", str(cmd["trials"]),
                      "--seed", str(cmd["seed"])],
            "normalize": ["normalize", "-c", path],
        }[cmd["kind"]]

    def _spawn(self, argv):
        env = dict(os.environ)
        env.pop("PERFBENCH_SPANS", None)
        env.pop("PERFBENCH_TRACEMALLOC", None)
        spans_path = None
        if self.tracer.enabled:
            spans_path = self.workdir / f"child-{self.n_child}.jsonl"
            env["PERFBENCH_SPANS"] = str(spans_path)
            if tracemalloc.is_tracing():
                env["PERFBENCH_TRACEMALLOC"] = "1"
        self.n_child += 1
        t_spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            timeout=CHILD_TIMEOUT_S, check=False)
        if spans_path is not None:
            self.tracer.adopt_child(spans_path, t_spawn, len(proc.stdout))
        return proc.returncode, proc.stdout.decode("utf-8")

    def run(self, cmd):
        return self._spawn(self._argv(cmd))

    def check_job(self, cmd, output):
        return "cli", (cmd, self.texts[cmd["file"]], *output)

    def boundary(self, k: int) -> bool:
        return k % len(CLI_BLOCK) == 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {"large": Transition, "wide": Transition, "corpus": Corpus,
             "cli": Cli}
