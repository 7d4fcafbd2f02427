"""Seeded benchmark for quopitsim.

    python3 perfbench/run.py --workload {large,wide,corpus,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run from the root of a checkout: the library is imported from ./src and
nothing is installed. `--trace 0` times the workload with tracing off and
prints the end-to-end metrics; `--trace 1` splits the run into an untraced
third, a third with spans and a third with spans plus tracemalloc, and
prints the per-layer metrics, including the tracing overhead. Either way every op is checked after the
timed region, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. A results file with the environment
record goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
CHECK_WORKERS = 2
CHECK_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail

END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB"))
CHECK_METRICS = (("checks.checked_ops", "count"),
                 ("checks.failed_frac", "ratio"))


def import_library():
    """Import quopitsim from this checkout's source tree, or exit 1."""
    if not (SRC / "quopitsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quopitsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quopitsim
    if Path(quopitsim.__file__).resolve().parent != (SRC / "quopitsim").resolve():
        sys.exit(f"perfbench: imported quopitsim from {quopitsim.__file__}, "
                 f"not from {SRC}")


def openblas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "openblas_threads": openblas_threads(),
            "platform": platform.platform(), "seed": seed,
            "commit": git_commit()}


@dataclass
class Record:
    k: int
    inputs: object
    output: object
    error: str | None
    latency: float
    problems: list[str] | None = None  # set when checked inline


def timed_set_up(wl, setup_times: list[float]) -> None:
    t0 = time.perf_counter()
    wl.setup()
    setup_times.append(time.perf_counter() - t0)


def timed_loop(wl, seconds: float, tracer, first_k: int,
               setup_times: list[float] | None = None) -> list[Record]:
    """Closed loop: run ops back to back until they have taken `seconds`
    and the workload is at a block boundary. Input generation and inline
    checks are not timed.

    With `setup_times`, set-up is timed SETUP_REPEATS times: once before the
    first op and then between ops at even steps of the time spent in ops.
    The host's speed drifts over seconds, so repeats made back to back would
    all see one state of it; spread like this, their median samples the
    host over the whole run, as the op latencies do."""
    import checks

    records = []
    k = first_k
    spent = 0.0
    while True:
        while (setup_times is not None and len(setup_times) < SETUP_REPEATS
               and spent >= len(setup_times) * seconds / SETUP_REPEATS):
            timed_set_up(wl, setup_times)
        inputs = wl.prepare(k)
        frame = None
        if tracer.enabled:
            tracer.op = k
            frame = tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            output, error = wl.run(inputs), None
        except Exception as exc:  # a failed op is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if frame is not None:
            tracer.end(frame)
        record = Record(k, inputs, output, error, t1 - t0)
        if wl.check_inline and error is None:
            enabled, tracer.enabled = tracer.enabled, False
            record.problems = checks.run(*wl.check_job(inputs, output))
            record.output = None
            tracer.enabled = enabled
        records.append(record)
        spent += t1 - t0
        k += 1
        if spent >= seconds and wl.boundary(k):
            return records


def run_checks(jobs: list, workdir: Path) -> list[list[str]]:
    """checks.run over every job, in up to CHECK_WORKERS child processes.
    The checks cost several times the op itself on `large` and `wide`, and
    they run after the timed region, so spreading them over the cores
    shortens the run without touching what is measured. Each child is a
    plain `run.py --check-jobs IN OUT` process, started here and waited for
    on every path out, so nothing outlives the benchmark."""
    shares = [list(range(i, len(jobs), CHECK_WORKERS))
              for i in range(min(CHECK_WORKERS, len(jobs)))]
    results: list = [None] * len(jobs)
    procs = []
    try:
        for i, share in enumerate(shares):
            src = workdir / f"check-{i}.in.pkl"
            dst = workdir / f"check-{i}.out.pkl"
            src.write_bytes(pickle.dumps([jobs[j] for j in share]))
            procs.append((share, dst, subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--check-jobs", str(src), str(dst)],
                stdout=subprocess.DEVNULL)))
        deadline = time.monotonic() + CHECK_TIMEOUT_S
        for share, dst, proc in procs:
            try:
                code = proc.wait(timeout=max(deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                code = "timeout"
            found = None
            if code == 0:
                try:
                    found = pickle.loads(dst.read_bytes())
                except (OSError, pickle.UnpicklingError, EOFError):
                    code = "unreadable results"
            if found is None or len(found) != len(share):
                found = [[f"check worker ended with {code}"]] * len(share)
            for j, problems in zip(share, found):
                results[j] = problems
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def check_worker(src: str, dst: str) -> int:
    """Entry point of a check child: run checks.run over the pickled jobs
    in `src` and pickle the lists of problems to `dst`."""
    import checks

    jobs = pickle.loads(Path(src).read_bytes())
    Path(dst).write_bytes(pickle.dumps([checks.run(*job) for job in jobs]))
    return 0


def check_all(wl, records: list[Record], workdir: Path
              ) -> tuple[int, list[str]]:
    """Check every op not checked inline; see run_checks."""
    todo = [r for r in records if r.error is None and r.problems is None]
    if todo:
        found = run_checks([wl.check_job(r.inputs, r.output) for r in todo],
                           workdir)
        for r, problems in zip(todo, found):
            r.problems = problems
    failed = 0
    problems = []
    for r in records:
        errors = [r.error] if r.error is not None else r.problems
        if errors:
            failed += 1
            problems.extend(f"op {r.k}: {p}" for p in errors[:3])
    return failed, problems


def latency_stats(latencies: list[float]) -> dict:
    """Median, and the highest order statistic with TAIL_BEYOND samples
    beyond it. Runs with fewer than 2 * TAIL_BEYOND samples have no such
    point above the median; their tail is the maximum."""
    lat = sorted(latencies)
    n = len(lat)
    if n >= 2 * TAIL_BEYOND:
        idx = n - TAIL_BEYOND - 1
        pct = 100.0 * (idx + 1) / n
    else:
        idx, pct = n - 1, 100.0
    return {"p50": statistics.median(lat), "tail": lat[idx],
            "tail_percentile": pct, "samples": n}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    import spans
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = spans.Tracer()
    try:
        wl = WORKLOADS[name](name, seed, scale, tracer, workdir)
        if not trace:
            setup_times = []
            records = timed_loop(wl, seconds, tracer, 0, setup_times)
            # read before the checks, which allocate on their own account
            peak_rss = wl.peak_rss_mb()
            while len(setup_times) < SETUP_REPEATS:  # ops longer than a step
                timed_set_up(wl, setup_times)
            lat = latency_stats([r.latency for r in records])
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_s_p50": lat["p50"],
                "peak_rss_mb": peak_rss,
            }
            units = dict(END_TO_END)
            detail = {"latency": lat, "setup_times_s": setup_times,
                      "ops_per_s": len(records) / sum(r.latency
                                                       for r in records),
                      "latencies_s": [r.latency for r in records]}
        else:
            wl.setup()
            # thirds: untraced, spans only (times and counts), spans plus
            # tracemalloc (allocation peaks; tracemalloc slows numpy-heavy
            # code several times over, so its times are not used)
            untraced = timed_loop(wl, seconds / 3, tracer, 0)
            uninstall = tracer.install()
            tracer.enabled = True
            try:
                timed = timed_loop(wl, seconds / 3, tracer, len(untraced))
                timing_spans, tracer.spans = tracer.spans, []
                tracemalloc.start()
                allocs = timed_loop(wl, seconds / 3, tracer,
                                    len(untraced) + len(timed))
            finally:
                tracer.enabled = False
                uninstall()
                tracemalloc.stop()
            alloc_spans = tracer.spans
            tracer.spans = timing_spans + alloc_spans
            records = untraced + timed + allocs
            metrics = spans.layer_metrics(
                timing_spans, alloc_spans,
                statistics.fmean(r.latency for r in untraced))
            units = dict(spans.LAYER_METRICS)
            detail = {"untraced_ops": len(untraced), "span_ops": len(timed),
                      "tracemalloc_ops": len(allocs)}
        failed, problems = check_all(wl, records, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics["checks.checked_ops"] = len(records)
        metrics["checks.failed_frac"] = failed / len(records)
        units.update(CHECK_METRICS)
        tracer.dump(OUT / f"{name}-seed{seed}-spans.jsonl",
                    header={"workload": name, "seed": seed})
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]}
                    for m, v in metrics.items()},
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "scale": scale, "seconds": seconds,
        "trace": int(trace), "environment": environment(seed),
        "checked_ops": len(records), "failed_frac": failed / len(records),
        "problems": problems[:20], "detail": detail, "result": result,
    }, indent=1) + "\n", encoding="utf-8")
    return result


def summary_line(name: str, result: dict) -> str:
    n = result["attempted"]
    parts = [f"workload={name}", f"checked={n}",
             f"failed_frac={result['failed'] / n:g}"]
    parts += [f"{m}={v['value']:.6g}{v['unit']}"
              for m, v in result["metrics"].items()]
    return " ".join(parts)


def selftest() -> int:
    """Run every workload at toy size, traced and untraced, and check that
    each metric BENCHMARK.json names is emitted with its unit and that no op
    failed. This covers `corpus` too, which BENCHMARK.json does not list."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, seed=1, seconds=0.5,
                                  trace=bool(trace), scale="toy")
            print(summary_line(name, result))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                bad.append(f"{name} trace={trace}: metrics {got} "
                           f"!= BENCHMARK.json {want}")
            if any(not math.isfinite(v["value"])
                   for v in result["metrics"].values()):
                bad.append(f"{name} trace={trace}: non-finite value")
            if result["failed"] or not result["correct"]:
                bad.append(f"{name} trace={trace}: "
                           f"{result['failed']} failed ops")
    for line in bad:
        print("SELFTEST FAIL:", line)
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


def main() -> int:
    # a terminated run unwinds like an exception, so every child it started
    # is stopped and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("large", "wide", "corpus",
                                               "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=9.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--check-jobs", nargs=2, metavar=("IN", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_library()
    if args.check_jobs:
        return check_worker(*args.check_jobs)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(summary_line(args.workload, result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
