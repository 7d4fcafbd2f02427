"""Launch the quopitsim CLI from the checkout's source tree, as the
`quopitsim` console script would: `python3 perfbench/cli_child.py <args>`.

With PERFBENCH_SPANS set to a file path, the child also times the import of
quopitsim.cli, installs the benchmark's wrappers, runs main under a
`cli.main` span (with tracemalloc on when PERFBENCH_TRACEMALLOC is set) and
writes its spans to that file.
"""
import time

LAUNCH = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def traced_main(argv, spans_path: str) -> int:
    import tracemalloc

    start = time.perf_counter()
    from spans import Tracer  # imports numpy, as quopitsim.cli would

    tracer = Tracer()
    frame = tracer.begin("cli.import")
    frame["start"] = start
    import quopitsim.cli
    tracer.end(frame)
    if os.environ.get("PERFBENCH_TRACEMALLOC"):
        tracemalloc.start()
    uninstall = tracer.install()
    tracer.enabled = True
    frame = tracer.begin("cli.main")
    try:
        return quopitsim.cli.main(argv)
    finally:
        tracer.end(frame)
        tracer.enabled = False
        uninstall()
        tracemalloc.stop()
        sys.stdout.flush()
        tracer.dump(spans_path, header={"launch": LAUNCH})


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if spans_path:
        return traced_main(sys.argv[1:], spans_path)
    from quopitsim.cli import main as cli_main
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
