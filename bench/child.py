"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per run so imports and ``lru_cache``s
start cold, as they do for a ``repro`` command-line user.  It prints one
JSON object on its last stdout line.  The workload parameters arrive as
JSON from the runner, which records them in provenance.

    python bench/child.py --workload NAME --seed S --run K --params JSON
        [--trace 0|1] [--trace-out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import BLAS_ENV, GENERATE, ROOT, RUN, SETUP, WORKLOADS, Stopwatch

# Must be set before numpy loads.
os.environ.update(BLAS_ENV)

# The system is built from source: the checkout's src/, never an install.
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run", type=int, default=0, help="run index: with the seed, keys the inputs")
    parser.add_argument("--params", required=True, help="workload parameters (JSON)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    kind = WORKLOADS[args.workload].kind
    params: Dict[str, Any] = json.loads(args.params)

    started = time.perf_counter()
    import repro  # noqa: F401  -- part of the timed set-up

    system = SETUP[kind](params)
    setup_s = time.perf_counter() - started
    result: Dict[str, Any] = {"setup_s": setup_s}
    started = time.perf_counter()
    inputs = GENERATE[kind](params, args.seed, args.run)
    result["gen_s"] = time.perf_counter() - started

    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            measured = RUN[kind](system, inputs, tracer)
        finally:
            tracer.restore()
    else:
        tracer = None
        measured = RUN[kind](system, inputs, Stopwatch())
    peak_rss = peak_rss_mb()

    import numpy
    import scipy

    result.update(
        wall_s=measured.wall_s,
        input_s=measured.input_s,
        realtime_x=measured.realtime_x,
        latencies_s=measured.latencies_s,
        attempted=measured.attempted,
        delivered=measured.delivered,
        failed=measured.failed,
        digest=measured.digest,
        checks=measured.checks,
        counts=measured.counts,
        peak_rss_mb=peak_rss,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        if args.trace_out:
            out = Path(args.trace_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(tracer.chrome_trace()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
