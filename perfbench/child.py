"""One measured `gradsurf run`, in a fresh interpreter.

Started by run.py with the gradsurf sources on PYTHONPATH.  It times set-up
(interpreter start to gradsurf imported and the config validated, counted
from the parent's clock reading just before the spawn), then calls
``gradsurf.cli.main(["run", ...])`` and records its wall time, the CPU time
of the whole process (BLAS threads included) and the peak resident memory.
With --spans the call runs traced and the spans are written there at the
end.  The result is a JSON file; the program's own output stays on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads(numpy):
    """BLAS thread count read from the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return {"library": os.path.basename(path), "symbol": symbol, "threads": fn()}
    return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--t0", type=float, required=True, help="parent perf_counter at spawn")
    p.add_argument("--src", required=True, help="directory gradsurf must be imported from")
    p.add_argument("--config", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--out", help="artifact directory; omit to measure set-up only")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--spans", help="trace the run and write its spans here")
    args = p.parse_args()

    import gradsurf
    import gradsurf.cli
    from gradsurf.config import from_mapping, load_mapping

    from_mapping(load_mapping(args.config))
    setup_s = time.perf_counter() - args.t0

    where = os.path.realpath(gradsurf.__file__)
    if not where.startswith(os.path.realpath(args.src) + os.sep):
        print(f"gradsurf was imported from {where}, not from {args.src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if args.out is not None:
        argv = ["run", "--config", args.config, "--out", args.out, "--workers", str(args.workers)]
        tracer = None
        if args.spans:
            from tracing import Tracer  # this script's directory is sys.path[0]

            tracer = Tracer()
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        if tracer is None:
            rc = gradsurf.cli.main(argv)
        else:
            rc = tracer.run_root("cli.main", gradsurf.cli.main, argv)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mib=after.ru_maxrss / 1024.0,
            machine=machine_facts(),
        )
        if tracer is not None:
            with open(args.spans, "w", encoding="utf-8") as f:
                json.dump(tracer.spans, f)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
