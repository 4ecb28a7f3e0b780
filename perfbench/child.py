"""One benchmark process: import the package, warm up, then either exit
(a set-up sample) or run one workload's operation in a closed loop,
timing the host-speed calibration job between operations if the workload
is calibrated.

Protocol on standard output, one JSON object a line: ``{"ready": ...}``
once the warm-up is done, then ``{"result": ...}`` after the loop.  The
package's own writes to standard output are redirected to standard error.
Run by run.py; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
import hostinfo
import workloads


def _send(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def _timed(fn, i):
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn(i)
    return result, time.perf_counter() - t0, time.process_time() - c0


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with os.fdopen(os.dup(1), "w") as proto:
        os.dup2(2, 1)
        sys.stdout = sys.stderr
        _run(args, proto)


def _run(args, proto) -> None:
    mods = workloads.load_modules()
    tmp = Path(args.tmp)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(mods)
        tracer.install()
    workloads.warm_up(mods, tmp)
    if tracer is not None:
        tracer.uninstall()
    _send(proto, {"ready": True})
    if args.setup_only:
        return

    wl = workloads.WORKLOADS[args.workload](mods, tmp, args.seed)
    cal = calibrate.Calibrator() if wl.calibrated else None
    ops = []
    busy = 0.0
    start = time.perf_counter()
    if cal is not None:
        cal.keep_up(busy)
    i = 0
    while True:
        if tracer is None:
            order = (False,)
        else:   # alternate which of the pair runs first
            order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.phase = "op"
                tracer.install()
                result, wall, cpu = _timed(
                    lambda k: tracer.root("bench.op", wl.run, k), i)
                tracer.uninstall()
            else:
                result, wall, cpu = _timed(wl.run, i)
            ops.append({"index": i, "traced": traced, "wall_s": wall,
                        "cpu_s": cpu, "output": wl.extract(result)})
            busy += wall
            if cal is not None:
                cal.keep_up(busy)
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break

    out = {"ops": ops, "calibration_s": cal.samples if cal is not None else [],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "blas": hostinfo.blas_info()}
    if tracer is not None:
        out["trace"] = tracer.summary()
    _send(proto, {"result": out})


if __name__ == "__main__":
    main()
