"""pacgreen benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is imported from ``src/``; no
install step is needed.  Workloads: sweep, crosscheck, walk_far,
walk_near (see README.md).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Exits with 2, printing no result, when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostinfo
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Closed loop in one process: no walk or sweep thread pool, and one BLAS
# thread, so the load fits a 2-core host and the thread count never varies.
PINNED_ENV = {"PACGREEN_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 4          # fresh set-up-only processes, plus the measured one
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _read_message(proc, deadline: float) -> dict:
    """Next JSON line from a child, or BenchError on exit or timeout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise BenchError("benchmark process timed out")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"benchmark process exited with {proc.wait()}")
    return json.loads(line)


def _spawn(args, tmp: Path, deadline: float, setup_only: bool):
    """Start a child; return (seconds to ready, result or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_env(), cwd=ROOT)
    try:
        _read_message(proc, deadline)
        ready = time.perf_counter() - t0
        result = None if setup_only else _read_message(proc, deadline)["result"]
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if rc != 0:
            raise BenchError(f"benchmark process exited with {rc}")
        return ready, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _load_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return workloads.load_modules()


def _checks(workload: str, ops: list, refs: dict):
    import checks     # loads numpy, so only after PINNED_ENV is set
    found = []
    if workload == "walk_far":
        mods = _load_package()
        g = mods["domain"].build_geometry(workloads.WALK_ALPHA, workloads.WALK_N)
        d = mods["domain"].build_lattice_domain(g)
        p_exact = mods["green_discrete"].discrete_arc_measure(
            d, workloads.WALK_FAR_START).probabilities
    for op in ops:
        out = op["output"]
        if workload == "sweep":
            found += checks.check_sweep(out["rates"], out["summary"], refs["sweep"],
                                        workloads.SWEEP_ALPHAS)
        elif workload == "crosscheck":
            found += checks.check_crosscheck(out, refs["crosscheck"],
                                             workloads.CROSS_ALPHAS)
        elif workload == "walk_far":
            found.append(checks.check_walk_far(out["arcs"], workloads.WALK_FAR_TRIALS,
                                               p_exact))
        else:
            found.append(checks.check_walk_near(out["expdiff"], refs["walk_near"]))
    by_index = {}
    for op in ops:
        by_index.setdefault(op["index"], {})[op["traced"]] = op["output"]
    for pair in by_index.values():
        if len(pair) == 2:
            found.append(checks.check_same_outputs(pair[False], pair[True]))
    return found


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(ops: list, setups: list, peak_rss_mb: float, speed: float) -> dict:
    """Median operation times divided by the host's speed factor (1 for a
    workload that is not calibrated, see calibrate.py), and the median
    set-up time as measured."""
    return {"wall_s": _metric(statistics.median(o["wall_s"] for o in ops) / speed, "s"),
            "cpu_s": _metric(statistics.median(o["cpu_s"] for o in ops) / speed, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(statistics.median(setups), "s")}


def _expected_steps(walks: list) -> dict:
    """E_x[T] = sum_w G(w, x) for each walk start, from one green_solve."""
    mods = _load_package()
    out = {}
    for alpha, n, x, y, *_ in walks:
        key = (alpha, n, x, y)
        if key not in out:
            d = mods["domain"].build_lattice_domain(mods["domain"].build_geometry(alpha, n))
            out[key] = float(mods["green_discrete"].green_solve(d, (x, y)).values.sum())
    return out


def per_layer(ops: list, trace: dict) -> dict:
    """Per-layer metrics from a traced run.

    Times and time ratios cover the traced warm-up (every layer once, at
    n = 8) plus the traced operations, and are given per traced operation;
    a layer the workload does not call therefore reads its warm-up share.
    Counters cover the traced operations only, so they repeat exactly.
    """
    import tracing
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n_ops = len(traced)
    phases = trace["phases"]

    def total(kind, key):
        return sum(p.get(kind, {}).get(key, 0.0) for p in phases.values())

    def count(key):
        return phases.get("op", {}).get("counts", {}).get(key, 0.0)

    steps = _expected_steps(trace["walks"])
    trials = {"warmup": defaultdict(float), "op": defaultdict(float)}
    for alpha, n, x, y, t, phase in trace["walks"]:
        trials[phase][(alpha, n, x, y)] += t
    walk_steps = sum(t * steps[k] for by_start in trials.values()
                     for k, t in by_start.items())
    op_trials = sum(trials["op"].values())
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = _metric(total("layer_self", layer) / n_ops, "s")
    solve_s = total("func_self", "green_solve") + total("func_self", "dirichlet_solve")
    walk_s = total("layer_self", "walk_mc")
    trials_all = total("counts", "walk_mc.trials")
    m.update({
        "green_discrete.solve_s": _metric(solve_s / n_ops, "s"),
        "green_discrete.arc_measure_s": _metric(
            total("func_total", "discrete_arc_measure") / n_ops, "s"),
        "green_discrete.us_per_unknown": _metric(
            1e6 * solve_s / total("counts", "green_discrete.unknowns_solved"), "us"),
        "green_continuous.closed_form_s": _metric(
            total("func_total", "green_pacman_many") / n_ops, "s"),
        "green_continuous.arc_law_s": _metric(
            total("func_total", "bm_arc_measure") / n_ops, "s"),
        "walk_mc.stream_s": _metric(total("func_total", "trial_rng") / n_ops, "s"),
        "walk_mc.us_per_trial": _metric(1e6 * walk_s / trials_all, "us"),
        "walk_mc.trials_per_s": _metric(trials_all / walk_s, "1/s"),
        "walk_mc.ns_per_step": _metric(1e9 * walk_s / walk_steps, "ns"),
        "cli.emit_s": _metric((total("func_total", "atomic_write_text")
                               + total("func_total", "add_output")) / n_ops, "s"),
    })
    for key, unit in (("domain.interior_sites", "count"),
                      ("domain.boundary_sites", "count"),
                      ("domain.arcs", "count"),
                      ("green_discrete.solves", "count"),
                      ("green_discrete.unknowns_solved", "count"),
                      ("potential.quadrature_points", "count"),
                      ("potential.asymptotic_points", "count"),
                      ("walk_mc.trials", "count"),
                      ("green_continuous.closed_form_points", "count"),
                      ("cli.bytes_written", "bytes")):
        m[key] = _metric(count(key) / n_ops, unit)
    # weights per start, so that the value does not depend on how many
    # operations the run made
    m["walk_mc.expected_steps_per_trial"] = _metric(
        sum(t / op_trials * steps[k] for k, t in trials["op"].items()), "steps")
    m["trace.overhead_s"] = _metric(
        statistics.median(o["wall_s"] for o in traced)
        - statistics.median(o["wall_s"] for o in plain), "s")
    m["trace.spans_per_op"] = _metric(phases["op"]["spans"] / n_ops, "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pacgreen" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)     # before numpy loads in this process
    import calibrate

    deadline = time.monotonic() + TIMEOUT_S
    refs = json.loads((HERE / "references.json").read_text())
    tmp = ROOT / ".perfbench" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    load_before = hostinfo.loadavg()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(_spawn(args, tmp, deadline, setup_only=True)[0])
        ready, result = _spawn(args, tmp, deadline, setup_only=False)
        setups.append(ready)
        load_after = hostinfo.loadavg()
        found = _checks(args.workload, result["ops"], refs)
        if args.trace:
            metrics = per_layer(result["ops"], result["trace"])
        else:
            cal = result["calibration_s"]
            metrics = end_to_end(result["ops"], setups, result["peak_rss_mb"],
                                 calibrate.speed_factor(cal) if cal else 1.0)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    print("host " + json.dumps({
        **hostinfo.host(), "blas": result["blas"],
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "loadavg_before": load_before, "loadavg_after": load_after}))
    print("ops " + json.dumps([[o["index"], o["traced"], round(o["wall_s"], 4),
                                round(o["cpu_s"], 4)] for o in result["ops"]]))
    print("setup_samples " + json.dumps([round(s, 4) for s in setups]))
    cal = result["calibration_s"]
    if cal:
        print("calibration " + json.dumps({
            "ref_s": calibrate.REF_S,
            "speed_factor": round(calibrate.speed_factor(cal), 4),
            "samples": [round(c, 5) for c in cal]}))
    for c in found:
        if not c.ok:
            print(f"FAILED {c.name}: {c.detail}")
    failed = sum(not c.ok for c in found)
    print(json.dumps({"correct": failed == 0, "attempted": len(found),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
