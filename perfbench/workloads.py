"""The benchmark workloads: an all-layer warm-up and one operation each.

A run repeats one workload's operation in a closed loop: a single process
makes one call after another.  ``run(i)`` is the timed call; ``extract``
turns its result into plain data for the checks, outside the timed region.
The deterministic workloads repeat the same call; the walk workloads give
operation ``i`` its own walk seed, derived from the run seed.

Why these four (see README.md for the predictions):

* ``sweep``: the rate experiment through the CLI; almost all time is the
  sparse Dirichlet solve, so solver changes show here.  No walks.
* ``crosscheck``: many right-hand sides on one cached system, plus the
  only potential-kernel quadrature.  No walks, no CLI.
* ``walk_far``: long walks from the centre (about 6,400 steps a trial), so
  the cost per step dominates.  No solver.
* ``walk_near``: short walks from 4 sites off the boundary (about 820
  steps), so the fixed cost per trial dominates; also samples Brownian
  exit radii.  No solver.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from pathlib import Path

ALPHAS = (0.0, math.pi / 2, math.pi)      # the angles references.json covers
# sweep and crosscheck run one of those angles: a run then holds about ten
# operations instead of two, so its median is steadier.
SWEEP_ALPHAS = (math.pi,)
SWEEP_NS = "32,64,128"
CROSS_ALPHAS = (math.pi,)
CROSS_N = 64
WALK_ALPHA = math.pi
WALK_N = 64
WALK_FAR_START = (0, 0)
WALK_FAR_TRIALS = 2000
WALK_NEAR_X = (26, -60)
WALK_NEAR_TRIALS = 6000

def load_modules():
    """The package's modules by name.  ``pacgreen.potential`` is reached
    through importlib because the package attribute of that name is the
    ``potential`` function re-exported by ``__init__``."""
    names = ("domain", "potential", "green_discrete", "green_continuous",
             "walk_mc", "experiments", "cli")
    return {n: importlib.import_module(f"pacgreen.{n}") for n in names}


def op_seed(seed: int, i: int) -> int:
    """Walk seed of operation i in a run with the given seed."""
    return seed * 100_000 + i


def _dispatch(cli, argv) -> None:
    rc = cli.dispatch(argv)
    if rc != 0:
        raise RuntimeError(f"pacgreen {' '.join(argv)} exited with {rc}")


def warm_up(mods, tmp: Path) -> None:
    """Call every layer once at n = 8 so lazy imports and caches are filled
    before timing (and so a traced run sees every layer at least once)."""
    cli, pi = mods["cli"], repr(math.pi)
    _dispatch(cli, ["rate", "--alphas", pi, "--ns", "8,9,10",
                    "--out", str(tmp / "warm_rate.csv")])
    _dispatch(cli, ["arcs", "--mode", "walk", "--alpha", pi, "--n", "8",
                    "--start", "0,0", "--trials", "16", "--seed", "0",
                    "--out", str(tmp / "warm_arcs.csv")])
    _dispatch(cli, ["expdiff", "--alpha", pi, "--n", "8", "--x", "0,0",
                    "--y", "0,0", "--trials", "16", "--seed", "0",
                    "--out", str(tmp / "warm_expdiff.csv")])
    d = mods["domain"].build_lattice_domain(mods["domain"].build_geometry(math.pi, 8))
    mods["green_discrete"].green_via_potential(d, (0, 0))
    mods["green_discrete"].discrete_arc_measure(d, (0, 0))


# ``calibrated``: whether the operation's times are reported in reference
# seconds (calibrate.py).  The walk operations are interpreted code and
# numpy calls on small arrays, like the calibration job, and slow down with
# it.  The solver operations do not: over five runs in which the job's
# mean time varied by 18 %, sweep's median varied by 3 %, and crosscheck's
# moved about half as much as the job's, so dividing by the job's time
# would add noise.


class Sweep:
    """``pacgreen rate --alphas pi --ns 32,64,128``, in process."""

    calibrated = False

    def __init__(self, mods, tmp: Path, seed: int, alphas=SWEEP_ALPHAS):
        self.cli = mods["cli"]
        self.out = tmp / "rates.csv"
        self.argv = ["rate", "--alphas", ",".join(map(repr, alphas)),
                     "--ns", SWEEP_NS, "--out", str(self.out)]

    def run(self, i: int):
        _dispatch(self.cli, self.argv)

    def extract(self, _):
        return {"rates": self.out.read_text(),
                "summary": self.out.with_name("rates_summary.csv").read_text()}


class Crosscheck:
    """Library calls at n = 64 from (0, 0), for each of CROSS_ALPHAS: both
    Green's function constructions and both arc laws."""

    calibrated = False

    def __init__(self, mods, tmp: Path, seed: int):
        self.mods = mods

    def run(self, i: int):
        dom, gd = self.mods["domain"], self.mods["green_discrete"]
        gc = self.mods["green_continuous"]
        out = []
        for alpha in CROSS_ALPHAS:
            g = dom.build_geometry(alpha, CROSS_N)
            d = dom.build_lattice_domain(g)
            out.append((gd.green_solve(d, (0, 0)),
                        gd.green_via_potential(d, (0, 0)),
                        gd.discrete_arc_measure(d, (0, 0)),
                        gc.bm_arc_measure(g, (0, 0))))
        return out

    def extract(self, result):
        import numpy as np
        return [{"green_max_diff": float(np.max(np.abs(G.values - G2.values))),
                 "green_digest": hashlib.sha256(G.values.tobytes()
                                                + G2.values.tobytes()).hexdigest(),
                 "arc_law": arcs.probabilities.tolist(),
                 "bm_total": bm.total,
                 "bm_law": bm.probabilities.tolist()}
                for G, G2, arcs, bm in result]


class WalkFar:
    """``pacgreen arcs --mode walk --alpha pi --n 64 --start 0,0``."""

    calibrated = True

    trials = WALK_FAR_TRIALS

    def __init__(self, mods, tmp: Path, seed: int):
        self.cli, self.seed = mods["cli"], seed
        self.out = tmp / "arcs.csv"

    def run(self, i: int):
        _dispatch(self.cli, [
            "arcs", "--mode", "walk", "--alpha", repr(WALK_ALPHA),
            "--n", str(WALK_N), "--start", "%d,%d" % WALK_FAR_START,
            "--trials", str(self.trials), "--seed", str(op_seed(self.seed, i)),
            "--out", str(self.out)])

    def extract(self, _):
        return {"arcs": self.out.read_text()}


class WalkNear:
    """``pacgreen expdiff --alpha pi --n 64 --x 26,-60 --y 26,-60``."""

    calibrated = True

    trials = WALK_NEAR_TRIALS

    def __init__(self, mods, tmp: Path, seed: int):
        self.cli, self.seed = mods["cli"], seed
        self.out = tmp / "expdiff.csv"

    def run(self, i: int):
        point = "%d,%d" % WALK_NEAR_X
        _dispatch(self.cli, [
            "expdiff", "--alpha", repr(WALK_ALPHA), "--n", str(WALK_N),
            "--x", point, "--y", point, "--trials", str(self.trials),
            "--seed", str(op_seed(self.seed, i)), "--out", str(self.out)])

    def extract(self, _):
        return {"expdiff": self.out.read_text()}


WORKLOADS = {"sweep": Sweep, "crosscheck": Crosscheck,
             "walk_far": WalkFar, "walk_near": WalkNear}
