"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py > perfbench/references.json

The references were recorded once, at the commit that added the
benchmark.  Recording them again after changing the package would hide
the very changes the checks exist to catch; do it only on purpose, with
the reason written down.  The walk_near reference uses a seed that no
benchmark operation uses, so its random streams are independent of every
checked estimate.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REF_SEED = 10 ** 12
REF_TRIALS = 600_000


def main() -> None:
    os.environ.update({"PACGREEN_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1"})
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import checks
    import workloads
    mods = workloads.load_modules()
    dom, gd = mods["domain"], mods["green_discrete"]

    with tempfile.TemporaryDirectory() as tmp:
        sweep = workloads.Sweep(mods, Path(tmp), 0, alphas=workloads.ALPHAS)
        sweep.run(0)
        out = sweep.extract(None)
    sup = [[float(r["alpha"]), int(r["n"]), float(r["sup_error"])]
           for r in checks.parse_csv(out["rates"])]
    slope = [[float(r["alpha"]), float(r["slope"])]
             for r in checks.parse_csv(out["summary"])]

    arc_law = []
    for alpha in workloads.ALPHAS:
        d = dom.build_lattice_domain(dom.build_geometry(alpha, workloads.CROSS_N))
        arc_law.append([alpha, gd.discrete_arc_measure(d, (0, 0)).probabilities.tolist()])

    g = dom.build_geometry(workloads.WALK_ALPHA, workloads.WALK_N)
    est, se = mods["experiments"].expdiff_estimate(
        g, workloads.WALK_NEAR_X, workloads.WALK_NEAR_X,
        mods["walk_mc"].WalkRunConfig(REF_TRIALS, REF_SEED))

    json.dump({"sweep": {"sup_error": sup, "slope": slope},
               "crosscheck": {"arc_law": arc_law},
               "walk_near": {"estimate": est, "stderr": se,
                             "trials": REF_TRIALS, "seed": REF_SEED}},
              sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
