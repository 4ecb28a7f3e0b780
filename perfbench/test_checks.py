"""Each benchmark check passes on the reference output and fails on a
perturbed one.  The statistical checks are also shown to pass on many
independent samples of a correct engine.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

REFS = json.loads((Path(__file__).parent / "references.json").read_text())
# The walk_far exact law is the crosscheck arc law at alpha = pi, n = 64.
P_WALK_FAR = np.array(REFS["crosscheck"]["arc_law"][2][1])


def _sweep_csv(sup, slope):
    rates = "alpha,n,sup_error,mean_error,region_min_radius\n" + "".join(
        f"{a!r},{n},{v!r},0.001,2.0\n" for a, n, v in sup)
    summary = "alpha,slope,intercept,r2,c_alpha\n" + "".join(
        f"{a!r},{s!r},0.0,1.0,0.5\n" for a, s in slope)
    return rates, summary


def _failed(found):
    return [c.name for c in found if not c.ok]


def test_sweep_check():
    ref = REFS["sweep"]
    assert _failed(checks.check_sweep(*_sweep_csv(ref["sup_error"], ref["slope"]), ref)) == []
    sup = [list(r) for r in ref["sup_error"]]
    sup[4][2] *= 1 + 1e-5
    slope = [list(r) for r in ref["slope"]]
    slope[1][1] *= 1 - 1e-5
    assert _failed(checks.check_sweep(*_sweep_csv(sup, slope), ref)) == [
        "sweep.sup_error[1.5708,64]", "sweep.slope[1.5708]"]
    assert len(_failed(checks.check_sweep(*_sweep_csv(sup[:-1], slope), ref))) == 3


def _cross_outputs():
    return [{"green_max_diff": 3e-9, "arc_law": list(law), "bm_total": 1.0}
            for _, law in REFS["crosscheck"]["arc_law"]]


def test_crosscheck_check():
    ref = REFS["crosscheck"]
    assert _failed(checks.check_crosscheck(_cross_outputs(), ref)) == []

    out = _cross_outputs()
    out[0]["green_max_diff"] = 2e-5
    assert _failed(checks.check_crosscheck(out, ref)) == ["crosscheck.green_max_diff[0.0000]"]

    out = _cross_outputs()
    out[1]["arc_law"][0] += 1e-5        # mass moved between arcs: sum still 1
    out[1]["arc_law"][-1] -= 1e-5
    assert _failed(checks.check_crosscheck(out, ref)) == ["crosscheck.arc_law[1.5708]"]

    out = _cross_outputs()
    out[2]["arc_law"] = [p * (1 + 1e-5) for p in out[2]["arc_law"]]
    assert _failed(checks.check_crosscheck(out, ref)) == [
        "crosscheck.arc_sum[3.1416]", "crosscheck.arc_law[3.1416]"]

    out = _cross_outputs()
    out[2]["bm_total"] = 1 - 1e-6
    assert _failed(checks.check_crosscheck(out, ref)) == ["crosscheck.bm_sum[3.1416]"]

    assert "crosscheck.alphas" in _failed(checks.check_crosscheck(_cross_outputs()[:2], ref))


def _arcs_csv(p):
    return "k,p,stderr\n" + "".join(f"{k + 1},{float(v)!r},0.0\n" for k, v in enumerate(p))


def test_walk_far_check():
    trials = 2000
    assert checks.check_walk_far(_arcs_csv(P_WALK_FAR), trials, P_WALK_FAR).ok
    rng = np.random.default_rng(0)
    draws = rng.multinomial(trials, P_WALK_FAR, size=2000) / trials
    assert all(checks.check_walk_far(_arcs_csv(p), trials, P_WALK_FAR).ok for p in draws)
    shifted = P_WALK_FAR.copy()
    shifted[0] += 0.08
    shifted[-1] -= 0.08
    assert not checks.check_walk_far(_arcs_csv(shifted), trials, P_WALK_FAR).ok
    assert not checks.check_walk_far(_arcs_csv(P_WALK_FAR[:-1]), trials, P_WALK_FAR).ok


def _expdiff_csv(estimate, stderr):
    return f"estimate,stderr,bound_scale\n{estimate!r},{stderr!r},0.5\n"


def test_walk_near_check():
    ref = REFS["walk_near"]
    se = ref["stderr"] * (ref["trials"] / 6000) ** 0.5
    assert checks.check_walk_near(_expdiff_csv(ref["estimate"], se), ref).ok
    rng = np.random.default_rng(1)
    for est in ref["estimate"] + se * rng.standard_normal(2000):
        assert checks.check_walk_near(_expdiff_csv(float(est), se), ref).ok
    assert not checks.check_walk_near(_expdiff_csv(ref["estimate"] + 7 * se, se), ref).ok


def test_same_outputs_check():
    out = {"arcs": _arcs_csv(P_WALK_FAR)}
    assert checks.check_same_outputs(out, dict(out)).ok
    assert not checks.check_same_outputs(out, {"arcs": _arcs_csv(P_WALK_FAR * 0.999)}).ok
