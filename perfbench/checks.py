"""Output checks for the benchmark workloads.

Each check compares one output with an independent construction or with
a reference recorded at the seed commit, and returns a ``Check``.  One
check is one operation attempted; a check that does not hold is one
operation failed.  The functions only need numpy, so they can be tested
on perturbed outputs without running the package.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

SWEEP_RTOL = 1e-6         # solver tolerance is 1e-10, sup errors are ~1e-2
CROSS_TOL = 1e-5          # acceptance criterion 1
# The Dirichlet solver stops at a max-norm residual of 1e-10; the error in
# a harmonic measure is at most the residual times the expected exit time
# (< (4n)^2 = 65536 at n = 64), so 1e-6 bounds any correct solver.
ARC_TOL = 1e-6
BM_SUM_TOL = 1e-9         # the Cauchy differences telescope to 1
N_SE = 6.0                # P(|Z| > 6) = 2e-9 per compared quantity
# The total-variation distance over a few arcs has a heavier tail than a
# normal: in 4e6 simulated operations of 2000 trials at the walk_far law it
# exceeded its mean plus 6 standard deviations 129 times, plus 8 never.
TV_N_SD = 8.0


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_sweep(rates_csv: str, summary_csv: str, ref: dict,
                alphas=None) -> list[Check]:
    """Each (alpha, n) sup error and each fitted slope against the
    reference, for the given angles (default: every reference angle)."""
    rows = {(float(r["alpha"]), int(r["n"])): float(r["sup_error"])
            for r in parse_csv(rates_csv)}
    slopes = {float(r["alpha"]): float(r["slope"])
              for r in parse_csv(summary_csv)}
    out = []
    for alpha, n, want in ref["sup_error"]:
        if alphas is not None and alpha not in alphas:
            continue
        got = rows.get((alpha, n), math.nan)
        out.append(Check(f"sweep.sup_error[{alpha:.4f},{n}]",
                         _close(got, want, SWEEP_RTOL), f"{got!r} vs {want!r}"))
    for alpha, want in ref["slope"]:
        if alphas is not None and alpha not in alphas:
            continue
        got = slopes.get(alpha, math.nan)
        out.append(Check(f"sweep.slope[{alpha:.4f}]",
                         _close(got, want, SWEEP_RTOL), f"{got!r} vs {want!r}"))
    return out


def check_crosscheck(per_alpha: list[dict], ref: dict, alphas=None) -> list[Check]:
    """Solve vs potential-kernel Green's function, arc-law sums, arc laws,
    for the given angles in order (default: every reference angle)."""
    wanted = [(alpha, arcs) for alpha, arcs in ref["arc_law"]
              if alphas is None or alpha in alphas]
    out = []
    for got, (alpha, want_arcs) in zip(per_alpha, wanted):
        tag = f"{alpha:.4f}"
        out.append(Check(f"crosscheck.green_max_diff[{tag}]",
                         got["green_max_diff"] <= CROSS_TOL,
                         f"{got['green_max_diff']:.3e} <= {CROSS_TOL}"))
        arcs = np.asarray(got["arc_law"])
        out.append(Check(f"crosscheck.arc_sum[{tag}]",
                         abs(arcs.sum() - 1.0) <= ARC_TOL,
                         f"sum {arcs.sum()!r}"))
        out.append(Check(f"crosscheck.bm_sum[{tag}]",
                         abs(got["bm_total"] - 1.0) <= BM_SUM_TOL,
                         f"sum {got['bm_total']!r}"))
        want = np.asarray(want_arcs)
        if arcs.shape == want.shape:
            diff = float(np.max(np.abs(arcs - want)))
            out.append(Check(f"crosscheck.arc_law[{tag}]", diff <= ARC_TOL,
                             f"max diff {diff:.3e}"))
        else:
            out.append(Check(f"crosscheck.arc_law[{tag}]", False,
                             f"{arcs.size} arcs, expected {want.size}"))
    if len(per_alpha) != len(wanted):
        out.append(Check("crosscheck.alphas", False,
                         f"{len(per_alpha)} results for {len(wanted)} angles"))
    return out


def walk_tv_bound(p_exact, trials: int) -> float:
    """Mean plus TV_N_SD standard deviations of the total-variation distance
    between exact arc probabilities and the frequencies of a correct
    engine, with each frequency's error taken as an independent normal."""
    p = np.asarray(p_exact, dtype=np.float64)
    se = np.sqrt(p * (1.0 - p) / trials)
    mean = 0.5 * math.sqrt(2.0 / math.pi) * float(se.sum())
    sd = 0.5 * math.sqrt((1.0 - 2.0 / math.pi) * float((se * se).sum()))
    return mean + TV_N_SD * sd


def check_walk_far(arcs_csv: str, trials: int, p_exact) -> Check:
    """Walk arc frequencies against the exact discrete harmonic measure."""
    p_hat = np.array([float(r["p"]) for r in parse_csv(arcs_csv)])
    p = np.asarray(p_exact, dtype=np.float64)
    if p_hat.shape != p.shape:
        return Check("walk_far.tv", False, f"{p_hat.size} arcs, expected {p.size}")
    tv = 0.5 * float(np.abs(p_hat - p).sum())
    bound = walk_tv_bound(p, trials)
    return Check("walk_far.tv", tv <= bound, f"tv {tv:.4f} <= {bound:.4f}")


def check_walk_near(expdiff_csv: str, ref: dict) -> Check:
    """Exit-radius gap estimate within N_SE joint standard errors of the
    reference estimate."""
    row = parse_csv(expdiff_csv)[0]
    est, se = float(row["estimate"]), float(row["stderr"])
    band = N_SE * math.hypot(se, ref["stderr"])
    return Check("walk_near.estimate", abs(est - ref["estimate"]) <= band,
                 f"|{est:.5f} - {ref['estimate']:.5f}| <= {band:.5f}")


def check_same_outputs(untraced, traced) -> Check:
    """The traced run must compute exactly what the untraced run computes."""
    return Check("trace.same_outputs", untraced == traced,
                 "traced output equals untraced output")
