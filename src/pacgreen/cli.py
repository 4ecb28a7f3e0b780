"""Command-line front end: parsing, dispatch, CSV and SVG emission.

Subcommands: potential, field, arcs, rate, expdiff.  All file outputs are
written atomically (temp file + rename) and accompanied by a JSON manifest
recording resolved parameters, seed, version, timestamps, and a sha256
digest per output file.  Numeric CSV cells use 17 significant digits so
values round-trip exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .domain import build_geometry, build_lattice_domain, contains, nearest_boundary
from .errors import DomainError, PlotError
from .experiments import (ExperimentConfig, expdiff_estimate, prop_bound_scale,
                          rate_sweep)
from .green_continuous import bm_arc_measure, green_pacman_many
from .green_discrete import green_solve
from .potential import potential_asymptotic, potential_exact
from .walk_mc import WalkRunConfig, walk_arc_measure

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pacgreen-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunManifest:
    """Provenance record written next to each output file."""

    subcommand: str
    parameters: dict
    seed: int | None
    version: str
    started_at: str
    finished_at: str = ""
    outputs: list = field(default_factory=list)

    def add_output(self, path: str) -> None:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.outputs.append({"path": os.path.basename(path), "sha256": digest})

    def write(self, anchor_path: str) -> None:
        self.finished_at = _now()
        atomic_write_text(anchor_path + ".manifest.json",
                          json.dumps(asdict(self), indent=2) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lattice point {text!r}") from exc


def _parse_floats(text: str):
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _parse_ints(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad int list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pacgreen",
                                  description="Green's functions on pacman domains")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("potential", help="potential kernel at one lattice point")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)

    p = sub.add_parser("field", help="discrete Green's field as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--source", type=_parse_point, default=(0, 0))
    p.add_argument("--with-continuous", action="store_true",
                   help="fill the g and diff columns from the closed form")
    p.add_argument("--out", required=True)

    p = sub.add_parser("arcs", help="boundary arc exit distribution")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--start", type=_parse_point, required=True)
    p.add_argument("--mode", choices=("bm", "walk"), required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rate", help="convergence-rate sweep and log-log fit")
    p.add_argument("--alphas", type=_parse_floats, required=True)
    p.add_argument("--ns", type=_parse_ints, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--plot")

    p = sub.add_parser("expdiff", help="walk vs Brownian exit-radius gap")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_parse_point, required=True)
    p.add_argument("--y", type=_parse_point, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    return top


def _cmd_potential(args) -> int:
    exact = potential_exact((args.x, args.y))
    if args.x == 0 and args.y == 0:
        asym, diff = float("nan"), float("nan")
    else:
        asym = potential_asymptotic((args.x, args.y))
        diff = exact - asym
    sys.stdout.write(_csv(["x", "y", "exact", "asymptotic", "difference"],
                          [(args.x, args.y, exact, asym, diff)]))
    return 0


def _cmd_field(args) -> int:
    g = build_geometry(args.alpha, args.n)
    if not contains(g, args.source):
        raise DomainError(f"source {args.source} is not interior")
    manifest = RunManifest("field", {"alpha": args.alpha, "n": args.n,
                                     "source": list(args.source),
                                     "with_continuous": args.with_continuous},
                           None, __version__, _now())
    d = build_lattice_domain(g)
    G = green_solve(d, args.source)
    rows = []
    if args.with_continuous:
        zc = d.interior[:, 0] + 1j * d.interior[:, 1]
        src = complex(args.source[0], args.source[1])
        gv = np.full(d.interior_count, np.nan)
        ok = zc != src
        gv[ok] = green_pacman_many(g, src, zc[ok])
        for (x, y), Gv, gval in zip(d.interior, G.values, gv):
            diff = abs(Gv - (2 / math.pi) * gval) if np.isfinite(gval) else float("nan")
            rows.append((int(x), int(y), float(Gv), float(gval), diff))
    else:
        for (x, y), Gv in zip(d.interior, G.values):
            rows.append((int(x), int(y), float(Gv), "", ""))
    atomic_write_text(args.out, _csv(["x", "y", "G", "g", "diff"], rows))
    manifest.add_output(args.out)
    manifest.write(args.out)
    return 0


def _cmd_arcs(args) -> int:
    g = build_geometry(args.alpha, args.n)
    if not contains(g, args.start):
        raise DomainError(f"start {args.start} is not interior")
    params = {"alpha": args.alpha, "n": args.n, "start": list(args.start),
              "mode": args.mode}
    if args.mode == "walk":
        if args.trials is None or args.seed is None:
            raise UsageError("--trials and --seed are required with --mode walk")
        params.update(trials=args.trials, seed=args.seed)
        manifest = RunManifest("arcs", params, args.seed, __version__, _now())
        d = build_lattice_domain(g)
        m = walk_arc_measure(d, args.start, WalkRunConfig(args.trials, args.seed))
        rows = [(k + 1, float(p), float(se))
                for k, (p, se) in enumerate(zip(m.probabilities, m.stderr))]
        text = _csv(["k", "p", "stderr"], rows)
    else:
        manifest = RunManifest("arcs", params, None, __version__, _now())
        m = bm_arc_measure(g, args.start)
        rows = [(k + 1, float(p)) for k, p in enumerate(m.probabilities)]
        text = _csv(["k", "measure"], rows)
    atomic_write_text(args.out, text)
    manifest.add_output(args.out)
    manifest.write(args.out)
    return 0


def _cmd_rate(args) -> int:
    if len(args.ns) < 3:
        raise UsageError("--ns needs at least 3 scales for the fit")
    cfg = ExperimentConfig(alphas=args.alphas, ns=args.ns)
    manifest = RunManifest("rate", {"alphas": list(args.alphas),
                                    "ns": list(args.ns)},
                           args.seed, __version__, _now())
    results = rate_sweep(cfg)
    rows = []
    for res in results:
        for pt in res.points:
            rows.append((res.alpha, pt.n, pt.sup_error, pt.mean_error,
                         pt.region_min_radius))
    atomic_write_text(args.out, _csv(
        ["alpha", "n", "sup_error", "mean_error", "region_min_radius"], rows))
    manifest.add_output(args.out)
    stem, ext = os.path.splitext(args.out)
    summary_path = stem + "_summary" + (ext or ".csv")
    srows = [(r.alpha, r.slope, r.intercept, r.r_squared, r.c_alpha)
             for r in results]
    atomic_write_text(summary_path, _csv(
        ["alpha", "slope", "intercept", "r2", "c_alpha"], srows))
    manifest.add_output(summary_path)
    if args.plot:
        series = [(res.alpha, res.c_alpha,
                   [(math.log(p.n) ** 2 / p.n, p.sup_error) for p in res.points])
                  for res in results]
        atomic_write_text(args.plot, render_rate_plot(series))
        manifest.add_output(args.plot)
    manifest.write(args.out)
    return 0


def _cmd_expdiff(args) -> int:
    g = build_geometry(args.alpha, args.n)
    manifest = RunManifest("expdiff", {"alpha": args.alpha, "n": args.n,
                                       "x": list(args.x), "y": list(args.y),
                                       "trials": args.trials},
                           args.seed, __version__, _now())
    est, se = expdiff_estimate(g, args.x, args.y,
                               WalkRunConfig(args.trials, args.seed))
    _, k0 = nearest_boundary(g, args.x)
    scale = prop_bound_scale(g, k0)
    atomic_write_text(args.out, _csv(["estimate", "stderr", "bound_scale"],
                                     [(est, se, scale)]))
    manifest.add_output(args.out)
    manifest.write(args.out)
    return 0


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# SVG rendering (no plotting dependency; self-contained documents)

_W, _H, _PAD = 640, 440, 60


def _scale(vals, lo_px, hi_px):
    vmin, vmax = min(vals), max(vals)
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def render_rate_plot(series) -> str:
    """Log-log scatter per alpha plus a reference line of slope c_alpha.

    series: list of (alpha, c_alpha, [(scale, value), ...]).
    """
    if not series or all(not pts for _, _, pts in series):
        raise PlotError("no data to plot")
    xs = [math.log(s) for _, _, pts in series for s, _ in pts]
    ys = [math.log(v) for _, _, pts in series for _, v in pts]
    to_x = _scale(xs, _PAD, _W - _PAD)
    to_y = _scale(ys, _H - _PAD, _PAD)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_H - _PAD}" stroke="black"/>',
             f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" stroke="black"/>',
             f'<text x="{_W // 2}" y="{_H - 16}" font-size="13" text-anchor="middle">'
             'log(log^2 n / n)</text>',
             f'<text x="18" y="{_H // 2}" font-size="13" text-anchor="middle" '
             f'transform="rotate(-90 18 {_H // 2})">log(sup error)</text>']
    for i, (alpha, ca, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        lx = [math.log(s) for s, _ in pts]
        ly = [math.log(v) for _, v in pts]
        for px, py in zip(lx, ly):
            parts.append(f'<circle cx="{to_x(px):.2f}" cy="{to_y(py):.2f}" '
                         f'r="4" fill="{color}" class="datum"/>')
        # reference line of slope c_alpha anchored at the first point
        x0, x1 = min(lx), max(lx)
        y0 = ly[lx.index(x0)]
        parts.append(f'<line x1="{to_x(x0):.2f}" y1="{to_y(y0):.2f}" '
                     f'x2="{to_x(x1):.2f}" y2="{to_y(y0 + ca * (x1 - x0)):.2f}" '
                     f'stroke="{color}" stroke-dasharray="5,4" class="reference"/>')
        parts.append(f'<text x="{_W - _PAD + 6}" y="{_PAD + 18 * i + 10}" '
                     f'font-size="12" fill="{color}">{_fmt(float(alpha))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_COMMANDS = {"potential": _cmd_potential, "field": _cmd_field,
             "arcs": _cmd_arcs, "rate": _cmd_rate, "expdiff": _cmd_expdiff}


def dispatch(argv) -> int:
    """Parse argv, validate, run; 0 on success, 2 on usage, 1 on runtime."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except DomainError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:   # runtime failures map to exit code 1
        sys.stderr.write(f"error: {exc}\n")
        return RUNTIME_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
