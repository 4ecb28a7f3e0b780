"""Spans and counters recorded from outside the package.

The tracer replaces public names in the namespace of the module that looks
them up (``experiments.green_solve``, ``green_discrete.dirichlet_solve``,
...) with wrappers that record a span: name, layer, start, end, parent and
run phase.  A span's layer is the package module that defines the wrapped
function.  Counters come from the wrapped calls' arguments and results,
never from package internals.  ``uninstall`` restores every original, so
one process can alternate traced and untraced operations.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

# The names the workloads reach, by the module whose namespace they are
# wrapped in.  A name is wrapped where it is looked up at call time:
# discrete_arc_measure reaches dirichlet_solve through the green_discrete
# globals, _run_trials reaches trial_rng through the walk_mc globals, and
# the benchmark's own library calls go through the defining modules.
WRAPS = {
    "cli": ("dispatch", "build_geometry", "build_lattice_domain", "contains",
            "nearest_boundary", "rate_sweep", "expdiff_estimate",
            "prop_bound_scale", "walk_arc_measure", "atomic_write_text",
            "RunManifest.add_output"),
    "experiments": ("build_geometry", "build_lattice_domain", "contains",
                    "nearest_boundary", "bm_arc_measure", "green_pacman_many",
                    "green_solve", "sample_exits", "trial_rng"),
    "green_discrete": ("green_solve", "dirichlet_solve", "green_via_potential",
                       "discrete_arc_measure", "potential_many"),
    "green_continuous": ("bm_arc_measure", "contains"),
    "walk_mc": ("trial_rng", "arc_index_of_radius"),
    "domain": ("build_geometry", "build_lattice_domain"),
}

LAYERS = ("domain", "potential", "green_discrete", "green_continuous",
          "walk_mc", "experiments", "cli")


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.phase = "warmup"
        self.spans = []      # [name, layer, func, start, end, parent, phase]
        self.stack = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.walks = []      # [alpha, n, x, y, trials, phase]
        self._originals = []
        self._counters = {
            "build_lattice_domain": self._count_domain,
            "green_solve": self._count_solve,
            "dirichlet_solve": self._count_solve,
            "potential_many": self._count_kernel,
            "walk_arc_measure": self._count_walk,
            "sample_exits": self._count_walk,
            "green_pacman_many": self._count_closed_form,
            "atomic_write_text": self._count_write,
        }

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        for importer, names in WRAPS.items():
            module = self.mods[importer]
            for dotted in names:
                owner, attr = module, dotted
                if "." in dotted:
                    cls, attr = dotted.split(".")
                    owner = getattr(module, cls)
                fn = getattr(owner, attr)
                self._originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(f"{importer}.{dotted}", fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        func = fn.__name__
        counter = self._counters.get(func)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, layer, func, start, end, parent, self.phase]
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return wrapper

    def root(self, name, fn, *args):
        """Run fn(*args) under a root span of the benchmark's own layer."""
        return self._wrap(name, fn)(*args)

    # -- counters, from arguments and results ------------------------------

    def _add(self, key, value):
        self.counts[self.phase][key] += value

    def _count_domain(self, args, kwargs, d):
        self._add("domain.interior_sites", d.interior_count)
        self._add("domain.boundary_sites", d.boundary_count)
        self._add("domain.arcs", d.geometry.N)

    def _count_solve(self, args, kwargs, result):
        self._add("green_discrete.solves", 1)
        self._add("green_discrete.unknowns_solved", args[0].interior_count)

    def _count_kernel(self, args, kwargs, result):
        cfg = args[2] if len(args) > 2 else kwargs.get(
            "cfg", self.mods["potential"].DEFAULT_CONFIG)
        r = np.hypot(np.asarray(args[0]), np.asarray(args[1]))
        cut = cfg.asymptotic_cutoff_radius
        self._add("potential.quadrature_points", int(np.count_nonzero((r > 0) & (r <= cut))))
        self._add("potential.asymptotic_points", int(np.count_nonzero(r > cut)))

    def _count_walk(self, args, kwargs, result):
        d, x, cfg = args[:3]
        self._add("walk_mc.trials", cfg.trials)
        self.walks.append([d.geometry.alpha, d.geometry.n, int(x[0]), int(x[1]),
                           cfg.trials, self.phase])

    def _count_closed_form(self, args, kwargs, result):
        self._add("green_continuous.closed_form_points", len(args[2]))

    def _count_write(self, args, kwargs, result):
        self._add("cli.bytes_written", len(args[1].encode()))

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Self and total seconds per layer and per function, by phase.

        A span's self time is its duration minus the durations of the
        spans it called directly.
        """
        dur = [s[4] - s[3] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[5] >= 0:
                child[s[5]] += dur[i]
        out = {}
        for i, (name, layer, func, *_, phase) in enumerate(self.spans):
            p = out.setdefault(phase, {"layer_self": defaultdict(float),
                                       "func_self": defaultdict(float),
                                       "func_total": defaultdict(float),
                                       "spans": 0})
            self_s = dur[i] - child[i]
            p["layer_self"][layer] += self_s
            p["func_self"][func] += self_s
            p["func_total"][func] += dur[i]
            p["spans"] += 1
        for phase, counts in self.counts.items():
            out.setdefault(phase, {})["counts"] = dict(counts)
        return {"phases": out, "walks": self.walks}
