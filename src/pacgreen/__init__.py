"""Green's functions, harmonic measure, and convergence-rate experiments
on pacman domains (disk sectors with a re-entrant corner)."""

__version__ = "0.1.0"

from .domain import (PacmanGeometry, LatticeDomain, build_geometry,
                     build_lattice_domain, contains, arc_index, c_alpha,
                     lattice_domain_from_sites, nearest_boundary)
from .errors import (ConvergenceError, DomainError, FitError,
                     InvariantError, PlotError, SingularityError,
                     StepBudgetError)
from .potential import (EULER_GAMMA, K0, kernel_remainder,
                        potential_asymptotic, potential_exact)
from .green_continuous import (bm_arc_measure, cauchy_interval_measure,
                               green_halfdisk, green_halfplane, green_pacman,
                               halfdisk_to_halfplane, map_to_halfdisk)
from .green_discrete import (ScalarField, dirichlet_solve,
                             discrete_arc_measure, green_solve,
                             green_via_potential)
from .walk_mc import (ArcMeasure, WalkRunConfig, green_mc, mean_exit_steps,
                      simulate_exit, trial_rng, walk_arc_measure)
from .experiments import (ExperimentConfig, RateFitResult, RatePoint,
                          expdiff_estimate, fit_loglog, prop_bound_scale,
                          rate_sweep, region_min_radius)

__all__ = [
    "PacmanGeometry", "LatticeDomain", "build_geometry", "build_lattice_domain",
    "contains", "arc_index", "c_alpha", "lattice_domain_from_sites",
    "nearest_boundary",
    "ConvergenceError", "DomainError", "FitError", "InvariantError",
    "PlotError", "SingularityError", "StepBudgetError",
    "EULER_GAMMA", "K0", "kernel_remainder", "potential_asymptotic",
    "potential_exact",
    "bm_arc_measure", "cauchy_interval_measure", "green_halfdisk",
    "green_halfplane", "green_pacman",
    "halfdisk_to_halfplane", "map_to_halfdisk",
    "ScalarField", "dirichlet_solve", "discrete_arc_measure",
    "green_solve", "green_via_potential",
    "ArcMeasure", "WalkRunConfig", "green_mc", "mean_exit_steps",
    "simulate_exit", "trial_rng", "walk_arc_measure",
    "ExperimentConfig", "RateFitResult", "RatePoint", "expdiff_estimate",
    "fit_loglog", "prop_bound_scale", "rate_sweep", "region_min_radius",
]
