"""The benchmark's workloads: three acceptance studies, copied verbatim.

Each workload is one full ``run_study`` + ``emit_report`` of a config from
``tests/test_acceptance.py``.  The copies are pinned to the originals by
``perfbench/test_perfbench.py``; the benchmark seed replaces only
``solver.seed``, the ARPACK start vector.
"""

from __future__ import annotations

import copy
import math

TWO_PI = 2.0 * math.pi

TORUS_J0_CONFIG = {
    "geometry": {"type": "warped_torus", "L": math.pi, "fiber_length": TWO_PI,
                 "warp": {"constant": 0.0, "cos": [0.3], "sin": [], "exp": True}},
    "epsilons": [0.2, 0.1, 0.05, 0.025],
    "grid": {"n_s": 128, "n_f": 64, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0},
    "study": {"mode_index": 0, "checks": ["eig_rate", "supnorm_rate", "courant"],
              "out": None},
}

TORUS_J1_CONFIG = {
    "geometry": {"type": "warped_torus", "L": math.pi, "fiber_length": TWO_PI,
                 "warp": {"constant": 0.0, "cos": [0.3, 0.15], "sin": [], "exp": True}},
    "epsilons": [0.2, 0.1, 0.05, 0.025],
    "grid": {"n_s": 64, "n_f": 64, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0},
    "study": {"mode_index": 1,
              "checks": ["eig_rate", "supnorm_rate", "hausdorff_rate", "isotopy", "courant"],
              "out": None},
}

GUIDE_J1_CONFIG = {
    "geometry": {"type": "waveguide", "length": TWO_PI,
                 "curvature": {"constant": 1.0, "cos": [0.5, 0.25], "sin": []}},
    "epsilons": [0.3, 0.22, 0.15, 0.1],
    "grid": {"n_s": 128, "n_f": 192, "stencil_order": 4, "refine": 2},
    "solver": {"k": 8, "tol": 1e-8, "max_iter": 5000, "seed": 0, "shift": 1.97},
    "study": {"mode_index": 1,
              "checks": ["eig_rate", "supnorm_rate", "hausdorff_rate", "boundary", "courant"],
              "out": None},
}

# workload -> (name of the config in tests/test_acceptance.py, config,
#              dimension of the refined full operator)
WORKLOADS = {
    "torus_ground": ("TORUS_J0_CONFIG", TORUS_J0_CONFIG, 32768),
    "torus_nodal": ("TORUS_J1_CONFIG", TORUS_J1_CONFIG, 16384),
    "guide_nodal": ("GUIDE_J1_CONFIG", GUIDE_J1_CONFIG, 98048),
}


def study_config(workload: str, seed: int) -> dict:
    """The raw study config of ``workload`` with the ARPACK seed set."""
    raw = copy.deepcopy(WORKLOADS[workload][1])
    raw["solver"]["seed"] = seed
    return raw


def fine_dim(workload: str) -> int:
    return WORKLOADS[workload][2]
