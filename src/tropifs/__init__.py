"""Invariant idempotent probabilities of max-plus iterated function systems.

The pipeline: build a finite space (``spaces``), put a validated system of
contracting maps and normalized weights on it (``mpifs``), find the Aubry
set and the path-sum potential at it on the transition graph (``mane``;
the full transitive closure only on demand), and read every invariant
density off the Aubry boundary data (``invariant``).  ``fuzzy`` carries the whole
picture across the exponential conjugation to fuzzy attractors, and
``examples`` holds the canonical systems.  ``config``, ``serialize`` and
``cli`` turn one JSON config into the output files of one command.

The names exported here are the ones that pipeline runs; independent
reference computations for the tests live in the test suite.
"""

from .maxplus import BOTTOM, MpMatrix, kleene_plus
from .spaces import (
    FiniteSpace,
    build_grid,
    build_shift_space,
    hausdorff,
    snap,
)
from .measures import Density, normalize
from .mpifs import MpIfs, ValidationReport, d_rho, transfer_density, validate
from .mane import PotentialMatrix, mane_potential, transition_matrix
from .invariant import (
    BoundaryData,
    VerifyReport,
    build_invariant,
    coding_map,
    constant_weight_density,
    enumerate_invariants,
    verify_invariant,
)
from .fuzzy import (
    FhbResult,
    FuzzySet,
    alpha_cut,
    d_infty,
    d_theta,
    fhb_apply,
    fhb_attractor,
    theta_conjugate,
)
from .examples import (
    DemoReport,
    ShiftExampleSpec,
    build_nonunique_shift_system,
    build_two_point_system,
    demonstrate_nonuniqueness,
    lambda_alpha,
    random_system,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
