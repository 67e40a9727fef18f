"""Invariant idempotent probabilities of max-plus iterated function systems.

The pipeline: build a finite space (``spaces``), put a validated system of
contracting maps and normalized weights on it (``mpifs``), find the Aubry
set and the path-sum potential at it on the transition graph (``mane``;
the full transitive closure only on demand), and read every invariant
density off the Aubry boundary data (``invariant``).  ``fuzzy`` carries the whole
picture across the exponential conjugation to fuzzy attractors, and
``examples`` holds the canonical systems.
"""

from .maxplus import BOTTOM, MpMatrix, kleene_plus, mp_eye, mp_mat_mul, odot, oplus
from .spaces import (
    FiniteSpace,
    IndexSpace,
    build_grid,
    build_point_space,
    build_shift_space,
    hausdorff,
    snap,
)
from .measures import (
    Density,
    dirac,
    idempotent_integral,
    indicator,
    mu_eval,
    normalize,
    set_measure,
    support,
)
from .mpifs import (
    MpIfs,
    IterationResult,
    ValidationReport,
    check_duality,
    d_rho,
    dual_transfer,
    iterate_transfer,
    transfer_density,
    validate,
)
from .mane import (
    PotentialMatrix,
    check_sum_lipschitz,
    check_triangle,
    mane_potential,
    sum_along,
    transition_matrix,
)
from .invariant import (
    BoundaryData,
    CodingMap,
    VerifyReport,
    build_invariant,
    coding_map,
    constant_weight_density,
    enumerate_invariants,
    j0_image,
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
    theta_inverse,
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
