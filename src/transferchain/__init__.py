"""Markov chains from transfer operators.

Builds the chain a positive transfer operator generates, computes
stationary measures by Ulam discretization or Hutchinson iteration,
samples solenoid path spaces, and verifies the defining identities
(pull-out property, nested moment formula, quasi-invariance, martingales,
wavelet harmonic functions, Schur recursion) numerically.
"""

__version__ = "0.1.0"

from .grids import (  # noqa: F401
    DiscreteMeasure,
    Grid,
    GridFunction,
    arcsine_measure,
    gauss_measure,
    histogram,
    integrate,
    ks_distance,
    stream_rng,
    uniform_measure,
    wasserstein1,
)
from .operators import (  # noqa: F401
    BranchSystem,
    ControlledSystem,
    GaussOperator,
    apply_branch,
    apply_gauss,
    apply_integral,
    apply_ruelle_adjoint,
    apply_ruelle_circle,
    doubling_system,
    gauss_operator,
    logistic_system,
    parametric_system,
    pullout_check,
    radon_nikodym,
    random_control_system,
)
from .invariant import (  # noqa: F401
    StationaryResult,
    UlamMatrix,
    affine_ifs,
    build_ulam,
    cantor_ifs,
    contraction_certificate,
    halving_ifs,
    hutchinson_iterate,
    power_iterate,
    verify_invariance,
)
from .chains import (  # noqa: F401
    MarkovSampler,
    PathEnsemble,
    estimate_conditional,
    estimate_transition_matrix,
    markov_property_check,
    martingale_check,
    nested_operator_expectation,
    path_moment_mc,
    quasi_invariance_check,
    simulate_paths,
)
from .solenoid import (  # noqa: F401
    SolenoidPrefix,
    embed_line,
    pd_gram,
    pi_k_distribution,
    shift_hat,
    shift_inverse,
)
from .wavelets import (  # noqa: F401
    ScalingFunction,
    WaveletFilter,
    autocorrelation,
    cascade,
    haar_filter,
    intertwine_check,
    stretched_box_filter,
    verify_ruelle_fixed,
)
from .schur import (  # noqa: F401
    SchurEval,
    SchurParams,
    eval_from_params,
    extract_params,
    sample_random_schur,
    schur_move,
    schur_step,
)
