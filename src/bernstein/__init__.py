"""Time-symmetric diffusions on random space-time domains.

Construction pipeline: solve the adjoint forward/backward free-boundary
value problems (via the exponential transform to linear obstacle problems),
or pin both endpoint marginals through the boundary-factor integral system;
extract value functions, optimal drifts, and continuation regions; compute
stopping-time distributions; and cross-validate everything against
closed-form oracles and Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .core import (
    CONTINUATION,
    STOPPING,
    ConvergenceError,
    ProblemSpec,
    RegionMask,
    ScalarField,
    SpaceTimeGrid,
    build_grid,
    interpolate,
    region_from_eta,
)
from .analytic import (
    bernstein_transition,
    heat_kernel,
    sec7_eta_backward,
    sec7_eta_forward,
)
from .schrodinger import (
    MarginalPair,
    SchrodingerFactors,
    bernstein_density,
    kernel_matrix,
    propagate_eta,
    propagate_eta_star,
    sinkhorn_solve,
)
from .hjb import (
    EtaSolution,
    ValueSolution,
    classical_value,
    lcp_residual,
    solve_backward_obstacle,
    solve_forward_obstacle,
    value_from_eta,
)
from .simulate import (
    PathEnsemble,
    SimConfig,
    bridge_markov_test,
    reversed_drift,
    simulate_forward,
)
from .stopping import (
    SurvivalProblem,
    SurvivalSolution,
    empirical_survival,
    martingale_check,
    solve_q,
)
