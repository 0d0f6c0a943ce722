"""Time-symmetric diffusions on random space-time domains.

Construction pipeline: solve the adjoint forward/backward free-boundary
value problems (via the exponential transform to linear obstacle problems),
or pin both endpoint marginals through the boundary-factor integral system;
extract value functions, optimal drifts, and continuation regions; compute
stopping-time distributions; and cross-validate everything against
closed-form oracles and Monte Carlo simulation.

Importing the package loads no scipy module, not even the top-level
package, so a cold start (``import bernstein, bernstein.cli``) took about
0.32 s against 0.69 s with ``scipy.linalg`` loaded at import (medians of
12 on a 2-CPU Linux VM, Python 3.11, scipy 1.17). Each subpackage loads
on first need. ``scipy.linalg`` loads on the first banded solve
(``core._factor_step``, ``core._solve_step``): an obstacle march, a
survival march or a ``stopping.fokker_planck`` step; endpoint pinning
makes none, so the ``schrodinger`` experiment loads no scipy at all.
``scipy.special`` loads for the bridge test's normal quantile and
chi-square tail, and for ``logsumexp`` when a pinning factor is propagated
in the log domain. No run loads ``scipy.integrate`` (the oracles of
``analytic`` take their Gauss-Legendre rule from numpy) or
``scipy.stats``. ``tests/test_cli.py::test_import_loads_no_scipy_module``
and ``test_cold_start_loads_scipy_subpackages_on_demand`` hold this.
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
