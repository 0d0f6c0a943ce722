"""Acceptance gate: runs every end-to-end criterion on the worked example
and the endpoint-pinning pipeline, printing one PASS/FAIL line per
criterion. Expensive artifacts are cached inside the acceptance module, so
the criteria share the fine-grid solves and ensembles within this process.
"""

import pytest

from bernstein.acceptance import ALL_CRITERIA, CriterionResult

NAMES = {
    1: "oracle_band_agreement",
    2: "stopping_set_origin_column",
    3: "lcp_residual",
    4: "mc_action_vs_value",
    5: "survival_erf_and_martingale",
    6: "sinkhorn_pipeline",
    7: "drift_reversal",
    8: "bridge_chi_square",
    9: "value_dominance",
    10: "grid_convergence_order",
}


@pytest.mark.parametrize("number", sorted(ALL_CRITERIA), ids=lambda n: f"criterion_{n:02d}_{NAMES[n]}")
def test_criterion(number, capsys):
    result = ALL_CRITERIA[number]()
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.details


def test_line_prints_list_details():
    result = CriterionResult(10, "grid convergence order", True, {
        "errors": ["5.77e-03", "1.39e-03"], "orders": ["2.05"], "n": 2})
    assert result.line() == ("PASS criterion 10: grid convergence order "
                             "(errors=[5.77e-03, 1.39e-03], orders=[2.05], n=2)")
