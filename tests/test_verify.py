"""The verification suites themselves: each passes, and the driver filters.

Unit runs use reduced instance counts where the full budgets would be slow;
the acceptance suite runs the same checks at their full defaults.
"""

import numpy as np
import pytest

from bitformer import quant
from bitformer.verify import (
    ALL_CHECKS,
    CheckResult,
    check_exact_recovery,
    check_gradients,
    check_kernel_oracle,
    check_ternary_trick,
    check_train_eval_agreement,
    run_checks,
)


def test_kernel_oracle_passes_on_reduced_budget():
    res = check_kernel_oracle(seed=0, instances=40, max_dim=70)
    assert res.passed
    assert "max |diff| = 0" in res.detail


def test_kernel_oracle_seed_changes_instances_not_outcome():
    assert check_kernel_oracle(seed=7, instances=20, max_dim=40).passed


def test_ternary_trick_passes_on_reduced_budget():
    res = check_ternary_trick(seed=0, instances=40, max_dim=50)
    assert res.passed
    assert "max |diff| = 0" in res.detail


def test_gradients_check_passes_and_reports_error():
    res = check_gradients(seed=0)
    assert res.passed
    assert "relative FD error" in res.detail


def test_gradients_check_other_seed():
    assert check_gradients(seed=3).passed


def test_gradients_check_passes_at_every_seed_from_0_to_39():
    failed = [(seed, res.detail) for seed in range(40) if not (res := check_gradients(seed=seed)).passed]
    assert failed == []


@pytest.mark.parametrize("seed", [0, 8])
def test_gradients_check_fails_on_a_backward_off_by_a_part_in_a_thousand(monkeypatch, seed):
    real = quant._weight_backward

    def off(w, g, transposed):
        real(w, None if g is None else g * (1.0 + 1e-3), transposed)

    monkeypatch.setattr(quant, "_weight_backward", off)
    assert not check_gradients(seed=seed).passed


def test_exact_recovery_passes_on_reduced_budget():
    res = check_exact_recovery(seed=0, instances=10)
    assert res.passed


def test_train_eval_agreement_passes_on_reduced_budget():
    res = check_train_eval_agreement(seed=0, instances=5)
    assert res.passed
    assert "12 cached weights, 0 unlike the whole-matrix binarization" in res.detail


def doubled_scales(real):
    return lambda w: 2.0 * real(w)


def centers_off_the_row_mean(real):
    def rows(data):
        for r, centered, scales in real(data):
            yield r, centered - 0.05, scales

    return rows


@pytest.mark.parametrize(
    "name, wrong", [("weight_row_scales", doubled_scales), ("_weight_rows", centers_off_the_row_mean)]
)
def test_train_eval_agreement_catches_wrong_weight_bits_that_both_routes_share(monkeypatch, name, wrong):
    # a wrong scale or sign reaches every weight binarization in quant, the
    # cache that both routes read included, but not the check's plain-numpy reference
    monkeypatch.setattr(quant, name, wrong(getattr(quant, name)))
    res = check_train_eval_agreement(seed=0, instances=5)
    assert not res.passed
    assert "12 cached weights, 12 unlike the whole-matrix binarization" in res.detail


def test_result_line_format():
    line = CheckResult("kernel-oracle", True, "42 instances").line()
    assert line.startswith("PASS  kernel-oracle")
    assert line.endswith("42 instances")
    assert CheckResult("x", False, "d").line().startswith("FAIL")


def test_run_checks_only_filter():
    out = run_checks(only="ternary", seed=1)
    assert len(out) == 1
    assert out[0].name == "ternary-trick"


def test_run_checks_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(only="bogus")


def test_all_checks_registry_is_complete():
    assert set(ALL_CHECKS) == {"kernel", "ternary", "gradients", "recovery", "agreement"}
