import math

import pytest

from ltbounds.reports import BoundReport


class TestBoundReport:
    def test_ratio_and_pass(self):
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5)
        assert rep.ratio == 0.5 and rep.passed

    def test_both_zero(self):
        rep = BoundReport.build(0.0, 0.0, constant_used=1.0)
        assert rep.ratio == 0.0 and rep.passed

    def test_zero_rhs_positive_lhs_fails(self):
        rep = BoundReport.build(1.0, 0.0, constant_used=1.0)
        assert rep.ratio == math.inf and not rep.passed

    def test_round_off_slack(self):
        rep = BoundReport.build(1.0 + 5e-13, 1.0, constant_used=1.0)
        assert rep.passed
        rep = BoundReport.build(1.0 + 5e-12, 1.0, constant_used=1.0)
        assert not rep.passed

    def test_negative_sides_rejected(self):
        with pytest.raises(ValueError):
            BoundReport.build(-1.0, 1.0, constant_used=1.0)

    @pytest.mark.parametrize("lhs, rhs", [(math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_sides_rejected(self, lhs, rhs):
        with pytest.raises(ValueError, match="finite"):
            BoundReport.build(lhs, rhs, constant_used=1.0)

    def test_rhs_scaling(self):
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5, seed=7)
        scaled = rep.with_rhs_scaled(0.01)
        assert scaled.rhs == pytest.approx(0.02)
        assert not scaled.passed
        assert scaled.metadata["rhs_scale"] == 0.01
        assert scaled.metadata["seed"] == 7
        with pytest.raises(ValueError):
            rep.with_rhs_scaled(0.0)

    def test_chained_rhs_scaling_records_the_product(self):
        scaled = BoundReport.build(1.0, 10.0, constant_used=1.0).with_rhs_scaled(2.0).with_rhs_scaled(3.0)
        assert scaled.rhs == 60.0
        assert scaled.metadata["rhs_scale"] == 6.0

    def test_json_pass_key(self):
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5, gamma=1.5)
        payload = rep.to_dict()
        assert payload["pass"] is True
        assert payload["gamma"] == 1.5

    def test_certified_follows_the_upper_bound(self):
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5, lhs_upper=1.5)
        assert rep.to_dict()["certified"] is True
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5, lhs_upper=2.0 + 1e-12)
        assert rep.passed and rep.metadata["certified"] is False  # no PASS_SLACK on the upper bound
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5, lhs_upper=2.1)
        assert rep.passed and rep.metadata["certified"] is False
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5, lhs_upper=None)
        assert rep.metadata["certified"] is False and rep.to_dict()["lhs_upper"] is None

    def test_certified_is_recomputed_for_a_scaled_rhs(self):
        rep = BoundReport.build(1.0, 2.0, constant_used=0.5, lhs_upper=1.5)
        assert rep.with_rhs_scaled(0.8).metadata["certified"] is True
        assert rep.with_rhs_scaled(0.7).metadata["certified"] is False

    def test_no_upper_bound_no_certified_field(self):
        assert "certified" not in BoundReport.build(1.0, 2.0, constant_used=0.5).to_dict()

    def test_non_finite_upper_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BoundReport.build(1.0, 2.0, constant_used=0.5, lhs_upper=math.inf)
