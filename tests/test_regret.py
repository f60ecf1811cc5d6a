"""Tests for the false-alarm weight."""

import numpy as np
import pytest

from modeswitch.regret import SwitchingCostRates, false_alarm_weight


def rates_with(num=1.0, den=1.0):
    return SwitchingCostRates(
        post_in_pre=2.0 + num,
        pre_in_pre=2.0,
        pre_in_post=5.0 + den,
        post_in_post=5.0,
    )


class TestFalseAlarmWeight:
    def test_symmetric_gaps_unit_rate(self):
        assert false_alarm_weight(rates_with(num=1.0, den=1.0), 1.0) == 1.0

    def test_scales_inversely_with_change_rate(self):
        # With the cost gaps fixed, weight * rate stays constant over the sweep.
        rhos = (0.0028, 0.0036, 0.0046, 0.0060, 0.0078, 0.0100)
        products = np.array(
            [false_alarm_weight(rates_with(num=0.7, den=1.3), r) * r for r in rhos]
        )
        base = 0.7 / 1.3
        assert np.ptp(products) <= 8 * np.finfo(float).eps * base
        assert np.allclose(products, base, rtol=1e-14)

    def test_nonpositive_numerator_named(self):
        with pytest.raises(ValueError, match="numerator nonpositive"):
            false_alarm_weight(rates_with(num=0.0), 0.5)
        with pytest.raises(ValueError, match="numerator nonpositive"):
            false_alarm_weight(rates_with(num=-0.5), 0.5)

    def test_nonpositive_denominator_named(self):
        with pytest.raises(ValueError, match="denominator nonpositive"):
            false_alarm_weight(rates_with(den=0.0), 0.5)

    def test_rejects_bad_change_rate(self):
        with pytest.raises(ValueError):
            false_alarm_weight(rates_with(), 0.0)
        with pytest.raises(ValueError):
            false_alarm_weight(rates_with(), 1.5)
