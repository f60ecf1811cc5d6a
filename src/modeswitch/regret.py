"""Tradeoff weight between false alarms and detection delay."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SwitchingCostRates:
    """Stationary average stage costs for every (policy, active mode) pairing.

    ``post_in_pre`` is the average cost of running the post-change policy
    while the pre-change kernel is still active, and so on.  When stage costs
    are mode-dependent each average uses the cost expectation under the
    active mode's disturbance law.
    """

    post_in_pre: float
    pre_in_pre: float
    pre_in_post: float
    post_in_post: float

    @property
    def false_alarm_gap(self) -> float:
        """Per-step cost of having switched too early (wrong policy, mode unchanged)."""
        return self.post_in_pre - self.pre_in_pre

    @property
    def delay_gap(self) -> float:
        """Per-step cost of switching too late (old policy, mode already changed)."""
        return self.pre_in_post - self.post_in_post


def false_alarm_weight(rates: SwitchingCostRates, change_rate: float) -> float:
    """Weight on the false-alarm probability in the detection objective.

    Equals the false-alarm cost gap divided by the delay cost gap and by the
    change rate, which must lie in (0, 1].  Both gaps must be strictly
    positive for the rescaling to be valid; the error names the offending
    side.
    """
    if not 0.0 < change_rate <= 1.0:
        raise ValueError(f"change_rate must lie in (0, 1], got {change_rate}")
    if rates.false_alarm_gap <= 0.0:
        raise ValueError(
            "numerator nonpositive: the false-alarm cost gap "
            f"(post-in-pre {rates.post_in_pre!r} minus pre-in-pre {rates.pre_in_pre!r}) "
            "must be strictly positive"
        )
    if rates.delay_gap <= 0.0:
        raise ValueError(
            "denominator nonpositive: the delay cost gap "
            f"(pre-in-post {rates.pre_in_post!r} minus post-in-post {rates.post_in_post!r}) "
            "must be strictly positive"
        )
    return rates.false_alarm_gap / (rates.delay_gap * change_rate)
