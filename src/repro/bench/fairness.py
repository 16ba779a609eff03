"""Jain's fairness index, as used in Fig. 4 (footnote 2 of the paper).

For N components with delivered allocations :math:`d_i` and desired
allocations :math:`w_i`, let :math:`x_i = d_i / w_i`.  Then

.. math:: F = \\frac{(\\sum_i x_i)^2}{N \\sum_i x_i^2}

A value of 1 indicates an ideal allocation; lower values indicate
skew.  [Chiu & Jain 1989]
"""

from __future__ import annotations

from typing import Sequence


def jains_fairness(delivered: Sequence[float], desired: Sequence[float]) -> float:
    """Jain's index of how well ``delivered`` matches ``desired``.

    Raises ValueError on mismatched lengths or non-positive desired
    shares; a zero delivered allocation is legal (it just hurts the
    index).
    """
    if len(delivered) != len(desired):
        raise ValueError("delivered and desired must have equal length")
    if len(delivered) == 0:
        raise ValueError("need at least one component")
    if any(w <= 0 for w in desired):
        raise ValueError("desired shares must be positive")
    # Plain left-to-right accumulation (not ``sum``, which compensates
    # from Python 3.12 on): the figures' recorded numbers were produced
    # by exactly this order of additions.
    total = squares = 0.0
    for got, want in zip(delivered, desired):
        x = float(got) / float(want)
        total += x
        squares += x * x
    denom = len(delivered) * squares
    if denom == 0:
        return 0.0
    return total ** 2 / denom


def proportional_shares(total: float, ratios: Sequence[float]) -> list[float]:
    """Split ``total`` according to ``ratios`` (the figure's 'desired' lines)."""
    s = sum(ratios)
    if s <= 0:
        raise ValueError("ratios must sum to a positive value")
    return [total * r / s for r in ratios]
