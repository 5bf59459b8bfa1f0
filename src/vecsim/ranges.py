"""The declared range of a scenario field.

A field states the values it takes next to its type, for example
`slot_duration: Annotated[float, Range(gt=0)] = 1e-3`, and
`config.validate_scenario` checks every declaration of a scenario in one
walk, in one message format: `dotted.path: must be > 0, got 0.0`.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

_BOUNDS = ((">", operator.gt), (">=", operator.ge), ("<", operator.lt), ("<=", operator.le))   # gt, ge, lt, le


def shown(value) -> str:
    """repr(value) for a message, cut after 60 characters: a rejected value may be huge."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "…"


class Range(NamedTuple):
    """Bounds on a number (`gt`, `ge`, `lt`, `le`) or, with `items`, on a
    list's length; `among` is the fixed set of values a string takes.
    A float must also be finite, so `Range()` on a float field declares
    that it takes any finite value."""

    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None
    among: tuple[str, ...] = ()
    items: bool = False

    def problem(self, value) -> str | None:
        """The problem "must be ..., got ..." when `value` lies outside the range, else None."""
        if self.among and value not in self.among:
            return f"must be one of {', '.join(self.among)}, got {shown(value)}"
        x = len(value) if self.items else value
        if isinstance(x, float) and not math.isfinite(x):
            return f"must be finite, got {shown(x)}"
        for (symbol, holds), bound in zip(_BOUNDS, self):
            if bound is not None and not holds(x, bound):
                what = f"hold {symbol} {bound:g} items" if self.items else f"be {symbol} {bound:g}"
                return f"must {what}, got {shown(x)}"
        return None
