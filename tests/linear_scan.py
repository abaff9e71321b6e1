"""The 64-point linear bracket scan: an independent reference.

``cbmkit.estimators.invert_monotone`` finds its bracket by bisecting over
the indices of a geometric grid.  The function here is the linear scan it
replaced: it evaluates every grid point and stops at the first zero or sign
change.  Both then hand the bracket to the same Chandrupatla polish
(``cbmkit.estimators._chandrupatla``), so on monotone maps the two must
return the same bracket, the same iteration count and a bit-identical
root.  The polish itself is checked against a bisection reference in
``TestChandrupatla``.
"""

from typing import Callable, Optional

import numpy as np

from cbmkit.estimators import OutOfRangeError, _chandrupatla


def linear_scan_invert(
    func: Callable[[float], float],
    target: float,
    lo: float = 1e-8,
    hi: float = 1e2,
    rtol: float = 1e-12,
    atol: float = 0.0,
    max_expand: int = 8,
    trace: Optional[dict] = None,
) -> float:
    def g(x: float) -> float:
        return func(x) - target

    for _ in range(max_expand):
        xs = np.geomspace(lo, hi, 64)
        vals = [g(x) for x in xs.tolist()]
        bracket = None
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                return float(xs[i])
            if vals[i] * vals[i + 1] <= 0.0:
                bracket = (float(xs[i]), float(xs[i + 1]), vals[i], vals[i + 1])
                break
        if bracket is not None:
            break
        lo, hi = lo / 100.0, hi * 100.0
    else:
        raise OutOfRangeError(
            f"target {target!r} outside the attainable range "
            f"[{min(vals[0], vals[-1]) + target!r}, {max(vals[0], vals[-1]) + target!r}]"
        )

    a, b, fa, fb = bracket
    if trace is None:
        trace = {}
    trace["bracket"] = (a, b)
    # the polish is a coroutine: it yields its points and is sent func there
    polish = _chandrupatla(a, b, fa, fb, rtol * abs(target) + atol, trace, target)
    try:
        x = next(polish)
        while True:
            x = polish.send(func(x))
    except StopIteration as stop:
        return stop.value
