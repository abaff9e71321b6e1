"""The Nelder-Mead simplex walk: an independent reference for the MLE.

``cbmkit.estimators.mle_estimate`` maximizes the censored likelihood by
Newton steps on its analytic score and Hessian.  The function here is the
derivative-free walk it replaced.  It reads only likelihood values, so a
fit that agrees with it cannot share a mistake in the derivatives.
"""

from typing import Callable

import numpy as np

from cbmkit.estimators import NonConvergenceError


def nelder_mead(
    func: Callable[[np.ndarray], float],
    start: np.ndarray,
    step: float = 0.05,
    diameter_tol: float = 1e-10,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, float, int]:
    """Minimize func by the reflect/expand/contract/shrink simplex walk.

    Converges when the simplex diameter drops below ``diameter_tol``;
    raises NonConvergenceError past ``max_iter`` iterations.
    """
    dim = len(start)
    simplex = [np.array(start, dtype=float)]
    for i in range(dim):
        vertex = np.array(start, dtype=float)
        vertex[i] += step
        simplex.append(vertex)
    values = [func(v) for v in simplex]

    for iteration in range(max_iter):
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(
            float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:]
        )
        if diameter < diameter_tol:
            return simplex[0], values[0], iteration
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_ref = func(reflected)
        if f_ref < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_exp = func(expanded)
            if f_exp < f_ref:
                simplex[-1], values[-1] = expanded, f_exp
            else:
                simplex[-1], values[-1] = reflected, f_ref
        elif f_ref < values[-2]:
            simplex[-1], values[-1] = reflected, f_ref
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_con = func(contracted)
            if f_con < values[-1]:
                simplex[-1], values[-1] = contracted, f_con
            else:
                simplex = [simplex[0]] + [
                    simplex[0] + 0.5 * (v - simplex[0]) for v in simplex[1:]
                ]
                values = [values[0]] + [func(v) for v in simplex[1:]]
    raise NonConvergenceError(f"simplex did not converge in {max_iter} iterations")
