"""Hand-derived sensitivity maps for shapes 1 and 2: an independent reference.

``cbmkit.formulas.parameter_sensitivities`` gets its derivatives from the
inspection series carried one Taylor order further.  The expressions here
were differentiated by hand from the shape-1 and shape-2 closed forms and
use nothing of that series code: only the gap Laplace transform, its
derivatives, and a band of their own to pick the equal-rates formulas.
Their generic branch divides by up to (mu - lam)^3 and degrades inside that
band, so compare them away from the diagonal or exactly on it.
"""

from cbmkit.formulas import Sensitivities
from cbmkit.laws import laplace_jet, one_minus_laplace


def _near_diagonal(mu, lam, shape, spacing):
    # where the equal-rates limits replace the generic formulas: the band
    # that balances the generic formulas' loss of about 16*shape/(shape+4)
    # digits against the limits' own truncation, floored at 1e-6 relative
    width = max(1e-6 * max(mu, lam), 10.0 ** (-16.0 / (shape + 4)) / spacing)
    return abs(mu - lam) <= width


def closed_sensitivities(sane, damage, insp):
    """(dmk/dmu, dpd/dmu, dpd/dlambda) from the explicit shape-1/2 formulas."""
    n, mu, lam = sane.shape, sane.rate, damage.rate
    l_mu, lp, lpp, lppp = laplace_jet(mu, insp, 3)
    om = one_minus_laplace(mu, insp)
    diagonal = _near_diagonal(mu, lam, n, insp.spacing)
    if not diagonal:
        l_lam, lp_lam = laplace_jet(lam, insp, 1)
        d = mu - lam

    if n == 1:
        fp = lp / om**2
        if diagonal:
            gmu = (0.5 * mu * lpp + lp) / om + mu * lp**2 / om**2
            gl = mu * lpp / (2.0 * om)
        else:
            gmu = lam / d**2 * (l_lam - l_mu) / om - mu / d * lp * (l_lam - 1.0) / om**2
            gl = -(mu / d**2 * (l_lam - l_mu) / om + mu / d * lp_lam / om)
        return Sensitivities(fp, gmu, gl)

    if n == 2:
        fp = -mu * (lpp * om + 2.0 * lp**2) / om**3
        if diagonal:
            gmu = -mu / om**3 * (
                2.0 * om * (mu * lp * lpp + lp**2)
                + om**2 * (lpp + mu / 3.0 * lppp)
                + 2.0 * mu * lp**3
            )
            gl = -mu**2 / (2.0 * om**2) * (lpp * lp + om * lppp / 3.0)
        else:
            gmu = -mu / (om**3 * d**3) * (
                -2.0 * lam * om * ((l_lam - l_mu) * om + d * lp * (1.0 - l_lam))
                + mu * d**2 * (1.0 - l_lam) * (lpp * om + 2.0 * lp**2)
            )
            gl = -2.0 * mu**2 / (d**3 * om**2) * (
                om * (l_lam - l_mu)
                + d / 2.0 * (lp_lam * om + lp * (1.0 - l_lam))
                - d**2 / 2.0 * lp_lam * lp
            )
        return Sensitivities(fp, gmu, gl)

    raise ValueError("closed-form sensitivities cover shapes 1 and 2 only")
