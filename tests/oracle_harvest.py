"""Monte Carlo oracle for the energy-readiness probability.

Samples the accumulated harvest directly from the field model, with none of
the closed form's machinery: the serving station sits at r1, interferers are
an exact Poisson draw on the annulus (r1, r_split), and everything beyond
r_split contributes its spatial mean.  Rayleigh fading summed over the
m = k*(n+1)-1 harvest slots gives every station an independent Gamma(m, 1)
energy factor.  Shares no code with rfhnet.analytic on purpose.
"""
import math

import numpy as np


def mc_ready(params, n, k, r1, n_draws=100_000, seed=1, r_split=2000.0,
             chunk=2000):
    """Estimate P(store >= e_th at the k-th scheduled slot | n, r1).

    Returns (estimate, binomial standard error).
    """
    m = k * (n + 1) - 1
    thresh = params.e_th / (params.a_eff * params.p_s)
    if m == 0:
        return (1.0 if thresh <= 0 else 0.0), 0.0
    lam, alpha = params.lambda_b, params.alpha
    rng = np.random.default_rng(seed)
    mean_count = lam * np.pi * (r_split ** 2 - r1 ** 2)
    far_mean = (m * 2.0 * np.pi * lam * r_split ** (2.0 - alpha)
                / (alpha - 2.0))
    hits = 0
    for start in range(0, n_draws, chunk):
        nb = min(chunk, n_draws - start)
        counts = rng.poisson(mean_count, size=nb)
        total = np.full(nb, far_mean)
        total += rng.gamma(m, 1.0, size=nb) * r1 ** (-alpha)
        cmax = int(counts.max()) if nb else 0
        if cmax:
            # annulus radii by inverse-CDF of the uniform area measure
            u = rng.uniform(size=(nb, cmax))
            radii = np.sqrt(r1 ** 2 + u * (r_split ** 2 - r1 ** 2))
            g = rng.gamma(m, 1.0, size=(nb, cmax))
            mask = np.arange(cmax)[None, :] < counts[:, None]
            total += np.sum(g * radii ** (-alpha) * mask, axis=1)
        hits += int(np.sum(total >= thresh))
    p = hits / n_draws
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_draws)
    return p, se
