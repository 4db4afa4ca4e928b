"""Statistics helpers: the keyed random stream and the flat-cell draw,
chi-square tests with their tail and normal CDF, and overlap fidelities."""

import math

import numpy as np

from .errors import ValidationError

# Cells with expected count below this are pooled into one collective cell
# before the chi-square statistic is formed (Cochran's rule of thumb).
MIN_EXPECTED = 5.0


def stream(*key):  # unannotated, so numpy.random loads only when called
    """The counter-based (Philox) numpy Generator keyed by the integers key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def draw_cells(weights, u) -> np.ndarray:
    """Flat cells drawn at uniforms u in [0, 1) from non-negative weights:
    u * total rounds below total, so only cells of positive weight come out."""
    cdf = np.cumsum(weights.ravel())
    return np.searchsorted(cdf, u * cdf[-1], side="right")


def chi2_tail(dof: int, x: float) -> float:
    """P(chi2_dof > x) for integer dof >= 1, by the finite series in h = x/2:
    e^{-h} sum_{k<dof/2} h^k / k! for even dof, and erfc(sqrt h) plus the
    half-integer terms e^{-h} h^{k+1/2} / Gamma(k+3/2) for odd dof. Each
    term is formed in log space, so no large dof or x overflows it."""
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = 0.5 * x
    a0 = 0.5 * (dof % 2)
    log_h = math.log(h)
    tail = math.fsum(math.exp((a0 + k) * log_h - h - math.lgamma(a0 + k + 1.0))
                     for k in range(dof // 2))
    return tail + math.erfc(math.sqrt(h)) if dof % 2 else tail


_erfc = np.vectorize(math.erfc, otypes=[float])


def normal_cdf(z) -> np.ndarray:
    """Standard normal CDF, 1/2 erfc(-z / sqrt 2), elementwise."""
    return 0.5 * _erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0))


def _pool(counts, expected, decide=None):
    """Pool the cells expecting fewer than MIN_EXPECTED counts into one
    collective cell. A collective cell that itself expects fewer is folded
    into the smallest kept cell instead, unless no kept cell is left.

    `decide` (default `expected`) holds the expectations that choose the
    cells, so that two samples can share one binning."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    decide = expected if decide is None else decide
    small = decide < MIN_EXPECTED
    if not small.any():
        return counts, expected
    kept = np.flatnonzero(~small)
    c, e = counts[kept], expected[kept]
    pooled_c, pooled_e = counts[small].sum(), expected[small].sum()
    if kept.size and decide[small].sum() < MIN_EXPECTED:
        j = np.argmin(decide[kept])
        c[j] += pooled_c
        e[j] += pooled_e
        return c, e
    return np.append(c, pooled_c), np.append(e, pooled_e)


def chi2_gof(counts, probs) -> dict:
    """Goodness of fit of observed counts against cell probabilities.

    Returns {"chi2", "dof", "p_value"}; cells with expected count < 5 are
    pooled (see _pool), dof = (#cells after pooling) - 1.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise ValidationError("counts and probs must have the same shape")
    n = counts.sum()
    if n <= 0:
        raise ValidationError("no observations")
    c, e = _pool(counts, probs / probs.sum() * n)
    chi2 = float(np.sum((c - e) ** 2 / e))
    dof = max(c.size - 1, 1)
    return {"chi2": chi2, "dof": dof, "p_value": chi2_tail(dof, chi2)}


def chi2_joint(rx: dict, ry: dict) -> dict:
    """Joint test of two independent chi-square results: statistics and
    degrees of freedom add."""
    chi2 = rx["chi2"] + ry["chi2"]
    dof = rx["dof"] + ry["dof"]
    return {"chi2": float(chi2), "dof": int(dof),
            "p_value": chi2_tail(dof, chi2)}


def chi2_two_sample(counts_a, counts_b) -> dict:
    """Homogeneity test for two binned samples (shared binning)."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("histograms must share binning")
    tot = a + b
    keep = tot > 0
    a, b, tot = a[keep], b[keep], tot[keep]
    na, nb = a.sum(), b.sum()
    ea = tot * na / (na + nb)
    eb = tot * nb / (na + nb)
    decide = np.minimum(ea, eb)
    ca, eca = _pool(a, ea, decide)
    cb, ecb = _pool(b, eb, decide)
    chi2 = float(np.sum((ca - eca) ** 2 / eca) + np.sum((cb - ecb) ** 2 / ecb))
    dof = max(ca.size - 1, 1)
    return {"chi2": chi2, "dof": dof, "p_value": chi2_tail(dof, chi2)}


def fidelity(a, b) -> float:
    """|<a|b>| / (|a| |b|) for complex vectors on a shared grid."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValidationError("fidelity of a zero vector")
    return float(abs(np.vdot(a, b)) / (na * nb))


def fidelity_debiased(estimate, target, variances) -> float:
    """Fidelity of a noisy estimate against a noise-free target.

    The estimator norm is inflated by the sampling variance of each entry;
    subtracting the known total variance before normalizing removes that
    bias: F = |<t|e>| / (|t| * sqrt(max(|e|^2 - sum(var), 0))).
    Falls back to the raw fidelity when the corrected norm underflows.
    """
    e = np.asarray(estimate).ravel()
    t = np.asarray(target).ravel()
    v = float(np.sum(variances))
    ne2 = float(np.vdot(e, e).real) - v
    if ne2 <= 0.0:
        return fidelity(e, t)
    return float(abs(np.vdot(t, e)) / (np.linalg.norm(t) * np.sqrt(ne2)))


def fidelity_debiased_sigma(estimate, variances):
    """Standard error of fidelity_debiased when the target is (near) the
    true direction of the estimate.

    There the first-order noise cancels between numerator and norm and the
    fidelity fluctuates only through the quadratic noise terms:
    sigma = sqrt(sum var_i^2) / (2 (|e|^2 - sum var)). Returns None when
    the debiased norm underflows (noise exceeds signal; nothing to test).
    """
    e = np.asarray(estimate).ravel()
    v = np.asarray(variances, dtype=float).ravel()
    ne2 = float(np.vdot(e, e).real) - float(v.sum())
    if ne2 <= 0.0:
        return None
    return float(np.sqrt(np.sum(v**2)) / (2.0 * ne2))
