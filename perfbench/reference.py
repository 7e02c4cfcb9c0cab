"""Independent recomputation of combofit's posterior outputs.

Nothing here imports combofit. Every quantity is rebuilt from the plate CSV
and the stored `samples.csv` with numerics of the benchmark's own:

- a Cox-de Boor B-spline basis (combofit differences truncated powers);
- the closed-form DSS integral log10(1 + 10^(lam (x - m))) / lam (combofit
  integrates 1001 trapezoid points);
- trapezoid weights for rVUS, applied to all draws at once;
- per-observation CPO and LPML over the combination cells;
- the fine posterior-mean surface and its iso-effect set;
- rank-normalised split bulk-ESS (Vehtari et al. 2021);
- the PIT values of the conjugate inverse-gamma draws.

Model definitions follow combofit's README: p = p0 + Delta with p0 the
product of two 2-parameter log-logistic curves and Delta the bounded double
sigmoid link of the spline predictor, masked to zero on the no-drug borders.
"""

import csv
import math

import numpy as np
from scipy.special import gammaincc, ndtri
from scipy.stats import kstest, rankdata

LN10 = math.log(10.0)
ZERO_OFFSET_DECADES = 2.0
SCALARS = ("m1", "m2", "lambda1", "lambda2", "b1", "b2", "gamma0", "gamma1",
           "gamma2", "sigma2_m1", "sigma2_m2", "sigma2_gamma0", "sigma2_gamma1",
           "sigma2_gamma2", "sigma2_eps")
PHI_NAMES = ("m1", "m2", "gamma0", "gamma1", "gamma2")


# ---------------------------------------------------------------------------
# Files


class Plate:
    """Plate CSV as log10 axes (zero dose substituted) and a viability cube."""

    def __init__(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        table = np.array([[float(v) for v in row] for row in rows if row])
        conc1, conc2 = np.unique(table[:, 0]), np.unique(table[:, 1])
        n_rep = int(table[:, 2].max())
        self.y = np.empty((conc1.size, conc2.size, n_rep))
        i = np.searchsorted(conc1, table[:, 0])
        j = np.searchsorted(conc2, table[:, 1])
        self.y[i, j, table[:, 2].astype(int) - 1] = table[:, 3]
        self.logc1 = _log_axis(conc1)
        self.logc2 = _log_axis(conc2)
        self.mask = np.ones((conc1.size, conc2.size))
        self.mask[0, :] = 0.0
        self.mask[:, 0] = 0.0


def _log_axis(conc):
    rest = np.log10(conc[1:])
    return np.concatenate(([rest[0] - ZERO_OFFSET_DECADES], rest))


class Draws:
    """samples.csv as arrays: chain index, named scalars and C stacks."""

    def __init__(self, path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        values = np.array([[float(v) for v in row] for row in rows[1:] if row])
        self.chain = values[:, 0].astype(int)
        self.scalar = {name: values[:, header.index(name)] for name in SCALARS}
        coeff = [name for name in header if name.startswith("C_")]
        self.k1 = 1 + max(int(name.split("_")[1]) for name in coeff)
        self.k2 = 1 + max(int(name.split("_")[2]) for name in coeff)
        order = [header.index(f"C_{a}_{b}") for a in range(self.k1) for b in range(self.k2)]
        self.C = values[:, order].reshape(-1, self.k1, self.k2)

    def __len__(self):
        return self.C.shape[0]

    def take(self, rows):
        """Scalars and C of a slice of draws, for chunked evaluation."""
        return {k: v[rows] for k, v in self.scalar.items()}, self.C[rows]


def read_truth_delta(path, shape):
    """Delta column of a long-form truth CSV, in file order (axis 1 major)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("delta")
    return np.array([float(row[col]) for row in rows[1:] if row]).reshape(shape)


def read_surface(path):
    """Matrix-form surface CSV: returns (axis1, axis2, values)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    axis2 = np.array([float(v) for v in rows[0][1:]])
    body = np.array([[float(v) for v in row] for row in rows[1:]])
    return body[:, 0], axis2, body[:, 1:]


# ---------------------------------------------------------------------------
# B-splines (Cox-de Boor)


def knot_ladder(lo, hi, n_basis, degree):
    """Equally spaced knots over [lo, hi], extended by `degree` knots each side."""
    n_seg = n_basis - degree
    dx = (hi - lo) / n_seg
    return lo + dx * np.arange(-degree, n_seg + degree + 1)


def cox_de_boor(x, knots, degree):
    """(len(x), len(knots) - degree - 1) basis matrix by the Cox-de Boor recursion.

    Degree-0 pieces are half-open [t_i, t_i+1); the right end of the domain
    belongs to the last interval inside it, so the basis sums to one on the
    closed domain.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(knots, dtype=float)
    last = t.size - degree - 2  # interval that ends at the domain's right end
    B = ((t[None, :-1] <= x[:, None]) & (x[:, None] < t[None, 1:])).astype(float)
    B[x == t[last + 1], :] = 0.0
    B[x == t[last + 1], last] = 1.0
    for d in range(1, degree + 1):
        left = (x[:, None] - t[None, :-d - 1]) / (t[d:-1] - t[:-d - 1])
        right = (t[None, d + 1:] - x[:, None]) / (t[d + 1:] - t[1:-d])
        B = left * B[:, :-1] + right * B[:, 1:]
    return B


# ---------------------------------------------------------------------------
# Model surfaces, vectorised over draws


class Layout:
    """Spline layout and linear axes of one fit, on the plate's grid."""

    def __init__(self, plate, k1, k2, degree=3, linear_scale="log10"):
        self.plate = plate
        self.degree = degree
        self.knots1 = knot_ladder(plate.logc1[0], plate.logc1[-1], k1, degree)
        self.knots2 = knot_ladder(plate.logc2[0], plate.logc2[-1], k2, degree)
        self.linear_scale = linear_scale

    def axes(self, ax1, ax2):
        u1, u2 = (ax1, ax2) if self.linear_scale == "log10" else (10.0 ** ax1, 10.0 ** ax2)
        return (cox_de_boor(ax1, self.knots1, self.degree),
                cox_de_boor(ax2, self.knots2, self.degree), u1, u2)

    def surfaces(self, s, C, ax1=None, ax2=None, masked=True):
        """p0 and Delta of every draw, shape (n_draws, len(ax1), len(ax2))."""
        ax1 = self.plate.logc1 if ax1 is None else ax1
        ax2 = self.plate.logc2 if ax2 is None else ax2
        B1, B2, u1, u2 = self.axes(ax1, ax2)
        f1 = curve(ax1, s["m1"], s["lambda1"])
        f2 = curve(ax2, s["m2"], s["lambda2"])
        p0 = f1[:, :, None] * f2[:, None, :]
        pred = (s["gamma0"][:, None, None] + s["gamma1"][:, None, None] * u1[None, :, None]
                + s["gamma2"][:, None, None] * u2[None, None, :]
                + np.einsum("ik,nkl,jl->nij", B1, C, B2))
        with np.errstate(over="ignore"):
            g = (-p0 / (1.0 + np.exp(s["b1"][:, None, None] * pred))
                 + (1.0 - p0) / (1.0 + np.exp(-s["b2"][:, None, None] * pred)))
        return p0, (g * self.plate.mask if masked else g)


def curve(logx, m, lam):
    """1 / (1 + 10^(lam (logx - m))) for every draw: shape (n_draws, len(logx))."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(LN10 * lam[:, None] * (logx[None, :] - m[:, None])))


# ---------------------------------------------------------------------------
# Scores


def trapezoid_weights(x):
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    w[:-1] += 0.5 * np.diff(x)
    w[1:] += 0.5 * np.diff(x)
    return w


def rvus(values, ax1, ax2, upper):
    """Volume under each surface over (0, upper) box, normalised: (n_draws,)."""
    volume = np.einsum("i,nij,j->n", trapezoid_weights(ax1), values, trapezoid_weights(ax2))
    area = (ax1[-1] - ax1[0]) * (ax2[-1] - ax2[0])
    return volume / (upper * area)


def rvus_scores(p0, delta, ax1, ax2):
    """The five per-draw rVUS series that combofit's summary reports."""
    bound = np.max(np.maximum(p0, 1.0 - p0), axis=(1, 2))
    ones = np.ones(p0.shape[0])
    return {
        "p0": rvus(p0, ax1, ax2, ones),
        "abs_delta": rvus(np.abs(delta), ax1, ax2, bound),
        "delta_plus": rvus(np.maximum(-delta, 0.0), ax1, ax2, bound),
        "delta_minus": rvus(np.maximum(delta, 0.0), ax1, ax2, bound),
        "one_minus_p": rvus(1.0 - (p0 + delta), ax1, ax2, ones),
    }


def _log10_1p_pow10(z):
    """log10(1 + 10^z) without overflow."""
    return np.logaddexp(0.0, LN10 * z) / LN10


def dss(m, lam, lo, hi, threshold=0.10):
    """Drug sensitivity score per draw from the closed-form activity integral.

    Activity 1 - f has antiderivative log10(1 + 10^(lam (x - m))) / lam; it
    is integrated over [x_t, hi] where activity exceeds the threshold.
    """
    m, lam = np.asarray(m, dtype=float), np.asarray(lam, dtype=float)
    width = hi - lo
    x_t = np.clip(m + math.log10(threshold / (1.0 - threshold)) / lam, lo, hi)
    auc = (_log10_1p_pow10(lam * (hi - m)) - _log10_1p_pow10(lam * (x_t - m))) / lam
    score = 100.0 * np.maximum(0.0, auc - threshold * width) / ((1.0 - threshold) * width)
    return np.where(x_t >= hi, 0.0, score)


def lpml(y, p, sigma2, mask):
    """Sum of log CPO over the observations of the cells where mask > 0.

    y: (n1, n2, n_rep); p: (n_draws, n1, n2); sigma2: (n_draws,).
    """
    cells = mask > 0
    resid = y[None][:, cells, :] - p[:, cells][:, :, None]
    neg_ld = (0.5 * np.log(2.0 * math.pi * sigma2)[:, None, None]
              + resid * resid / (2.0 * sigma2[:, None, None]))
    top = neg_ld.max(axis=0)
    log_mean_inv = top + np.log(np.mean(np.exp(neg_ld - top), axis=0))
    return float(-np.sum(log_mean_inv))


def quantile_stats(x):
    return {"median": float(np.median(x)), "lower95": float(np.percentile(x, 2.5)),
            "upper95": float(np.percentile(x, 97.5)), "mean": float(np.mean(x))}


class Posterior:
    """Everything combofit reports about a stored posterior, recomputed."""

    CHUNK = 200  # draws per fine-surface block: 200 x 100 x 100 doubles = 16 MB

    def __init__(self, plate, draws, degree=3, linear_scale="log10",
                 dss_threshold=0.10, fine_points=100):
        self.plate, self.draws = plate, draws
        lay = Layout(plate, draws.k1, draws.k2, degree, linear_scale)
        s = draws.scalar
        self.p0, self.delta = lay.surfaces(s, draws.C)
        self.p = self.p0 + self.delta
        self.rvus = rvus_scores(self.p0, self.delta, plate.logc1, plate.logc2)
        self.dss = {
            "drug1": dss(s["m1"], s["lambda1"], plate.logc1[1], plate.logc1[-1], dss_threshold),
            "drug2": dss(s["m2"], s["lambda2"], plate.logc2[1], plate.logc2[-1], dss_threshold),
        }
        self.lpml = lpml(plate.y, self.p, s["sigma2_eps"], plate.mask)
        self.fine1 = np.linspace(plate.logc1[1], plate.logc1[-1], fine_points)
        self.fine2 = np.linspace(plate.logc2[1], plate.logc2[-1], fine_points)
        total = np.zeros((fine_points, fine_points))
        for start in range(0, len(draws), self.CHUNK):
            sc, Cc = draws.take(slice(start, start + self.CHUNK))
            p0, g = lay.surfaces(sc, Cc, self.fine1, self.fine2, masked=False)
            total += (p0 + g).sum(axis=0)
        self.fine_mean = total / len(draws)

    def summary(self):
        return {"n_samples": len(self.draws), "lpml": self.lpml,
                "dss": {k: quantile_stats(v) for k, v in self.dss.items()},
                "rvus": {k: quantile_stats(v) for k, v in self.rvus.items()}}

    def score_series(self):
        """The five headline per-draw scores: three interaction rVUS and two DSS."""
        out = {f"rvus.{k}": self.rvus[k] for k in ("abs_delta", "delta_plus", "delta_minus")}
        out.update({f"dss.{k}": v for k, v in self.dss.items()})
        return out

    def sum_of_squares(self):
        resid = self.plate.y[None] - self.p[..., None]
        return np.sum(resid * resid, axis=(1, 2, 3))


def iso_effect_mismatch(points, fine1, fine2, fine_mean, tolerance, slack=1e-9):
    """Disagreements between reported iso-effect points and the recomputed set.

    A reported point must lie on the fine grid with |mean - 0.5| <= tol + slack;
    every grid point with |mean - 0.5| <= tol - slack must be reported. Points
    within `slack` of the edge may go either way, since summation order moves
    the mean by roundoff.
    """
    gap = np.abs(fine_mean - 0.5)
    reported = set()
    problems = []
    for a1, a2 in points:
        i = int(np.argmin(np.abs(fine1 - a1)))
        j = int(np.argmin(np.abs(fine2 - a2)))
        if abs(fine1[i] - a1) > 1e-9 or abs(fine2[j] - a2) > 1e-9:
            problems.append(f"point ({a1}, {a2}) is off the fine grid")
        elif gap[i, j] > tolerance + slack:
            problems.append(f"point ({a1}, {a2}) has |p - 0.5| = {gap[i, j]:.6g}")
        reported.add((i, j))
    for i, j in zip(*np.nonzero(gap <= tolerance - slack)):
        if (int(i), int(j)) not in reported:
            problems.append(f"missing point ({fine1[i]}, {fine2[j]})")
    return problems


# ---------------------------------------------------------------------------
# Diagnostics


def _autocovariance(x):
    """Biased autocovariance of each row of x via FFT: shape like x."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def ess(chains):
    """Multi-chain effective sample size with Geyer's initial monotone sequence.

    chains: (m, n). Returns nan when the draws do not vary.
    """
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = chains.shape
    acov = _autocovariance(chains)
    mean_var = np.mean(acov[:, 0]) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += np.var(chains.mean(axis=1), ddof=1)
    if not var_plus > 0.0:
        return math.nan
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Initial positive sequence: sum autocorrelation pairs while positive.
    tau = -1.0
    prev_pair = math.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        pair = min(pair, prev_pair)  # initial monotone sequence
        tau += 2.0 * pair
        prev_pair = pair
        t += 2
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def split_chains(x, chain_index):
    """(2m, n//2) array of chain halves, one row per half."""
    halves = []
    for c in np.unique(chain_index):
        series = x[chain_index == c]
        half = series.size // 2
        halves += [series[:half], series[series.size - half:]]
    return np.vstack(halves)


def bulk_ess(x, chain_index):
    """Rank-normalised split bulk-ESS (Vehtari, Gelman, Simpson, Carpenter &
    Buerkner 2021) of a pooled series with per-draw chain labels."""
    split = split_chains(np.asarray(x, dtype=float), np.asarray(chain_index))
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return ess(z)


def conjugate_pit(post, shape, rate):
    """PIT of each retained inverse-gamma draw given the rest of its state.

    Under IG(shape, rate) the conditional of sigma2_phi is IG(shape + 1/2,
    rate + phi^2 / 2) and that of sigma2_eps is IG(shape + n/2, rate + ss/2).
    P(sigma2 <= s) = Q(a, b / s), the regularised upper incomplete gamma.
    """
    s = post.draws.scalar
    out = {}
    for name in PHI_NAMES:
        phi = s[name]
        out[f"sigma2_{name}"] = gammaincc(shape + 0.5,
                                          (rate + 0.5 * phi * phi) / s[f"sigma2_{name}"])
    n_obs = post.plate.y.size
    out["sigma2_eps"] = gammaincc(shape + 0.5 * n_obs,
                                  (rate + 0.5 * post.sum_of_squares()) / s["sigma2_eps"])
    return out


def ks_uniform_pvalue(u):
    return float(kstest(u, "uniform").pvalue)
