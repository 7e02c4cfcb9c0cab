import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from combofit import (AdaptiveState, ChainConfig, HalfCauchyPrior, InitializationError,
                      InverseGammaPrior, Posterior, PriorSpec, SplineSpec,
                      ValidationError, initial_state, run_chain, run_chains)
from combofit.mcmc import (_REBUILD_BLOCK, ADAPT_JITTER, BLOCK_NAMES,
                           DEFAULT_PROPOSAL_SCALES, REFRESH, _Sampler, draw_inverse_gamma)
from combofit.model import (COLUMN, DRAW_SCALARS, LINEAR_SCALES, N_SCALARS, POSITIVE_SCALARS,
                            VARIANCES, SurfaceDesign, curve_values, link_delta,
                            link_denominators, link_numerators, surfaces)
from combofit.splines import basis_matrix, penalty_precision

import reference  # perfbench's oracle, which imports no combofit

TINY = ChainConfig(n_iter=100, burn_in=50, thin=5, seed=3)


# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults_and_retention():
    config = ChainConfig()
    assert config.burn_in == 50_000
    assert config.n_retained == 5_000
    assert config.adapt_start == 1000
    assert TINY.n_retained == 10
    # adaptation starts halfway through a short burn-in, and at once without one
    assert TINY.adapt_start == 25
    assert ChainConfig(n_iter=7, burn_in=0, thin=2).adapt_start == 1
    assert ChainConfig(adapt_start=10_000).adapt_start == 10_000
    assert ChainConfig(n_iter=7, burn_in=0, thin=2).n_retained == 3


def test_config_validation():
    with pytest.raises(ValidationError):
        ChainConfig(n_iter=0)
    with pytest.raises(ValidationError):
        ChainConfig(n_iter=10, burn_in=10)
    with pytest.raises(ValidationError):
        ChainConfig(n_iter=10, burn_in=9, thin=5)
    with pytest.raises(ValidationError):
        ChainConfig(thin=0)
    with pytest.raises(ValidationError):
        ChainConfig(seed=-1)


# ---------------------------------------------------------------------------
# Proposal adaptation


def _adapter(dim, **kwargs):
    defaults = dict(initial_scale=0.5, target=0.44, adapt_start=10)
    defaults.update(kwargs)
    return AdaptiveState.for_dim(dim, **defaults)


def test_initial_proposal_uses_configured_scale():
    rng = np.random.default_rng(0)
    ad = _adapter(1, initial_scale=0.3)
    steps = np.array([ad.propose_step(rng) for _ in range(50_000)])
    assert steps.std() == pytest.approx(0.3, rel=0.02)
    ad3 = _adapter(3, initial_scale=0.2)
    steps3 = np.stack([ad3.propose_step(rng) for _ in range(20_000)])
    assert np.allclose(steps3.std(axis=0), 0.2, rtol=0.05)


def test_constant_history_collapses_to_jitter_floor():
    ad = _adapter(1)
    for i in range(1, 51):
        ad.observe(1.3, 0.44, i)
    # zero empirical variance: proposal sd is sqrt(s * jitter) with s untouched
    assert ad.step_sd == pytest.approx(2.38 * math.sqrt(1e-6), rel=1e-6)
    ad3 = _adapter(3, target=0.234)
    for i in range(1, REFRESH + 1):
        ad3.observe(np.array([0.5, -1.0, 2.0]), 0.234, i)
    s = 2.38 ** 2 / 3.0
    np.testing.assert_allclose(math.exp(ad3.log_s / 2) * ad3.chol,
                               math.sqrt(s * 1e-6) * np.eye(3), atol=1e-9)


def test_scale_is_fixed_at_target_acceptance():
    ad = _adapter(1)
    before = ad.log_s
    rng = np.random.default_rng(1)
    for i in range(1, 200):
        ad.observe(float(rng.standard_normal()), 0.44, i)
    assert ad.log_s == before


def test_scale_clamps():
    hot = _adapter(1)
    cold = _adapter(1)
    for _ in range(1000):
        hot.observe(0.0, 1.0, 11)
        cold.observe(0.0, 0.0, 11)
    assert hot.log_s == 14.0
    assert cold.log_s == -23.0


def test_running_covariance_matches_recomputed_history():
    rng = np.random.default_rng(11)
    history = rng.normal(0.0, 1.4, size=(500, 3)) @ np.diag([1.0, 0.3, 2.0])
    ad = _adapter(3)
    factors = []
    for i, t in enumerate(history, start=1):
        before = ad.chol
        ad.observe(t, float(rng.random()), i)
        if i % REFRESH or i <= ad.adapt_start:
            # between refreshes the factor stays; only the scale adapts
            assert ad.chol is before
            continue
        # at every refresh the factor is that of the recorded history's
        # covariance plus the jitter
        want = np.linalg.cholesky(np.cov(history[:i].T, ddof=1) + ADAPT_JITTER * np.eye(3))
        np.testing.assert_allclose(ad.chol, want, rtol=1e-9, atol=1e-12)
        factors.append(ad.chol)
        # a step is exp(log_s / 2) L z
        z = np.random.default_rng(i).standard_normal(3)
        np.testing.assert_array_equal(ad.propose_step(np.random.default_rng(i)),
                                      math.exp(ad.log_s / 2) * (ad.chol @ z))
    assert len(factors) == len(history) // REFRESH
    scalar = rng.normal(2.0, 0.7, 500)
    ad1 = _adapter(1)
    for i, t in enumerate(scalar, start=1):
        ad1.observe(float(t), 0.3, i)
    running1 = ad1.step_sd ** 2 / math.exp(ad1.log_s) - 1e-6
    assert running1 == pytest.approx(float(np.var(scalar, ddof=1)), abs=1e-9)


def test_two_dimensional_factor_matches_numpy_cholesky_bitwise():
    # the 2 x 2 adapter factors in closed form; it must give the bits of
    # np.linalg.cholesky on the same covariance, or chains would drift
    rng = np.random.default_rng(5)
    history = rng.normal(0.0, 1.0, size=(400, 2)) @ np.array([[0.9, 0.0], [0.6, 0.05]])
    ad = _adapter(2, target=0.234)
    for i, t in enumerate(history, start=1):
        ad.observe(tuple(t.tolist()), float(rng.random()), i)
        if ad.chol is None:
            continue
        n = ad.count
        sum_t = np.array(ad.sum_t)
        q00, q01, q11 = ad.sum_tt
        sum_tt = np.array([[q00, q01], [q01, q11]])
        xi = math.exp(ad.log_s) * ((sum_tt - np.outer(sum_t, sum_t) / n) / (n - 1)
                                   + 1e-6 * np.eye(2))
        np.testing.assert_array_equal(ad.chol, np.linalg.cholesky(xi))


# ---------------------------------------------------------------------------
# Conjugate variance machinery


def test_draw_inverse_gamma_distribution():
    rng = np.random.default_rng(99)
    draws = np.array([draw_inverse_gamma(rng, 3.0, 2.0) for _ in range(10_000)])
    assert draws.mean() == pytest.approx(1.0, rel=0.05)
    result = stats.kstest(draws, lambda x: stats.invgamma.cdf(x, a=3.0, scale=2.0))
    assert result.pvalue > 0.01


def test_conjugate_sigma_eps_draws_match_closed_form(small_plate, small_grid,
                                                     small_spline):
    # with y == p bitwise the residual sum is zero, so the Gibbs draws are
    # iid from the prior-plus-count posterior IG(1 + N/2, 1)
    p0, delta = surfaces(initial_state(small_grid, small_spline)[None],
                         SurfaceDesign.on_grid(small_grid, small_spline))
    p = (p0 + delta)[0]
    plate = replace(small_plate,
                    viability=np.repeat(p[:, :, None], 2, axis=2))
    priors = PriorSpec(variance_prior=InverseGammaPrior(1.0, 1.0))
    config = ChainConfig(n_iter=10_000, burn_in=0, thin=1, seed=5)
    chain = run_chain(plate, priors=priors, config=config,
                      update_blocks=("sigma2_eps",))
    draws = chain.scalar_series("sigma2_eps")
    assert draws.shape == (10_000,)
    a = 1.0 + plate.n_obs / 2.0
    result = stats.kstest(draws, lambda x: stats.invgamma.cdf(x, a=a, scale=1.0))
    assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# Chain bookkeeping


def test_chain_bookkeeping_shapes(small_plate):
    chain = run_chain(small_plate, config=TINY)
    assert len(chain) == 10
    [(rows, p0, delta, ld)] = chain.blocks()
    np.testing.assert_array_equal(rows, chain.draws)
    assert p0.shape == delta.shape == (10, 5, 4)
    assert ld.shape == (10, 40)
    assert chain.scalar_series("m1").shape == (10,)
    assert chain.draws.shape == (10, len(DRAW_SCALARS) + 36)
    np.testing.assert_array_equal(chain.chain, np.zeros(10))
    assert chain.data is small_plate
    assert set(chain.accept_rates) == set(chain.accept_rates_after_burn_in) == {0}
    assert set(chain.accept_rates_after_burn_in[0]) == set(chain.accept_rates[0])
    with pytest.raises(ValidationError):
        chain.scalar_series("not_a_parameter")


def test_chain_is_deterministic(small_plate):
    a = run_chain(small_plate, config=TINY)
    b = run_chain(small_plate, config=TINY)
    for name in ("m1", "lambda2", "gamma1", "sigma2_eps", "sigma2_m1"):
        np.testing.assert_array_equal(a.scalar_series(name), b.scalar_series(name))
    np.testing.assert_array_equal(a.draws, b.draws)
    assert a.accept_rates == b.accept_rates
    assert a.accept_rates_after_burn_in == b.accept_rates_after_burn_in


def test_chain_index_changes_the_stream(small_plate):
    a = run_chain(small_plate, config=TINY, chain_index=0)
    b = run_chain(small_plate, config=TINY, chain_index=1)
    assert np.abs(a.scalar_series("m1") - b.scalar_series("m1")).max() > 0.0
    np.testing.assert_array_equal(b.chain, np.ones(len(b)))
    assert set(b.accept_rates) == set(b.accept_rates_after_burn_in) == {1}


def test_retained_states_respect_constraints(small_chain):
    for name in POSITIVE_SCALARS:
        assert (small_chain.scalar_series(name) > 0.0).all()
    assert np.isfinite(small_chain.draws).all()
    for _, p0, delta, _ in small_chain.blocks():
        assert (p0 + delta > 0.0).all()
        assert (p0 + delta < 1.0).all()


def test_acceptance_rates_reported_per_block(small_chain):
    for rates in (small_chain.accept_rates[0], small_chain.accept_rates_after_burn_in[0]):
        assert set(rates) == set(BLOCK_NAMES)
        assert all(0.0 <= r <= 1.0 for r in rates.values())


def test_acceptance_after_burn_in_counts_moves_of_retained_draws(small_plate):
    # at thin 1 every accepted m1 proposal after the first retained iteration
    # shows as a change between consecutive retained draws
    config = ChainConfig(n_iter=600, burn_in=300, thin=1, adapt_start=100, seed=2)
    chain = run_chain(small_plate, config=config, update_blocks=("m1",))
    m1 = chain.scalar_series("m1")
    moved = float(np.mean(m1[1:] != m1[:-1]))
    rate = chain.accept_rates_after_burn_in[0]["m1"]
    assert abs(rate - moved) <= 1.0 / len(chain)
    assert rate != chain.accept_rates[0]["m1"]


def test_ig_prior_switches_variance_blocks_to_gibbs(small_plate):
    priors = PriorSpec(variance_prior=InverseGammaPrior(3.0, 2.0))
    chain = run_chain(small_plate, priors=priors, config=TINY)
    assert "sigma2_eps" not in chain.accept_rates[0]
    assert "m1" in chain.accept_rates[0]
    assert (chain.scalar_series("sigma2_eps") > 0.0).all()


def test_prior_only_chain_runs(small_plate):
    chain = run_chain(small_plate, config=TINY, prior_only=True)
    assert chain.data is None
    [(_, p0, _, ld)] = chain.blocks()
    assert p0.shape == (10, 5, 4)
    assert ld.shape == (10, 0)
    assert np.isfinite(chain.scalar_series("m1")).all()
    assert (chain.scalar_series("lambda1") > 0.0).all()


def test_prior_only_chain_leaves_the_grid_alone(small_plate, small_spline):
    # nothing on the grid enters a prior-only chain's acceptance ratios, so
    # its sweeps never move the predictor B: without the design it draws the same
    def run(design_kept):
        sampler = _Sampler(small_plate, PriorSpec(), small_spline, TINY, "log10", None,
                           True, None, 0)
        if not design_kept:
            sampler.design = None
        return sampler.run()

    untouched, without_design = run(True), run(False)
    np.testing.assert_array_equal(without_design.draws, untouched.draws)
    assert without_design.accept_rates == untouched.accept_rates


def test_overflowing_proposals_are_rejected_not_fatal(small_plate, monkeypatch):
    # steps of sd 800 on the log scale routinely cross exp's overflow point;
    # they must come back as rejections, not OverflowError
    for name in ("b", "lambda1", "sigma2_eps", "sigma2_m1"):
        monkeypatch.setitem(DEFAULT_PROPOSAL_SCALES, name, 800.0)
    wild = ChainConfig(n_iter=300, burn_in=100, thin=1, adapt_start=10_000, seed=0)
    chain = run_chain(small_plate, config=wild, prior_only=True)
    assert (chain.scalar_series("lambda1") > 0.0).all()
    assert np.isfinite(chain.scalar_series("sigma2_eps")).all()
    assert np.isfinite(chain.scalar_series("sigma2_m1")).all()
    assert chain.accept_rates[0]["b"] < 0.5


def test_update_blocks_validation(small_plate):
    with pytest.raises(ValidationError):
        run_chain(small_plate, config=TINY, update_blocks=("m1", "nope"))
    with pytest.raises(ValidationError):
        run_chain(small_plate, config=TINY, update_blocks=())


def test_frozen_blocks_stay_at_start(small_plate, small_grid, small_spline):
    chain = run_chain(small_plate, config=TINY, update_blocks=("m1", "lambda1"))
    start = initial_state(small_grid, small_spline)
    np.testing.assert_array_equal(chain.scalar_series("m2"),
                                  np.full(10, start[COLUMN["m2"]]))
    np.testing.assert_array_equal(chain.scalar_series("gamma0"), np.zeros(10))
    assert np.abs(chain.scalar_series("m1") - start[COLUMN["m1"]]).max() > 0.0


@pytest.mark.parametrize("column, value, prior_only, term", [
    (COLUMN["sigma2_eps"], 1e-320, False, "log likelihood"),
    # the link clamps B, so only the prior term overflows
    (COLUMN["gamma0"], 1e200, False, "gamma0\\^2 / sigma2_gamma0"),
    (N_SCALARS + 3, 1e200, False, "C prior quadratic form"),
    (N_SCALARS + 3, 1e200, True, "C prior quadratic form"),
    # gamma0 = 0 keeps gamma0^2 / sigma2_gamma0 finite; the half-Cauchy walk
    # would never move from 1 / sigma2_gamma0 = inf
    (COLUMN["sigma2_gamma0"], 1e-320, False, "1 / sigma2_gamma0"),
], ids=("sigma2_eps", "gamma0", "C", "C_prior_only", "sigma2_gamma0"))
def test_initialization_error_on_degenerate_start(small_plate, small_grid, small_spline,
                                                  column, value, prior_only, term):
    bad = initial_state(small_grid, small_spline)
    bad[column] = value
    with pytest.raises(InitializationError, match=f"non-finite {term} at the starting row"):
        run_chain(small_plate, config=TINY, initial=bad, prior_only=prior_only)


def test_inverse_gamma_chain_starts_from_a_subnormal_variance(small_plate, small_grid,
                                                               small_spline):
    start = initial_state(small_grid, small_spline)
    start[COLUMN["sigma2_gamma0"]] = 1e-320
    # the first conjugate draw replaces the variance
    priors = PriorSpec(variance_prior=InverseGammaPrior(3.0, 2.0))
    chain = run_chain(small_plate, priors=priors, config=TINY, initial=start)
    assert chain.scalar_series("sigma2_gamma0").min() > 1e-3


def test_initial_row_is_checked_before_any_sweep(small_plate, small_grid, small_spline,
                                                 monkeypatch):
    monkeypatch.setattr(_Sampler, "run", lambda self: pytest.fail("the chain swept"))
    start = initial_state(small_grid, small_spline)
    # each bad row, keyed by what its error message names
    bad_rows = {"entries": start[:-1]}
    for name, column, value in (("m1", COLUMN["m1"], math.nan), ("b1", COLUMN["b1"], 0.0),
                                ("sigma2_gamma1", COLUMN["sigma2_gamma1"], -1.0),
                                ("C entry 5", N_SCALARS + 5, math.inf)):
        bad_rows[name] = start.copy()
        bad_rows[name][column] = value
    for what, row in bad_rows.items():
        with pytest.raises(ValidationError, match=what):
            run_chain(small_plate, config=TINY, initial=row)


def test_explicit_default_start_keeps_the_stream(small_plate, small_grid, small_spline):
    default = run_chain(small_plate, config=TINY)
    explicit = run_chain(small_plate, config=TINY,
                         initial=initial_state(small_grid, small_spline))
    np.testing.assert_array_equal(explicit.draws, default.draws)
    assert explicit.accept_rates == default.accept_rates


def _walked(name, row, x):
    """row with block name at x on the scale its random walk moves, and the
    log Jacobian of that walk at x: m, gamma and C walk on their own values,
    lambda and b on log values, a half-Cauchy variance on log sigma."""
    row = row.copy()
    if name == "C":
        row[N_SCALARS:] = x
        return row, 0.0
    x = np.atleast_1d(x)
    columns = [COLUMN["b1"], COLUMN["b2"]] if name == "b" else [COLUMN[name]]
    if name[0] in "mg":
        row[columns] = x
        return row, 0.0
    row[columns] = np.exp(2.0 * x) if name.startswith("sigma2_") else np.exp(x)
    return row, float(x.sum())


def _log_prior(rows, priors, spline):
    """Log prior density of each row, up to a constant, from scipy.stats: the
    half-Cauchy is a density on sigma, the Inverse-Gamma on the variance, and
    C's is -0.5 c'Pc with P = kron(P1, P2), P_k = D'D + ridge I, D the second
    differences, on C raveled row-major."""
    def col(name):
        return rows[:, COLUMN[name]]

    total = sum(stats.norm.logpdf(col(phi), scale=np.sqrt(col("sigma2_" + phi)))
                for phi in ("m1", "m2", "gamma0", "gamma1", "gamma2"))
    for name in ("lambda1", "lambda2", "b1", "b2"):
        prior = getattr(priors, name)
        total += stats.gamma.logpdf(col(name), a=prior.shape, scale=1.0 / prior.rate)
    vp = priors.variance_prior
    for name in VARIANCES:
        if isinstance(vp, HalfCauchyPrior):
            total += stats.halfcauchy.logpdf(np.sqrt(col(name)), scale=vp.scale)
        else:
            total += stats.invgamma.logpdf(col(name), a=vp.shape, scale=vp.rate)

    def precision(k):
        d = np.diff(np.eye(k), 2, axis=0)
        return d.T @ d + spline.penalty_ridge * np.eye(k)
    c = rows[:, N_SCALARS:]
    quad = np.einsum("ni,ij,nj->n", c, np.kron(precision(spline.k1), precision(spline.k2)), c)
    return total - 0.5 * quad


@pytest.mark.parametrize("variance_prior", [HalfCauchyPrior(1.0), InverseGammaPrior(3.0, 2.0)],
                         ids=("half_cauchy", "inverse_gamma"))
def test_log_acceptance_ratio_is_the_log_posterior_difference(small_plate, small_grid,
                                                              small_spline, variance_prior,
                                                              monkeypatch):
    # every Metropolis decision's log_a is the log posterior at the candidate
    # minus that at the current row, plus the difference of the walk's log
    # Jacobian; the log posterior is the oracle's surfaces' summed observation
    # log densities plus _log_prior's scipy.stats densities
    records, metropolis = [], _Sampler._metropolis

    def recorded(self, name, moved=()):
        step = metropolis(self, name, moved)

        def recording(log_a, t, tc, iteration):
            records.append((name, log_a, t, tc, np.concatenate((self.theta, self.c))))
            return step(log_a, t, tc, iteration)
        return recording

    monkeypatch.setattr(_Sampler, "_metropolis", recorded)
    priors = PriorSpec(variance_prior=variance_prior)
    config = ChainConfig(n_iter=200, burn_in=100, thin=10, adapt_start=50, seed=4)
    run_chain(small_plate, priors=priors, spline=small_spline, config=config)
    records = [record for record in records if math.isfinite(record[1])]
    walked = [(_walked(name, row, t), _walked(name, row, tc), row)
              for name, _, t, tc, row in records]
    current = np.array([row for (row, _), _, _ in walked])
    candidate = np.array([row for _, (row, _), _ in walked])
    np.testing.assert_allclose(current, [row for _, _, row in walked], rtol=1e-15, atol=0.0)

    oracle_plate = SimpleNamespace(logc1=small_grid.logc1, logc2=small_grid.logc2,
                                   mask=small_grid.border_mask())
    layout = reference.Layout(oracle_plate, small_spline.k1, small_spline.k2,
                              small_spline.degree)

    def log_posterior(rows):
        p0, delta = layout.surfaces({name: rows[:, COLUMN[name]] for name in DRAW_SCALARS},
                                    rows[:, N_SCALARS:].reshape(-1, small_spline.k1,
                                                                small_spline.k2))
        s2 = rows[:, COLUMN["sigma2_eps"], None, None, None]
        resid = small_plate.viability - (p0 + delta)[..., None]
        densities = -0.5 * np.log(2.0 * math.pi * s2) - resid * resid / (2.0 * s2)
        return densities.sum(axis=(1, 2, 3)) + _log_prior(rows, priors, small_spline)

    jacobian = np.array([cand_j - cur_j for (_, cur_j), (_, cand_j), _ in walked])
    want = log_posterior(candidate) - log_posterior(current) + jacobian
    np.testing.assert_allclose([record[1] for record in records], want, rtol=1e-9, atol=1e-8)
    # under the Inverse-Gamma prior the variances are exact draws, not walks
    walks = BLOCK_NAMES if isinstance(variance_prior, HalfCauchyPrior) else BLOCK_NAMES[:9]
    assert {record[0] for record in records} == set(walks)


# ---------------------------------------------------------------------------
# Reconstruction and multi-chain helpers


# the plate and grid fixtures are only read, so hypothesis may share them
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k1=st.integers(4, 8), k2=st.integers(4, 8), degree=st.integers(1, 3),
       linear_scale=st.sampled_from(LINEAR_SCALES), scale=st.sampled_from((1.0, 3e3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kronecker_designs_match_the_factored_products(small_plate, small_grid, k1, k2, degree,
                                                       linear_scale, scale, seed):
    # the sampler moves B and prices the C prior through kron(basis1, basis2)
    # and kron(prec1, prec2) acting on C raveled row-major
    grid = small_grid
    spline = SplineSpec.for_grid(grid, k1=k1, k2=k2, degree=degree)
    sampler = _Sampler(small_plate, PriorSpec(), spline, TINY, linear_scale, None, False, None,
                       0)
    basis1 = basis_matrix(grid.logc1, spline.knots1, degree)
    basis2 = basis_matrix(grid.logc2, spline.knots2, degree)
    prec1 = penalty_precision(k1, spline.penalty_ridge)
    prec2 = penalty_precision(k2, spline.penalty_ridge)
    C = scale * np.random.default_rng(seed).standard_normal((k1, k2))
    moved = (sampler.design @ C.ravel()).reshape(grid.shape)
    want = basis1 @ C @ basis2.T
    assert np.abs(moved - want).max() <= 1e-12 * np.abs(want).max()
    quad = C.ravel() @ sampler.precision @ C.ravel()
    assert quad == pytest.approx(np.sum(prec2 * (C.T @ prec1 @ C)), rel=1e-12, abs=0.0)


def test_sampler_surfaces_match_the_kernel(small_plate, small_grid, small_spline):
    # summaries derive p0 and Delta from the draws through model.surfaces;
    # the sampler's incrementally updated surfaces must be the same function
    # of its state. TINY retains the final iteration as its last draw.
    for linear_scale in LINEAR_SCALES:
        sampler = _Sampler(small_plate, PriorSpec(), small_spline, TINY, linear_scale,
                           None, False, None, 0)
        last = sampler.run().draws[-1:]
        design = SurfaceDesign.on_grid(small_grid, small_spline, linear_scale)
        p0, delta = surfaces(last, design)
        assert np.abs(delta).max() > 1e-3
        _, _, sampler_p0, numerators, _, _, denominators = sampler.parts
        np.testing.assert_allclose(sampler_p0[0], p0[0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(link_delta(numerators, denominators), delta[0],
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("variance_prior, linear_scale, blocks", [
    (HalfCauchyPrior(1.0), "log10", None),
    (InverseGammaPrior(3.0, 2.0), "log10", None),
    (HalfCauchyPrior(1.0), "natural", None),
    (HalfCauchyPrior(1.0), "log10", ("C", "gamma1")),
], ids=("half_cauchy", "inverse_gamma", "natural", "C_and_gamma1"))
def test_proposal_buffers_never_alias_the_kept_state(small_plate, small_grid, small_spline,
                                                     variance_prior, linear_scale, blocks,
                                                     monkeypatch):
    # a proposal is written into spare arrays that trade places with the
    # parts it moves on acceptance. Before every Metropolis step (with the
    # proposal already in the spares) and after the run, each part and ss
    # equal a rebuild at the current row, bit for bit; B, which the sampler
    # moves by increments, equals a from-scratch B to rounding. A rejection
    # leaves the parts, the very arrays, and ss as they were. Every part is
    # on the pair layout: the two planes of f1, f2, p0 and B are equal, and
    # the slopes hold b1 on every cell of the first and -b2 of the second.
    design = SurfaceDesign.on_grid(small_grid, small_spline, linear_scale)
    y = small_plate.viability
    shape = (2, *small_grid.shape)

    def check(sampler):
        th = dict(zip(DRAW_SCALARS, sampler.theta))
        for index in (0, 1, 2, 4):
            first, second = sampler.parts[index]
            assert first.tobytes() == second.tobytes()
        slopes = sampler.parts[5]
        assert np.all(slopes[0] == th["b1"]) and np.all(slopes[1] == -th["b2"])
        bpred = sampler.parts[4][0]
        f1 = curve_values(small_grid.logc1, th["m1"], th["lambda1"])
        f2 = curve_values(small_grid.logc2, th["m2"], th["lambda2"])
        p0 = f1[:, None] * f2
        numerators = link_numerators(p0, small_grid.border_mask())
        slopes = np.array((th["b1"], -th["b2"])).reshape(2, 1, 1)
        rebuilt = [np.broadcast_to(part, shape) for part in
                   (f1[:, None], f2, p0, numerators, bpred, slopes,
                    link_denominators(bpred, slopes))]
        assert len(sampler.parts) == len(rebuilt)
        for got, want in zip(sampler.parts, rebuilt):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        p = p0 + link_delta(numerators, rebuilt[-1])
        assert sampler.ss == (small_plate.n_rep * float(np.vdot(p, p))
                              - 2.0 * float(np.vdot(p, y.sum(axis=2))) + float(np.vdot(y, y)))
        row = np.concatenate((sampler.theta, sampler.c))[None]
        fresh = design.lift1 @ design.coefficients(row)[0] @ design.lift2.T
        np.testing.assert_allclose(bpred, fresh, rtol=0.0,
                                   atol=1e-12 * max(1.0, np.abs(fresh).max()))

    outcomes, metropolis = {}, _Sampler._metropolis

    def checked(self, name, moved=()):
        step = metropolis(self, name, moved)

        def checked_step(log_a, t, tc, iteration):
            check(self)
            arrays, values, ss = list(self.parts), [a.copy() for a in self.parts], self.ss
            ok = step(log_a, t, tc, iteration)
            outcomes.setdefault(name, set()).add(ok)
            if not ok:
                assert self.ss == ss
                for part, array, value in zip(self.parts, arrays, values):
                    assert part is array and part.tobytes() == value.tobytes()
            return ok
        return checked_step

    monkeypatch.setattr(_Sampler, "_metropolis", checked)
    priors = PriorSpec(variance_prior=variance_prior)
    config = ChainConfig(n_iter=300, burn_in=150, thin=10, adapt_start=50, seed=8)
    sampler = _Sampler(small_plate, priors, small_spline, config, linear_scale, blocks, False,
                       None, 0)
    sampler.run()
    check(sampler)
    # every block that moves the grid was both accepted and rejected
    grid_blocks = set(BLOCK_NAMES[:9] if blocks is None else blocks)
    assert all(outcomes[name] == {True, False} for name in grid_blocks)


def _stored(chain, draws, index):
    """A Posterior of stored draws on chain's plate and layout."""
    return Posterior(draws=draws, chain=index, grid=chain.grid, spline=chain.spline,
                     linear_scale=chain.linear_scale, data=chain.data)


def test_posterior_holds_the_stored_draws(small_chain):
    rebuilt = _stored(small_chain, small_chain.draws, small_chain.chain)
    assert len(rebuilt) == len(small_chain)
    assert rebuilt.accept_rates == rebuilt.accept_rates_after_burn_in == {}
    for got, want in zip(rebuilt.blocks(), small_chain.blocks()):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    n = len(small_chain)
    for draws, index, what in ((small_chain.draws[:0], small_chain.chain[:0], "at least one"),
                               (small_chain.draws, small_chain.chain[1:], "one index"),
                               (small_chain.draws, np.arange(n)[::-1], "not decrease")):
        with pytest.raises(ValidationError, match=what):
            _stored(small_chain, draws, index)


def test_row_blocks_stay_within_one_chain(small_chain):
    # chains of 130, 1 and 5 rows: no block holds rows of two chains
    index = np.repeat([0, 2, 3], [130, 1, 5])
    draws = np.resize(small_chain.draws, (len(index), small_chain.draws.shape[1]))
    blocks = list(_stored(small_chain, draws, index).row_blocks())
    assert [len(rows) for rows in blocks] == [_REBUILD_BLOCK, 130 - _REBUILD_BLOCK, 1, 5]
    np.testing.assert_array_equal(np.concatenate(blocks), draws)


def test_run_chains_indexes_streams(small_plate):
    posterior = run_chains(small_plate, 2, config=TINY)
    np.testing.assert_array_equal(posterior.chain, np.repeat([0, 1], TINY.n_retained))
    for i in (0, 1):
        single = run_chain(small_plate, config=TINY, chain_index=i)
        np.testing.assert_array_equal(posterior.draws[posterior.chain == i], single.draws)
        assert posterior.accept_rates[i] == single.accept_rates[i]
        assert posterior.accept_rates_after_burn_in[i] == single.accept_rates_after_burn_in[i]
    with pytest.raises(ValidationError):
        run_chains(small_plate, 0, config=TINY)
