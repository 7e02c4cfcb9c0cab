import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from combofit import (AdaptiveState, ChainConfig, InitializationError,
                      InverseGammaPrior, PriorSpec, ValidationError,
                      chain_from_draws, initial_state, run_chain, run_chains,
                      variance_posterior_params)
from combofit.mcmc import BLOCK_NAMES, _Sampler, draw_inverse_gamma
from combofit.model import (DRAW_SCALARS, LINEAR_SCALES, POSITIVE_SCALARS, SurfaceDesign,
                            mean_surface, surfaces)

TINY = ChainConfig(n_iter=100, burn_in=50, thin=5, seed=3)


# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults_and_retention():
    config = ChainConfig()
    assert config.burn_in == 50_000
    assert config.n_retained == 5_000
    assert TINY.n_retained == 10
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
    with pytest.raises(ValidationError):
        ChainConfig(proposal_scales={"m1": 0.1, "bogus": 0.2})
    with pytest.raises(ValidationError):
        ChainConfig(proposal_scales={"m1": -0.1})


# ---------------------------------------------------------------------------
# Proposal adaptation


def _adapter(dim, **kwargs):
    defaults = dict(initial_scale=0.5, target=0.44, adapt_start=10)
    defaults.update(kwargs)
    return AdaptiveState(dim=dim, **defaults)


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
    for i in range(1, 51):
        ad3.observe(np.array([0.5, -1.0, 2.0]), 0.234, i)
    s = 2.38 ** 2 / 3.0
    np.testing.assert_allclose(ad3.chol, math.sqrt(s * 1e-6) * np.eye(3),
                               atol=1e-9)


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
    for i, t in enumerate(history, start=1):
        ad.observe(t, 0.3, i)
    # the proposal covariance is exp(log_s) * (running covariance + jitter I)
    running = ad.chol @ ad.chol.T / math.exp(ad.log_s) - 1e-6 * np.eye(3)
    np.testing.assert_allclose(running, np.cov(history.T, ddof=1), atol=1e-9)
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


def test_variance_posterior_params_single_observation():
    shape, rate = variance_posterior_params(InverseGammaPrior(1.0, 1.0), 0.0, 1.0)
    assert shape == 1.5
    assert rate == 1.0


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
    state = initial_state(small_grid, small_spline)
    p = mean_surface(small_grid, state, small_spline).values
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
    assert chain.coefficient_series().shape == (10, 6, 6)
    assert chain.draws.shape == (10, len(DRAW_SCALARS) + 36)
    np.testing.assert_array_equal(chain.coefficient_series()[3].ravel(),
                                  chain.draws[3, len(DRAW_SCALARS):])
    assert chain.chain_index == 0
    assert chain.data is small_plate
    assert set(chain.accept_rates_after_burn_in) == set(chain.accept_rates)
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


def test_retained_states_respect_constraints(small_chain):
    for name in POSITIVE_SCALARS:
        assert (small_chain.scalar_series(name) > 0.0).all()
    assert np.isfinite(small_chain.draws).all()
    for _, p0, delta, _ in small_chain.blocks():
        assert (p0 + delta > 0.0).all()
        assert (p0 + delta < 1.0).all()


def test_acceptance_rates_reported_per_block(small_chain):
    for rates in (small_chain.accept_rates, small_chain.accept_rates_after_burn_in):
        assert set(rates) == set(BLOCK_NAMES)
        assert all(0.0 <= r <= 1.0 for r in rates.values())


def test_acceptance_after_burn_in_counts_moves_of_retained_draws(small_plate):
    # at thin 1 every accepted m1 proposal after the first retained iteration
    # shows as a change between consecutive retained draws
    config = ChainConfig(n_iter=600, burn_in=300, thin=1, adapt_start=100, seed=2)
    chain = run_chain(small_plate, config=config, update_blocks=("m1",))
    m1 = chain.scalar_series("m1")
    moved = float(np.mean(m1[1:] != m1[:-1]))
    rate = chain.accept_rates_after_burn_in["m1"]
    assert abs(rate - moved) <= 1.0 / len(chain)
    assert rate != chain.accept_rates["m1"]


def test_ig_prior_switches_variance_blocks_to_gibbs(small_plate):
    priors = PriorSpec(variance_prior=InverseGammaPrior(3.0, 2.0))
    chain = run_chain(small_plate, priors=priors, config=TINY)
    assert "sigma2_eps" not in chain.accept_rates
    assert "m1" in chain.accept_rates
    assert (chain.scalar_series("sigma2_eps") > 0.0).all()


def test_prior_only_chain_runs(small_plate):
    chain = run_chain(small_plate, config=TINY, prior_only=True)
    assert chain.data is None
    [(_, p0, _, ld)] = chain.blocks()
    assert p0.shape == (10, 5, 4)
    assert ld.shape == (10, 0)
    assert np.isfinite(chain.scalar_series("m1")).all()
    assert (chain.scalar_series("lambda1") > 0.0).all()


def test_overflowing_proposals_are_rejected_not_fatal(small_plate):
    # steps of sd 800 on the log scale routinely cross exp's overflow point;
    # they must come back as rejections, not OverflowError
    wild = ChainConfig(n_iter=300, burn_in=100, thin=1, adapt_start=10_000,
                       seed=0, proposal_scales={"b": 800.0, "lambda1": 800.0,
                                                "sigma2_eps": 800.0, "sigma2_m1": 800.0})
    chain = run_chain(small_plate, config=wild, prior_only=True)
    assert (chain.scalar_series("lambda1") > 0.0).all()
    assert np.isfinite(chain.scalar_series("sigma2_eps")).all()
    assert np.isfinite(chain.scalar_series("sigma2_m1")).all()
    assert chain.accept_rates["b"] < 0.5


def test_update_blocks_validation(small_plate):
    with pytest.raises(ValidationError):
        run_chain(small_plate, config=TINY, update_blocks=("m1", "nope"))
    with pytest.raises(ValidationError):
        run_chain(small_plate, config=TINY, update_blocks=())


def test_frozen_blocks_stay_at_start(small_plate, small_grid, small_spline):
    chain = run_chain(small_plate, config=TINY, update_blocks=("m1", "lambda1"))
    start = initial_state(small_grid, small_spline)
    np.testing.assert_array_equal(chain.scalar_series("m2"),
                                  np.full(10, start.m2))
    np.testing.assert_array_equal(chain.scalar_series("gamma0"), np.zeros(10))
    assert np.abs(chain.scalar_series("m1") - start.m1).max() > 0.0


def test_initialization_error_on_degenerate_start(small_plate, small_grid,
                                                  small_spline):
    bad = replace(initial_state(small_grid, small_spline), sigma2_eps=1e-320)
    with pytest.raises(InitializationError):
        run_chain(small_plate, config=TINY, initial=bad)


# ---------------------------------------------------------------------------
# Reconstruction and multi-chain helpers


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
        np.testing.assert_allclose(sampler.p0_parts[0], p0[0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sampler.delta, delta[0], rtol=0.0, atol=1e-12)


def test_chain_from_draws_holds_the_stored_draws(small_plate, small_chain):
    rebuilt = chain_from_draws(small_plate, small_chain.draws)
    assert len(rebuilt) == len(small_chain)
    assert rebuilt.accept_rates == rebuilt.accept_rates_after_burn_in == {}
    for got, want in zip(rebuilt.blocks(), small_chain.blocks()):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    with pytest.raises(ValidationError):
        chain_from_draws(small_plate, small_chain.draws[:0])


def test_run_chains_indexes_streams(small_plate):
    chains = run_chains(small_plate, 2, config=TINY)
    assert [c.chain_index for c in chains] == [0, 1]
    single = run_chain(small_plate, config=TINY, chain_index=1)
    np.testing.assert_array_equal(chains[1].scalar_series("m1"),
                                  single.scalar_series("m1"))
    with pytest.raises(ValidationError):
        run_chains(small_plate, 0, config=TINY)
