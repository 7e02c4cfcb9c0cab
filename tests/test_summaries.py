import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from combofit import (ChainConfig, LpmlStream, SimScenario, SurfaceGrid, ValidationError,
                      bi_ec50, combination_columns, curve_values, dss_scores,
                      fine_mean_surface, mean_heights, mse_surface, reference_grid,
                      run_chain, sample_plate, summarize_chains)
from combofit.summaries import _quantile_stats, _rvus_scores


def _stacked_blocks(chain):
    """p0, Delta and observation log densities of every draw of chain."""
    return [np.concatenate(parts) for parts in list(zip(*chain.blocks()))[1:]]


def _lpml(log_densities):
    """The LPML of a (samples, observations) log-density matrix."""
    stream = LpmlStream()
    stream.add(log_densities)
    return stream.value()


def _surface(values, axis1=None, axis2=None):
    values = np.asarray(values, dtype=float)
    if axis1 is None:
        axis1 = np.arange(values.shape[0], dtype=float)
    if axis2 is None:
        axis2 = np.arange(values.shape[1], dtype=float)
    return SurfaceGrid(values=values, axis1=np.asarray(axis1, float),
                       axis2=np.asarray(axis2, float))


# ---------------------------------------------------------------------------
# DSS


def test_dss_inactive_drug_scores_zero():
    # EC50 ten decades past the window: activity never crosses the threshold
    assert dss_scores(15.0, 1.0, -4.0, 5.0, 0.1) == 0.0


def test_dss_fully_active_drug_scores_near_100():
    score = dss_scores(-14.0, 1.0, -4.0, 5.0, 0.1)
    assert 99.99 < score <= 100.0


def test_dss_ordering_of_reference_fits():
    d1 = dss_scores(0.0, 0.33, -4.0, 5.0, 0.1)
    d2 = dss_scores(4.96, 0.31, -3.5, 5.5, 0.1)
    assert d1 > d2
    assert d1 > 40.0
    assert d2 < 10.0


def test_dss_matches_closed_form_integral():
    m, lam, t = 0.7, 1.3, 0.1
    lo, hi = -3.0, 4.0

    def antideriv(x):
        # integral of activity 1 - f: x + log10(1 + 10^(-lam (x - m))) / lam
        return x + math.log10(1.0 + 10.0 ** (-lam * (x - m))) / lam

    x_t = m + math.log10(t / (1.0 - t)) / lam
    x_t = min(max(x_t, lo), hi)
    auc = antideriv(hi) - antideriv(x_t)
    width = hi - lo
    expected = 100.0 * max(0.0, auc - t * width) / ((1.0 - t) * width)
    assert dss_scores(m, lam, lo, hi, t) == pytest.approx(expected, abs=1e-12)
    x = np.linspace(x_t, hi, 200_001)
    trapezoid = float(np.trapezoid(1.0 - curve_values(x, m, lam), x))
    quadrature = 100.0 * max(0.0, trapezoid - t * width) / ((1.0 - t) * width)
    assert dss_scores(m, lam, lo, hi, t) == pytest.approx(quadrature, abs=1e-8)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(0.02, 8.0)),
                min_size=1, max_size=6),
       st.floats(0.01, 0.99))
def test_dss_scores_match_scalar_dss(curves, threshold):
    m, lam = np.array(curves).T
    scores = dss_scores(m, lam, -3.0, 4.0, threshold)
    expected = [dss_scores(mi, li, -3.0, 4.0, threshold) for mi, li in curves]
    np.testing.assert_allclose(scores, expected, rtol=1e-14, atol=1e-12)


def test_dss_shift_invariance():
    base = dss_scores(0.4, 0.9, -3.0, 4.0, 0.1)
    shifted = dss_scores(0.4 + 2.5, 0.9, -0.5, 6.5, 0.1)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_dss_monotone_in_potency():
    scores = [float(dss_scores(m, 1.0, -4.0, 5.0, 0.1)) for m in (-1.0, 0.0, 1.0, 2.0)]
    assert scores == sorted(scores, reverse=True)


# ---------------------------------------------------------------------------
# rVUS


def test_rvus_constant_surface():
    assert mean_heights(np.full((4, 5), 0.37), np.arange(4.0), np.arange(5.0)) == pytest.approx(
        0.37, abs=1e-12)


def test_rvus_zero_surface():
    assert mean_heights(np.zeros((3, 3)), np.arange(3.0), np.arange(3.0)) == 0.0


def test_rvus_bilinear_hand_value():
    unit = np.array([0.0, 1.0])
    assert mean_heights(np.array([[0.0, 1.0], [1.0, 1.0]]), unit, unit) == pytest.approx(
        0.75, abs=1e-15)


def test_rvus_uneven_axes_against_loop_oracle():
    rng = np.random.default_rng(9)
    axis1 = np.cumsum(rng.uniform(0.2, 1.0, 5))
    axis2 = np.cumsum(rng.uniform(0.2, 1.0, 6))
    values = rng.uniform(0.0, 1.0, (5, 6))
    volume = 0.0
    for i in range(4):
        for j in range(5):
            cell = 0.25 * (values[i, j] + values[i + 1, j]
                           + values[i, j + 1] + values[i + 1, j + 1])
            volume += cell * (axis1[i + 1] - axis1[i]) * (axis2[j + 1] - axis2[j])
    area = (axis1[-1] - axis1[0]) * (axis2[-1] - axis2[0])
    expected = volume / area
    assert mean_heights(values, axis1, axis2) == pytest.approx(expected, abs=1e-12)


def test_rvus_sign_decomposition():
    rng = np.random.default_rng(13)
    delta = rng.uniform(-0.4, 0.6, (7, 8))
    total, plus, minus = mean_heights(
        np.stack((np.abs(delta), np.abs(np.minimum(delta, 0.0)), np.maximum(delta, 0.0))),
        np.arange(7.0), np.arange(8.0)) / 0.8
    assert plus + minus == pytest.approx(total, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_batched_rvus_matches_scalar_rvus(n1, n2, n_surfaces, seed):
    rng = np.random.default_rng(seed)
    axis1 = np.cumsum(rng.uniform(0.1, 2.0, n1))
    axis2 = np.cumsum(rng.uniform(0.1, 2.0, n2))
    values = rng.uniform(0.0, 1.0, (n_surfaces, n1, n2))
    batched = mean_heights(values, axis1, axis2)
    for k in range(n_surfaces):
        assert batched[k] == pytest.approx(mean_heights(values[k], axis1, axis2),
                                           rel=1e-14, abs=1e-15)


def _stacked_rvus_scores(p0, delta, grid):
    """_rvus_scores as it stood before it filled one stack in place, its oracle."""
    bound = np.max(np.maximum(p0, 1.0 - p0), axis=(1, 2))
    stack = np.stack((p0, np.abs(delta), np.maximum(-delta, 0.0),
                      np.maximum(delta, 0.0), 1.0 - (p0 + delta)))
    heights = mean_heights(stack, grid.logc1, grid.logc2)
    heights[1:4] /= bound
    return heights


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_rvus_scores_equal_the_stacked_oracle(n, seed):
    # random surfaces with Delta in (-p0, 1 - p0), signed zeros on the
    # borders as the masked link leaves them, and the draws of a chain
    grid = reference_grid()
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(size=(n, *grid.shape))
    delta = rng.uniform(-p0, 1.0 - p0)
    delta[:, 0, :], delta[:, :, 0] = -0.0, 0.0
    got = _rvus_scores(p0, delta, grid)
    assert got.tobytes() == _stacked_rvus_scores(p0, delta, grid).tobytes()


def test_rvus_scores_of_a_chain_equal_the_stacked_oracle(small_chain):
    for _, p0, delta, _ in small_chain.blocks():
        assert (_rvus_scores(p0, delta, small_chain.grid).tobytes()
                == _stacked_rvus_scores(p0, delta, small_chain.grid).tobytes())


# ---------------------------------------------------------------------------
# Quantiles

_MAGNITUDE = st.floats(1e-300, 1e300)


@st.composite
def _series(draw):
    """1 to 2,000 values: a normal sample scaled by up to six decades per value,
    or draws from a few atoms (ties), signed zeros among them, of magnitudes
    from 1e-300 to 1e300. Far-apart neighbours make each interpolation's
    difference inexact, so the order of its operations shows in the bits. At
    21, 61, 101, ... values the 2.5 and 97.5 percentiles lie halfway between
    two order statistics, where numpy switches its interpolation formula."""
    n = draw(st.one_of(st.integers(1, 2000), st.integers(0, 49).map(lambda k: 40 * k + 21)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 0.0, n) * draw(_MAGNITUDE)
    atoms = draw(st.lists(st.one_of(st.sampled_from((0.0, -0.0)), _MAGNITUDE,
                                    _MAGNITUDE.map(lambda x: -x)), min_size=1, max_size=6))
    return rng.choice(np.array(atoms), size=n)


@settings(max_examples=300, deadline=None)
@given(_series())
def test_quantile_stats_have_numpys_bits(values):
    # a zero may differ in sign: of tied signed zeros numpy returns the one
    # its selection algorithm happens to put in place
    want = {"median": np.median(values), "lower95": np.percentile(values, 2.5),
            "upper95": np.percentile(values, 97.5), "mean": np.mean(values)}
    got = _quantile_stats(values)
    assert list(got) == list(want)
    for key, value in want.items():
        value = float(value)
        assert got[key].hex() == value.hex() if value else got[key] == 0.0, key


def test_quantile_stats_of_a_series_with_nan_are_nan():
    got = _quantile_stats(np.array([1.0, np.nan, 0.5]))
    assert all(math.isnan(value) for value in got.values())


# ---------------------------------------------------------------------------
# Bi-dimensional EC50


def test_bi_ec50_constant_surfaces():
    half = _surface(np.full((3, 4), 0.5))
    points = bi_ec50(half)
    assert points.shape == (12, 2)
    assert bi_ec50(_surface(np.full((3, 4), 0.9))).shape == (0, 2)


def test_bi_ec50_selects_only_near_half_cells():
    values = np.array([[0.9, 0.505], [0.492, 0.1]])
    surface = _surface(values, [0.0, 1.0], [0.0, 1.0])
    points = {tuple(row) for row in bi_ec50(surface, tolerance=0.01)}
    assert points == {(0.0, 1.0), (1.0, 0.0)}


def test_bi_ec50_tolerance_monotonicity():
    rng = np.random.default_rng(21)
    surface = _surface(rng.uniform(0.0, 1.0, (10, 10)))
    narrow = {tuple(row) for row in bi_ec50(surface, tolerance=0.02)}
    wide = {tuple(row) for row in bi_ec50(surface, tolerance=0.1)}
    assert narrow <= wide


def test_bi_ec50_rejects_negative_tolerance():
    with pytest.raises(ValidationError):
        bi_ec50(_surface(np.full((2, 2), 0.5)), tolerance=-0.1)


# ---------------------------------------------------------------------------
# LPML


def test_lpml_single_sample_is_total_log_likelihood():
    ld = np.array([[-1.2, -0.4, -2.2]])
    assert _lpml(ld) == pytest.approx(ld.sum(), abs=1e-12)


def test_lpml_hand_value():
    ld = np.array([[-1.0, -0.5], [-2.0, -3.0]])
    assert _lpml(ld) == pytest.approx(-4.005857060690881, abs=1e-12)


def test_lpml_sample_duplication_invariance():
    rng = np.random.default_rng(3)
    ld = rng.normal(-1.0, 0.5, (20, 15))
    assert _lpml(np.tile(ld, (3, 1))) == pytest.approx(_lpml(ld), abs=1e-10)


def test_lpml_penalises_inflated_variance():
    rng = np.random.default_rng(5)
    y = 0.6 + 0.05 * rng.standard_normal(50)
    good = stats.norm.logpdf(y, loc=0.6, scale=0.05)[None, :]
    bad = stats.norm.logpdf(y, loc=0.6, scale=0.5)[None, :]
    assert _lpml(good) > _lpml(bad)


def test_lpml_validation():
    with pytest.raises(ValidationError):
        _lpml(np.array([[-1.0, np.inf]]))


def _lpml_blocks(sizes, n_columns, at, drop, seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(-1.0, 2.0, (n, n_columns)) for n in sizes]
    # a later block below every column's minimum so far: the running sums
    # are rescaled
    low = np.min(np.concatenate(blocks[:at]), axis=0) - rng.uniform(0.1, drop, (2, n_columns))
    blocks.insert(min(at, len(blocks)), low)
    return blocks


_LPML_BLOCKS = st.builds(_lpml_blocks, st.lists(st.integers(1, 6), min_size=1, max_size=4),
                         st.integers(1, 8), st.integers(1, 4), st.floats(0.1, 40.0),
                         st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_LPML_BLOCKS)
def test_streamed_lpml_matches_the_stacked_matrix(blocks):
    stream = LpmlStream()
    for block in blocks:
        stream.add(block)
    stacked = np.concatenate(blocks)
    assert stream.n_samples == stacked.shape[0]
    assert stream.value() == pytest.approx(_lpml(stacked), rel=1e-12)
    oracle = np.sum(math.log(stacked.shape[0]) - special.logsumexp(-stacked, axis=0))
    assert stream.value() == pytest.approx(oracle, rel=1e-12)


class _AllocatingLpmlStream(LpmlStream):
    """LpmlStream.add as it stood before it exponentiated in place, its oracle."""

    def add(self, block):
        low = block.min(axis=0)
        if self.n_samples:
            np.minimum(low, self.low, out=low)
            self.total *= np.exp(low - self.low)
        self.total += np.exp(low - block).sum(axis=0)
        self.low = low
        self.n_samples += block.shape[0]


@settings(max_examples=60, deadline=None)
@given(_LPML_BLOCKS)
def test_streamed_lpml_has_the_allocating_streams_bytes(blocks):
    stream, oracle = LpmlStream(), _AllocatingLpmlStream()
    for block in blocks:
        stream.add(block)
        oracle.add(block)
        assert stream.total.tobytes() == oracle.total.tobytes()
        assert stream.low.tobytes() == oracle.low.tobytes()
    assert stream.value() == oracle.value()


def test_combination_columns_reference_grid():
    grid = reference_grid()
    mask = combination_columns(grid, 330)
    assert mask.shape == (330,)
    assert mask.sum() == 270
    expected = np.repeat(grid.border_mask().ravel() > 0.0, 3)
    np.testing.assert_array_equal(mask, expected)
    with pytest.raises(ValidationError):
        combination_columns(grid, 331)


# ---------------------------------------------------------------------------
# MSE


def test_mse_surface_basics():
    a = np.full((4, 5), 0.3)
    assert mse_surface(a, a) == 0.0
    assert mse_surface(a + 0.02, a) == pytest.approx(0.0004, abs=1e-15)


def test_mse_surface_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, (6, 5))
    b = rng.uniform(0.0, 1.0, (6, 5))
    total = 0.0
    for i in range(6):
        for j in range(5):
            total += (a[i, j] - b[i, j]) ** 2
    assert mse_surface(_surface(a), b) == pytest.approx(total / 30.0, abs=1e-14)


def test_mse_surface_shape_mismatch():
    with pytest.raises(ValidationError):
        mse_surface(np.zeros((3, 3)), np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# Posterior aggregation


def test_fine_mean_surface_shape_and_range(small_chain):
    fine = fine_mean_surface(small_chain, n_points=30)
    assert fine.values.shape == (30, 30)
    grid = small_chain.grid
    assert fine.axis1[0] == grid.logc1[1] and fine.axis1[-1] == grid.logc1[-1]
    assert fine.axis2[0] == grid.logc2[1] and fine.axis2[-1] == grid.logc2[-1]
    assert (fine.values > 0.0).all()
    assert (fine.values < 1.0).all()


def test_summarize_chains_report(small_chain):
    report = summarize_chains(small_chain, fine_points=25)
    assert report.n_samples == len(small_chain)
    for block in (report.dss["drug1"], report.dss["drug2"],
                  *report.rvus.values()):
        assert block["lower95"] <= block["median"] <= block["upper95"]
    assert set(report.rvus) == {"p0", "abs_delta", "delta_plus", "delta_minus",
                                "one_minus_p"}
    for key in ("p0", "one_minus_p"):
        assert -1e-9 <= report.rvus[key]["median"] <= 1.0 + 1e-9
    assert report.interaction_labels == {"delta_plus": "synergistic",
                                         "delta_minus": "antagonistic"}
    assert report.bi_ec50_points.ndim == 2 and report.bi_ec50_points.shape[1] == 2
    assert set(report.posterior_mean) == {"p0", "delta", "p"}
    assert "0" in report.acceptance


def test_summarize_chains_lpml_uses_combination_cells(small_chain):
    report = summarize_chains(small_chain, fine_points=25)
    _, _, ld = _stacked_blocks(small_chain)
    expected = _lpml(ld[:, combination_columns(small_chain.grid, ld.shape[1])])
    assert report.lpml == pytest.approx(expected, abs=1e-12)


def test_summarize_chains_scores_match_per_draw_loop(small_chain):
    grid = small_chain.grid
    ranges = {"drug1": (grid.logc1[1], grid.logc1[-1]), "drug2": (grid.logc2[1], grid.logc2[-1])}
    expected = {key: [] for key in ("p0", "abs_delta", "delta_plus", "delta_minus",
                                    "one_minus_p", "drug1", "drug2")}
    for p0, delta, m1, lam1, m2, lam2 in zip(
            *_stacked_blocks(small_chain)[:2],
            *(small_chain.scalar_series(name) for name in ("m1", "lambda1", "m2", "lambda2"))):
        bound = float(np.max(np.maximum(p0, 1.0 - p0)))
        ax = (grid.logc1, grid.logc2)
        for key, values, upper in (("p0", p0, 1.0), ("abs_delta", np.abs(delta), bound),
                                   ("delta_plus", np.abs(np.minimum(delta, 0.0)), bound),
                                   ("delta_minus", np.maximum(delta, 0.0), bound),
                                   ("one_minus_p", 1.0 - (p0 + delta), 1.0)):
            expected[key].append(mean_heights(values, *ax) / upper)
        expected["drug1"].append(dss_scores(m1, lam1, *ranges["drug1"], 0.1))
        expected["drug2"].append(dss_scores(m2, lam2, *ranges["drug2"], 0.1))
    report = summarize_chains(small_chain, fine_points=25)
    for key, values in expected.items():
        got = report.dss[key] if key.startswith("drug") else report.rvus[key]
        assert got["mean"] == pytest.approx(np.mean(values), rel=1e-12, abs=1e-15)
        assert got["median"] == pytest.approx(np.median(values), rel=1e-12, abs=1e-15)


def test_summarize_chains_pools_chains_without_stacking(small_chain):
    # the same rows as two chains: blocks and sums break at the chain boundary
    half = len(small_chain) // 2
    parts = replace(small_chain, chain=np.repeat([0, 1], [half, len(small_chain) - half]),
                    accept_rates={}, accept_rates_after_burn_in={})
    whole = summarize_chains(small_chain, fine_points=25)
    pooled = summarize_chains(parts, fine_points=25)
    assert pooled.acceptance == pooled.acceptance_after_burn_in == {"0": {}, "1": {}}
    assert pooled.n_samples == whole.n_samples
    assert pooled.lpml == pytest.approx(whole.lpml, rel=1e-13)
    for group in ("dss", "rvus"):
        for key, stats_block in getattr(whole, group).items():
            for stat, value in stats_block.items():
                assert getattr(pooled, group)[key][stat] == pytest.approx(
                    value, rel=1e-13, abs=1e-15)
    np.testing.assert_array_equal(pooled.bi_ec50_points, whole.bi_ec50_points)
    np.testing.assert_allclose(pooled.posterior_mean["p"], whole.posterior_mean["p"],
                               rtol=0.0, atol=1e-15)


def test_summaries_memory_does_not_grow_with_draws():
    # the surfaces and log densities of the draws are derived a block at a
    # time; what remains per draw is a handful of scores
    data, _ = sample_plate(SimScenario(3, seed=1))
    chain = run_chain(data, config=ChainConfig(n_iter=800, burn_in=400, thin=1, seed=1))
    peaks = []
    for copies in (1, 10):
        part = replace(chain, draws=np.tile(chain.draws, (copies, 1)),
                       chain=np.zeros(copies * len(chain), dtype=int))
        tracemalloc.start()
        summarize_chains(part)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2 ** 20


def test_summarize_chains_label_swap(small_chain):
    report = summarize_chains(small_chain, fine_points=25,
                              swap_interaction_labels=True)
    assert report.interaction_labels == {"delta_plus": "antagonistic",
                                         "delta_minus": "synergistic"}


def test_summary_report_round_trips_through_json(small_chain):
    report = summarize_chains(small_chain, fine_points=25)
    blob = json.dumps(report.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["n_samples"] == report.n_samples
    assert "posterior_mean" not in parsed
    assert parsed["interaction_labels"]["delta_plus"] == "synergistic"
