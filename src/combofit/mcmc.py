"""Adaptive Metropolis-within-Gibbs sampler for the dose-response model.

The chain state is one row of draws (model.DRAW_SCALARS followed by the
spline coefficients C). Each sweep updates fifteen blocks in a fixed order
with a Gaussian random walk on a transformed scale (log for positive
parameters, identity otherwise), through four kinds of update: a
monotherapy curve (m1, m2, lambda1, lambda2), the link slopes b, a linear
predictor term (gamma0, gamma1, gamma2) or the coefficients C, and a
variance (the five sigma2_phi and sigma2_eps). The sweep is built once per
run, as one update per active block that holds that block's constants, and
every random-walk proposal ends in the same Metropolis step. After an
initial adapt_start iterations every block's proposal covariance tracks the
running sample covariance of its own history, scaled by a factor tuned
toward a target acceptance rate with Robbins-Monro steps on the log scale;
the coefficient block refactors its covariance once every REFRESH iterations
and moves B and prices its prior through Kronecker products of the per-axis
matrices. Under an Inverse-Gamma variance prior the variance blocks switch
to exact conjugate draws.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import LogConcGrid, PlateDataset
from .errors import InitializationError, ValidationError
from .model import (COLUMN, EXP_CLAMP, N_SCALARS, VARIANCES, HalfCauchyPrior, PriorSpec,
                    SurfaceDesign, check_row, curve_values, initial_state, link_denominators,
                    link_numerators, observation_log_densities, on_pairs, surfaces)
from .splines import SplineSpec, penalty_precision

BLOCK_NAMES = (
    "m1", "m2", "lambda1", "lambda2", "b",
    "gamma0", "gamma1", "gamma2", "C",
    "sigma2_m1", "sigma2_m2", "sigma2_gamma0", "sigma2_gamma1", "sigma2_gamma2",
    "sigma2_eps",
)

# Draws per block when a chain's surfaces are derived from its draws; bounds
# the temporaries at a few hundred kB on a plate-sized grid.
_REBUILD_BLOCK = 128

DEFAULT_PROPOSAL_SCALES = {
    "m1": 0.1, "m2": 0.1, "lambda1": 0.1, "lambda2": 0.1, "b": 0.15,
    "gamma0": 0.2, "gamma1": 0.2, "gamma2": 0.2, "C": 0.05,
    "sigma2_m1": 0.3, "sigma2_m2": 0.3, "sigma2_gamma0": 0.3,
    "sigma2_gamma1": 0.3, "sigma2_gamma2": 0.3, "sigma2_eps": 0.3,
}

# Proposal adaptation: the jitter added to each proposal covariance, the number
# of observations between refreshes of a block's covariance factor above two
# dimensions, the decay of the Robbins-Monro steps and the target acceptance of
# one-dimensional and of larger blocks (Roberts & Rosenthal 2009).
ADAPT_JITTER = 1e-6
REFRESH = 50
RM_DECAY = 0.7
TARGET_ACCEPT_SCALAR = 0.44
TARGET_ACCEPT_MULTI = 0.234


@dataclass(frozen=True)
class ChainConfig:
    """Schedule of one MCMC chain. burn_in defaults to half of n_iter and
    adapt_start, the iterations before proposals adapt, to min(1000,
    burn_in // 2) but at least 1."""

    n_iter: int = 100_000
    burn_in: int = None
    thin: int = 10
    adapt_start: int = None
    seed: int = 0

    def __post_init__(self):
        if self.n_iter < 1:
            raise ValidationError("n_iter must be at least 1")
        burn_in = self.n_iter // 2 if self.burn_in is None else self.burn_in
        if not 0 <= burn_in < self.n_iter:
            raise ValidationError("burn_in must satisfy 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise ValidationError("thin must be at least 1")
        if (self.n_iter - burn_in) // self.thin < 1:
            raise ValidationError("schedule retains no samples")
        adapt_start = self.adapt_start
        if adapt_start is None:
            adapt_start = max(1, min(1000, burn_in // 2))
        elif adapt_start < 1:
            raise ValidationError("adapt_start must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        object.__setattr__(self, "burn_in", int(burn_in))
        object.__setattr__(self, "adapt_start", int(adapt_start))

    @property
    def n_retained(self) -> int:
        return (self.n_iter - self.burn_in) // self.thin


def _safe_exp(x: float) -> float:
    # math.exp raises OverflowError past ~709.78; return inf so callers can
    # reject the proposal instead of crashing (matters for diffuse targets).
    return math.exp(x) if x < EXP_CLAMP else math.inf


class AdaptiveState:
    """Running proposal adaptation of one block, and its count of accepted
    proposals; for_dim builds the adapter of a block's dimension.

    Keeps the sums needed for the sample covariance of the block's transformed
    history and a Robbins-Monro-tuned scalar multiplier s. Before adapt_start
    iterations the proposal is an isotropic Gaussian with the configured
    initial scale.

    A two-dimensional block keeps its sums as floats (sum_tt holds the
    entries 00, 01 and 11) and factors its 2 x 2 covariance in closed form,
    with the operations and so the bits of the LAPACK factorisation behind
    np.linalg.cholesky; numpy's per-call overhead dominates at that size.

    A larger block buffers its history and folds it into the sums one batch
    of REFRESH observations at a time. Its factor chol is that of cov +
    ADAPT_JITTER I, refreshed after each batch once adaptation has started,
    and a step is exp(log_s / 2) chol z: since chol(s M) = sqrt(s) chol(M),
    the scale still adapts on every observation while the factor is rebuilt
    once per batch, in the manner of Roberts & Rosenthal (2009).
    """

    def __init__(self, dim, initial_scale, target, adapt_start):
        self.dim, self.initial_scale = dim, float(initial_scale)
        self.target, self.adapt_start = float(target), int(adapt_start)
        self.log_s = math.log(2.38 ** 2 / dim)
        self.count = self.accepted = 0

    @staticmethod
    def for_dim(dim, initial_scale, target, adapt_start):
        kind = _ScalarAdapter if dim == 1 else _PairAdapter if dim == 2 else _BatchAdapter
        return kind(dim, initial_scale, target, adapt_start)

    def _adapted_scale(self, accept_prob, iteration):
        """s after one Robbins-Monro step on log_s, or None before adaptation."""
        if iteration <= self.adapt_start or self.count < 2:
            return None
        self.log_s = min(max(self.log_s + iteration ** (-RM_DECAY) * (accept_prob - self.target),
                             -23.0), 14.0)
        return math.exp(self.log_s)


class _ScalarAdapter(AdaptiveState):
    def __init__(self, *args):
        super().__init__(*args)
        self.sum_t = self.sum_tt = 0.0
        self.step_sd = self.initial_scale

    def propose_step(self, rng):
        return self.step_sd * rng.standard_normal()

    def observe(self, t, accept_prob, iteration):
        """Record the post-update value t and adapt after adapt_start."""
        self.count += 1
        self.sum_t += t
        self.sum_tt += t * t
        s = self._adapted_scale(accept_prob, iteration)
        if s is not None:
            n = self.count
            var = (self.sum_tt - self.sum_t * self.sum_t / n) / (n - 1)
            self.step_sd = math.sqrt(s * (max(var, 0.0) + ADAPT_JITTER))


class _PairAdapter(AdaptiveState):
    def __init__(self, *args):
        super().__init__(*args)
        self.sum_t, self.sum_tt, self.chol = [0.0, 0.0], [0.0, 0.0, 0.0], None

    def propose_step(self, rng):
        z = rng.standard_normal(2)
        return self.initial_scale * z if self.chol is None else self.chol.dot(z)

    def observe(self, t, accept_prob, iteration):
        self.count += 1
        t0, t1 = t
        self.sum_t[0] += t0
        self.sum_t[1] += t1
        self.sum_tt[0] += t0 * t0
        self.sum_tt[1] += t0 * t1
        self.sum_tt[2] += t1 * t1
        s = self._adapted_scale(accept_prob, iteration)
        if s is None:
            return
        n, (m0, m1), (q00, q01, q11) = self.count, self.sum_t, self.sum_tt
        a11 = ((q00 - m0 * m0 / n) / (n - 1) + ADAPT_JITTER) * s
        a21 = ((q01 - m0 * m1 / n) / (n - 1) + 0.0) * s
        a22 = ((q11 - m1 * m1 / n) / (n - 1) + ADAPT_JITTER) * s
        # LAPACK's order: l21 = a21 * (1 / l11), l22 = sqrt(a22 - l21^2); a
        # pivot that is not positive keeps the previous factor, as below
        if a11 > 0.0:
            l11 = math.sqrt(a11)
            l21 = a21 * (1.0 / l11)
            pivot = a22 - l21 * l21
            if pivot > 0.0:
                self.chol = np.array(((l11, 0.0), (l21, math.sqrt(pivot))))


class _BatchAdapter(AdaptiveState):
    def __init__(self, dim, *args):
        super().__init__(dim, *args)
        self.batch, self.jitter_eye = np.empty((REFRESH, dim)), ADAPT_JITTER * np.eye(dim)
        self.sum_t, self.sum_tt, self.chol = np.zeros(dim), np.zeros((dim, dim)), None

    def propose_step(self, rng):
        z = rng.standard_normal(self.dim)
        return (self.initial_scale * z if self.chol is None
                else math.exp(0.5 * self.log_s) * self.chol.dot(z))

    def observe(self, t, accept_prob, iteration):
        self.count += 1
        row = (self.count - 1) % REFRESH
        self.batch[row] = t
        if row == REFRESH - 1:
            self.sum_t += self.batch.sum(axis=0)
            self.sum_tt += self.batch.T @ self.batch
        if self._adapted_scale(accept_prob, iteration) is None or row != REFRESH - 1:
            return
        # cov + jitter I, built in place
        n = self.count
        xi = self.sum_t[:, None] * self.sum_t
        xi /= n
        np.subtract(self.sum_tt, xi, out=xi)
        xi /= n - 1
        xi += self.jitter_eye
        try:
            self.chol = np.linalg.cholesky(xi)
        except np.linalg.LinAlgError:
            # Keep the previous factor; the running covariance can lose
            # definiteness to rounding when the chain has barely moved.
            pass


def draw_inverse_gamma(rng, shape: float, rate: float) -> float:
    return 1.0 / rng.gamma(shape, 1.0 / rate)


@dataclass
class Posterior:
    """Retained draws of one or several chains, the whole stored posterior,
    and the plate whose likelihood it targeted (data; None for a prior-only
    chain).

    draws has one row per retained draw, in model.DRAW_SCALARS order followed
    by the spline coefficients C in row-major order; chain holds the chain
    index of each row and never decreases, so each chain's rows are
    contiguous. blocks derives surfaces and log densities from the draws.
    accept_rates and accept_rates_after_burn_in map a chain index to that
    chain's per-block rates over the whole run and after burn-in; stored
    draws have none.
    """

    draws: np.ndarray
    chain: np.ndarray
    grid: LogConcGrid
    spline: SplineSpec
    linear_scale: str
    data: PlateDataset
    accept_rates: dict = field(default_factory=dict)
    accept_rates_after_burn_in: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.draws.ndim != 2 or self.draws.shape[0] < 1:
            raise ValidationError("need a (draws, columns) array with at least one draw")
        if self.chain.shape != self.draws.shape[:1]:
            raise ValidationError(f"chain has shape {self.chain.shape}; need one index "
                                  f"for each of the {len(self)} draws")
        if np.any(np.diff(self.chain) < 0):
            raise ValidationError("chain indices must not decrease from row to row")

    def __len__(self):
        return self.draws.shape[0]

    def row_blocks(self):
        """Successive blocks of at most _REBUILD_BLOCK rows of draws. No block
        holds rows of two chains, so how a chain's rows are blocked does not
        depend on the other chains."""
        bounds = [0, *(np.flatnonzero(np.diff(self.chain)) + 1).tolist(), len(self)]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            for first in range(start, stop, _REBUILD_BLOCK):
                yield self.draws[first:min(first + _REBUILD_BLOCK, stop)]

    def blocks(self):
        """(rows, p0, delta, log densities) per block of row_blocks, from the
        model's kernels; the log densities have one column per raveled
        (i, j, replicate) observation, none without data."""
        design = SurfaceDesign.on_grid(self.grid, self.spline, self.linear_scale)
        for rows in self.row_blocks():
            p0, delta = surfaces(rows, design)
            ld = np.empty(0) if self.data is None else observation_log_densities(
                self.data, p0 + delta, rows[:, COLUMN["sigma2_eps"]])
            yield rows, p0, delta, ld.reshape(len(rows), -1)

    def scalar_series(self, name: str) -> np.ndarray:
        if name not in COLUMN:
            raise ValidationError(f"unknown scalar series {name!r}")
        return self.draws[:, COLUMN[name]]


class _Sampler:
    """One chain's working state and block updates."""

    def __init__(self, data, priors, spline, config, linear_scale, update_blocks,
                 prior_only, initial, chain_index):
        grid = LogConcGrid.from_dataset(data)
        self.data = None if prior_only else data
        self.grid = grid
        self.spline = spline
        self.priors = priors
        self.config = config
        self.linear_scale = linear_scale
        self.chain_index = chain_index

        # basis1 @ C @ basis2.T and sum(prec2 * (C.T @ prec1 @ C)) as one design
        # and one precision acting on c, the coefficients C raveled row-major.
        # Every other grid operand is on the link's pair layout (model.on_pairs),
        # so no ufunc of an update broadcasts: the two log-dose axes, the
        # numerators' shift and border mask, and what a unit step of each gamma
        # adds to the predictor B
        surface = SurfaceDesign.on_grid(grid, spline, linear_scale)
        shape = grid.shape
        self.design = np.kron(surface.lift1[:, :spline.k1], surface.lift2[:, :spline.k2])
        self.precision = np.kron(penalty_precision(spline.k1, spline.penalty_ridge),
                                 penalty_precision(spline.k2, spline.penalty_ridge))
        self.axes = on_pairs(shape, grid.logc1[:, None]), on_pairs(shape, grid.logc2)
        self.numerator_shift, self.mask = on_pairs(shape, 0.0, 1.0), on_pairs(shape, surface.mask)
        self.shift = {name: on_pairs(shape, np.outer(surface.lift1[:, i], surface.lift2[:, j]))
                      for name, (i, j) in surface.gamma_cells.items()}

        # the sums of the data enter only the sum of squares, which a chain
        # without a likelihood does not compute
        self.n_obs = 0 if prior_only else data.n_obs
        y = data.viability
        self.n_rep, self.s2_total = data.n_rep, float(np.vdot(y, y))
        self.s1 = y.sum(axis=2).ravel()

        if update_blocks is None:
            self.active = set(BLOCK_NAMES)
        else:
            unknown = set(update_blocks) - set(BLOCK_NAMES)
            if unknown:
                raise ValidationError(f"unknown update blocks: {sorted(unknown)}")
            if not update_blocks:
                raise ValidationError("update_blocks must not be empty")
            self.active = set(update_blocks)

        self.rng = np.random.default_rng(np.random.SeedSequence([config.seed, chain_index]))

        start = initial_state(grid, spline) if initial is None else check_row(initial, spline)
        self.theta = start[:N_SCALARS].tolist()
        self.c = start[N_SCALARS:].copy()
        with np.errstate(over="ignore"):  # the start check below reports an inf quad
            self.quad = float(self.c @ (self.precision @ self.c))

        self.likelihood = not prior_only
        self.ss, self.parts, self.spare, self._fit = 0.0, None, None, None
        if self.likelihood:
            m1, m2, lam1, lam2, b1, b2, g0, g1, g2 = self.theta[:9]
            f1, f2 = curve_values(self.axes[0], m1, lam1), curve_values(self.axes[1], m2, lam2)
            p0 = f1 * f2
            bpred = (g0 * self.shift["gamma0"] + g1 * self.shift["gamma1"]
                     + g2 * self.shift["gamma2"]
                     + on_pairs(shape, (self.design @ self.c).reshape(shape)))
            slopes = on_pairs(shape, b1, -b2)
            numerators = link_numerators(p0, self.mask, shift=self.numerator_shift)
            denominators = link_denominators(bpred, slopes)
            self.parts = [f1, f2, p0, numerators, bpred, slopes, denominators]
            self.spare = [np.empty_like(part) for part in self.parts]
            self._fit = self._fit_kernel()
            self.ss = self._fit(p0, numerators, denominators)

        hc = priors.variance_prior if isinstance(priors.variance_prior, HalfCauchyPrior) else None
        self.hc = hc
        self.ig = priors.variance_prior if hc is None else None

        # of the terms the updates price, only these can overflow on a checked
        # row; the Gamma and half-Cauchy terms stay finite there
        th, s2 = self.theta, self.theta[COLUMN["sigma2_eps"]]
        log_lik = -0.5 * self.n_obs * math.log(2.0 * math.pi * s2) - self.ss / (2.0 * s2)
        start_terms = {"log likelihood": log_lik, "C prior quadratic form": self.quad}
        for var in VARIANCES[:-1]:
            phi = var.removeprefix("sigma2_")
            start_terms[f"{phi}^2 / {var}"] = th[COLUMN[phi]] * th[COLUMN[phi]] / th[COLUMN[var]]
        if hc is not None:  # the walk prices 1 / sigma2; a conjugate draw never reads it
            start_terms.update({f"1 / {var}": 1.0 / th[COLUMN[var]]
                                for var in VARIANCES if var in self.active})
        for term, value in start_terms.items():
            if not math.isfinite(value):
                raise InitializationError(f"non-finite {term} at the starting row: {value}")

        self.adapters = {}
        for name in BLOCK_NAMES:
            if name not in self.active:
                continue
            if name.startswith("sigma2_") and self.ig is not None:
                continue  # conjugate draws need no tuning
            dim = {"b": 2, "C": spline.k1 * spline.k2}.get(name, 1)
            target = TARGET_ACCEPT_SCALAR if dim == 1 else TARGET_ACCEPT_MULTI
            self.adapters[name] = AdaptiveState.for_dim(
                dim, DEFAULT_PROPOSAL_SCALES[name], target, config.adapt_start)

    # -- numerics ----------------------------------------------------------

    # parts, the grid state of a chain with a likelihood: [f1, f2, p0, the
    # link's numerators, B, the slopes, the link's denominators], each on the
    # pair layout (2, n1, n2). f1, f2, p0 and B hold the same values on both
    # planes; the slopes hold b1 on the first and -b2 on the second. Each block
    # update changes either p0 (m, lambda) or the denominators (b, gamma, C),
    # so a proposal recomputes only that side of the link, into spare, which
    # holds one more array of each part; on acceptance the moved parts and
    # their spares swap places. Without a likelihood nothing on the grid
    # enters an acceptance ratio: parts, spare and _fit are None, no update
    # touches the grid, B included, and ss is 0.0, the exact value the full
    # computation gives when there is no data.

    def _fit_kernel(self):
        """fit(p0, numerators, denominators), the residual sum of squares of
        the plate under p0 + Delta, with link_delta's quotients and their sum
        written into scratch arrays of its own."""
        quotient, p = np.empty_like(self.parts[6]), np.empty(self.grid.shape)
        (q0, q1), pf, n_rep, s1, s2_total = quotient, p.ravel(), self.n_rep, self.s1, self.s2_total

        def fit(p0, numerators, denominators):
            np.divide(numerators, denominators, out=quotient)
            np.add(np.add(q0, q1, out=p), p0[0], out=p)
            return n_rep * float(pf.dot(pf)) - 2.0 * float(pf.dot(s1)) + s2_total
        return fit

    def _metropolis(self, name, moved=()):
        """The Metropolis step of block name: a decision on log_a, counted on
        the block's adapter, whose adaptation is fed the transformed value it
        keeps, tc on acceptance and t otherwise. An acceptance swaps the parts
        at the indices moved with their spares, which hold the proposal. A
        non-finite log_a rejects without drawing a uniform."""
        adapter, uniform = self.adapters[name], self.rng.random
        observe, parts, spare = adapter.observe, self.parts, self.spare

        def step(log_a, t, tc, iteration):
            if not math.isfinite(log_a):
                a, ok = 0.0, False
            elif log_a >= 0.0:
                a, ok = 1.0, True
            else:
                a = math.exp(log_a)
                ok = uniform() < a
            if ok:
                adapter.accepted += 1
                for i in moved:
                    parts[i], spare[i] = spare[i], parts[i]
            observe(tc if ok else t, a, iteration)
            return ok
        return step

    # -- block updates -----------------------------------------------------
    # Each factory binds one block's constants (draws columns, adapter, prior
    # constants, grid axis or predictor move) into the update that run calls
    # on every sweep. A log ratio starts with the log-likelihood ratio
    # -(ssc - ss) / (2 sigma2_eps) and adds the prior and Jacobian terms left
    # to right in a fixed order; the bits of the stream depend on it.

    def _curve_update(self, name):
        """m1, m2, lambda1 or lambda2: one drug's monotherapy curve, so p0 moves
        and the link's denominators stay. m walks on its own scale under its
        N(0, sigma2_m) prior; lambda walks on the log scale, where its Gamma
        prior and the Jacobian give (cand/cur)^shape * exp(-rate * (cand - cur))."""
        th, rng, fit, likelihood = self.theta, self.rng, self._fit, self.likelihood
        parts, spare, drug, mask = self.parts, self.spare, name[-1], self.mask
        k, km, klam, eps = (COLUMN[name], COLUMN["m" + drug], COLUMN["lambda" + drug],
                            COLUMN["sigma2_eps"])
        first, shift = drug == "1", self.numerator_shift
        axis = self.axes[0 if first else 1]
        moved = (0 if first else 1, 2, 3) if likelihood else ()
        step, propose = self._metropolis(name, moved), self.adapters[name].propose_step
        log_scale = name.startswith("lambda")
        prior = getattr(self.priors, name) if log_scale else None
        var = None if log_scale else COLUMN["sigma2_" + name]

        def update(iteration):
            cur = th[k]
            if log_scale:
                t = math.log(cur)
                tc = t + propose(rng)
                cand = _safe_exp(tc)
                if not (math.isfinite(cand) and cand > 0.0):
                    step(-math.inf, t, tc, iteration)
                    return
                gain, cost = prior.shape * (tc - t), prior.rate * (cand - cur)
                m, lam, kept = th[km], cand, math.log(cand)
            else:
                t = cur
                cand = cur + propose(rng)
                gain, cost = 0.0, (cand * cand - cur * cur) / (2.0 * th[var])
                m, lam, kept = cand, th[klam], cand
            ssc = 0.0
            if likelihood:
                f = curve_values(axis, m, lam, out=spare[moved[0]])
                f1, f2 = (f, parts[1]) if first else (parts[0], f)
                p0 = np.multiply(f1, f2, out=spare[2])
                ssc = fit(p0, link_numerators(p0, mask, spare[3], shift), parts[6])
            if step(-(ssc - self.ss) / (2.0 * th[eps]) + gain - cost, t, kept, iteration):
                th[k] = cand
                self.ss = ssc
        return update

    def _b_update(self, name):
        th, rng, fit, likelihood = self.theta, self.rng, self._fit, self.likelihood
        parts, spare, prior1, prior2 = self.parts, self.spare, self.priors.b1, self.priors.b2
        k1, k2, eps = COLUMN["b1"], COLUMN["b2"], COLUMN["sigma2_eps"]
        step = self._metropolis(name, (5, 6) if likelihood else ())
        propose = self.adapters[name].propose_step
        # the two planes of each slopes array, bound once: the kept and the
        # spare array trade places on acceptance
        planes = {id(a): tuple(a) for a in (parts[5], spare[5])} if likelihood else None

        def update(iteration):
            b1, b2 = th[k1], th[k2]
            t = (math.log(b1), math.log(b2))
            d = propose(rng).tolist()
            tc = (t[0] + d[0], t[1] + d[1])
            b1c, b2c = _safe_exp(tc[0]), _safe_exp(tc[1])
            if not (b1c > 0.0 and b2c > 0.0 and math.isfinite(b1c) and math.isfinite(b2c)):
                step(-math.inf, t, tc, iteration)
                return
            ssc = 0.0
            if likelihood:
                slopes = spare[5]
                first, second = planes[id(slopes)]
                first.fill(b1c)
                second.fill(-b2c)
                ssc = fit(parts[2], parts[3],
                          link_denominators(parts[4], slopes, out=spare[6]))
            log_a = (-(ssc - self.ss) / (2.0 * th[eps])
                     + prior1.shape * (tc[0] - t[0]) - prior1.rate * (b1c - b1)
                     + prior2.shape * (tc[1] - t[1]) - prior2.rate * (b2c - b2))
            if step(log_a, t, tc, iteration):
                th[k1], th[k2] = b1c, b2c
                self.ss = ssc
        return update

    def _gamma_update(self, name):
        th, rng, fit, likelihood = self.theta, self.rng, self._fit, self.likelihood
        parts, spare, shift = self.parts, self.spare, self.shift[name]
        k, var, eps = COLUMN[name], COLUMN["sigma2_" + name], COLUMN["sigma2_eps"]
        step = self._metropolis(name, (4, 6) if likelihood else ())
        propose = self.adapters[name].propose_step

        def update(iteration):
            cur = th[k]
            d = propose(rng)
            cand = cur + d
            ssc = 0.0
            if likelihood:
                bpred = np.add(np.multiply(shift, d, out=spare[4]), parts[4], out=spare[4])
                ssc = fit(parts[2], parts[3],
                          link_denominators(bpred, parts[5], out=spare[6]))
            log_a = (-(ssc - self.ss) / (2.0 * th[eps])
                     - (cand * cand - cur * cur) / (2.0 * th[var]))
            if step(log_a, cur, cand, iteration):
                th[k] = cand
                self.ss = ssc
        return update

    def _C_update(self, name):
        th, rng, fit, likelihood = self.theta, self.rng, self._fit, self.likelihood
        parts, spare, eps = self.parts, self.spare, COLUMN["sigma2_eps"]
        design, precision = self.design, self.precision
        # design.dot(d) goes into the first plane of moves and is copied to the
        # second: a design stacked for both planes gives other gemv bits
        moves = on_pairs(self.grid.shape, 0.0)
        move0, move1 = moves.reshape(2, -1)
        step = self._metropolis(name, (4, 6) if likelihood else ())
        propose = self.adapters[name].propose_step

        def update(iteration):
            d = propose(rng)
            cc = self.c + d
            ssc = 0.0
            if likelihood:
                np.dot(design, d, out=move0)
                np.copyto(move1, move0)
                bpred = np.add(parts[4], moves, out=spare[4])
                ssc = fit(parts[2], parts[3],
                          link_denominators(bpred, parts[5], out=spare[6]))
            quadc = float(cc.dot(precision.dot(cc)))
            log_a = -(ssc - self.ss) / (2.0 * th[eps]) - 0.5 * (quadc - self.quad)
            if step(log_a, self.c, cc, iteration):
                self.c, self.quad, self.ss = cc, quadc, ssc
        return update

    def _variance_update(self, name):
        """sigma2_eps or one sigma2_phi as the variance of n_terms Gaussian
        terms with sum of squares sum_sq: an exact draw under the Inverse-Gamma
        prior, a random walk on log sigma under the half-Cauchy prior."""
        th, rng, k = self.theta, self.rng, COLUMN[name]
        eps = name == "sigma2_eps"
        phi = None if eps else COLUMN[name.removeprefix("sigma2_")]
        n_terms = float(self.n_obs) if eps else 1.0
        if self.ig is not None:
            # the conjugate shape is fixed; each draw adds 0.5 * sum_sq to the rate
            shape, rate = self.ig.shape + 0.5 * n_terms, self.ig.rate

            def draw(iteration):
                sum_sq = self.ss if eps else th[phi] * th[phi]
                th[k] = draw_inverse_gamma(rng, shape, rate + 0.5 * sum_sq)
            return draw
        step, propose = self._metropolis(name), self.adapters[name].propose_step
        h2, jacobian = self.hc.scale * self.hc.scale, 1.0 - n_terms

        def update(iteration):
            sum_sq = self.ss if eps else th[phi] * th[phi]
            s2 = th[k]
            t = 0.5 * math.log(s2)
            tc = t + propose(rng)
            s2c = _safe_exp(2.0 * tc)
            if not (math.isfinite(s2c) and s2c > 0.0):
                step(-math.inf, t, tc, iteration)
                return
            log_a = (jacobian * (tc - t)
                     - 0.5 * sum_sq * (1.0 / s2c - 1.0 / s2)
                     + math.log(s2 + h2) - math.log(s2c + h2))
            if step(log_a, t, tc, iteration):
                th[k] = s2c
        return update

    # -- main loop ---------------------------------------------------------

    def run(self) -> Posterior:
        cfg = self.config
        draws = np.empty((cfg.n_retained, N_SCALARS + self.c.size))
        factories = {
            **dict.fromkeys(("m1", "m2", "lambda1", "lambda2"), self._curve_update),
            "b": self._b_update, "C": self._C_update,
            **dict.fromkeys(("gamma0", "gamma1", "gamma2"), self._gamma_update),
            **dict.fromkeys(VARIANCES, self._variance_update),
        }
        sweep = [factories[name](name) for name in BLOCK_NAMES if name in self.active]
        for g in range(1, cfg.burn_in + 1):
            for update in sweep:
                update(g)
        at_burn_in = self._counts()
        for g in range(cfg.burn_in + 1, cfg.n_iter + 1):
            for update in sweep:
                update(g)
            kept, rest = divmod(g - cfg.burn_in, cfg.thin)
            if rest == 0:
                row = draws[kept - 1]
                row[:N_SCALARS] = self.theta
                row[N_SCALARS:] = self.c
        counts = self._counts()
        after = {name: (a - at_burn_in[name][0], n - at_burn_in[name][1])
                 for name, (a, n) in counts.items()}
        return Posterior(
            draws=draws, chain=np.full(len(draws), self.chain_index), grid=self.grid,
            spline=self.spline, linear_scale=self.linear_scale, data=self.data,
            accept_rates={self.chain_index: _rates(counts)},
            accept_rates_after_burn_in={self.chain_index: _rates(after)})

    def _counts(self):
        """(accepted, proposed) of every adapted block so far; its adapter
        observes every proposal once."""
        return {name: (adapter.accepted, adapter.count)
                for name, adapter in self.adapters.items()}


def _rates(counts):
    return {name: accepted / proposed if proposed else 0.0
            for name, (accepted, proposed) in counts.items()}


def run_chain(data: PlateDataset, priors: PriorSpec = None, spline: SplineSpec = None,
              config: ChainConfig = None, linear_scale: str = "log10",
              update_blocks=None, prior_only: bool = False,
              initial=None, chain_index: int = 0) -> Posterior:
    """Run one adaptive Metropolis-within-Gibbs chain on a plate and return
    its retained draws as a one-chain Posterior whose rows carry chain_index.

    update_blocks restricts sampling to a subset of BLOCK_NAMES (the rest stay
    at their starting values); prior_only drops the likelihood so the chain
    targets the prior. initial is the starting parameter row, in draws column
    order (model.initial_state if None), checked by model.check_row. Results
    are a deterministic function of (config.seed, chain_index).
    """
    priors = PriorSpec() if priors is None else priors
    config = ChainConfig() if config is None else config
    if spline is None:
        spline = SplineSpec.for_grid(LogConcGrid.from_dataset(data))
    sampler = _Sampler(data, priors, spline, config, linear_scale, update_blocks,
                       prior_only, initial, chain_index)
    return sampler.run()


def run_chains(data: PlateDataset, n_chains: int, priors: PriorSpec = None,
               spline: SplineSpec = None, config: ChainConfig = None,
               linear_scale: str = "log10") -> Posterior:
    """Run n_chains independent chains, indexed 0 to n_chains - 1, and return
    one Posterior with their rows in index order.

    Chain index seeds the stream, so results do not depend on execution order
    or on how many workers the host offers.
    """
    if n_chains < 1:
        raise ValidationError("n_chains must be at least 1")
    parts = [run_chain(data, priors=priors, spline=spline, config=config,
                       linear_scale=linear_scale, chain_index=i)
             for i in range(n_chains)]
    return replace(parts[0], draws=np.concatenate([part.draws for part in parts]),
                   chain=np.concatenate([part.chain for part in parts]),
                   accept_rates={i: part.accept_rates[i] for i, part in enumerate(parts)},
                   accept_rates_after_burn_in={i: part.accept_rates_after_burn_in[i]
                                               for i, part in enumerate(parts)})
