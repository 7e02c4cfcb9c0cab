"""Adaptive Metropolis-within-Gibbs sampler for the dose-response model.

The chain state is one row of draws (model.DRAW_SCALARS followed by the
spline coefficients C). Each sweep updates fifteen blocks in a fixed order
with a Gaussian random walk on a transformed scale (log for positive
parameters, identity otherwise), through four kinds of update: a
monotherapy curve (m1, m2, lambda1, lambda2), the link slopes b, a linear
predictor term (gamma0, gamma1, gamma2) or the coefficients C, and a
variance (the five sigma2_phi and sigma2_eps). Every random-walk proposal
ends in the same Metropolis step. After an initial adapt_start iterations
every block's proposal covariance tracks the running sample covariance of
its own history, scaled by a factor tuned toward a target acceptance rate
with Robbins-Monro steps on the log scale. Under an Inverse-Gamma variance
prior the variance blocks switch to exact conjugate draws.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import LogConcGrid, PlateDataset, SurfaceGrid
from .errors import InitializationError, ValidationError
from .model import (COLUMN, DRAW_SCALARS, EXP_CLAMP, N_SCALARS, HalfCauchyPrior,
                    InverseGammaPrior, ParameterState, PriorSpec, SurfaceDesign,
                    curve_values, initial_state, linear_axes, log_prior,
                    observation_log_densities, surfaces)
from .splines import SplineSpec, basis_matrix, penalty_precision

BLOCK_NAMES = (
    "m1", "m2", "lambda1", "lambda2", "b",
    "gamma0", "gamma1", "gamma2", "C",
    "sigma2_m1", "sigma2_m2", "sigma2_gamma0", "sigma2_gamma1", "sigma2_gamma2",
    "sigma2_eps",
)

# Draws per block when a chain's surfaces are derived from its draws; bounds
# the temporaries at a few hundred kB on a plate-sized grid.
_REBUILD_BLOCK = 128

# Subtracting p0 from these gives the link's numerators -p0 and 1 - p0.
_NUMERATOR_SHIFT = np.array((0.0, 1.0)).reshape(2, 1, 1)

DEFAULT_PROPOSAL_SCALES = {
    "m1": 0.1, "m2": 0.1, "lambda1": 0.1, "lambda2": 0.1, "b": 0.15,
    "gamma0": 0.2, "gamma1": 0.2, "gamma2": 0.2, "C": 0.05,
    "sigma2_m1": 0.3, "sigma2_m2": 0.3, "sigma2_gamma0": 0.3,
    "sigma2_gamma1": 0.3, "sigma2_gamma2": 0.3, "sigma2_eps": 0.3,
}

# Proposal adaptation: the jitter added to each proposal covariance, the decay
# of the Robbins-Monro steps and the target acceptance of one-dimensional and
# of larger blocks (Roberts & Rosenthal 2009).
ADAPT_JITTER = 1e-6
RM_DECAY = 0.7
TARGET_ACCEPT_SCALAR = 0.44
TARGET_ACCEPT_MULTI = 0.234


@dataclass(frozen=True)
class ChainConfig:
    """Schedule and initial proposal scales of one MCMC chain."""

    n_iter: int = 100_000
    burn_in: int = None
    thin: int = 10
    adapt_start: int = 1000
    seed: int = 0
    proposal_scales: dict = None

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
        if self.adapt_start < 1:
            raise ValidationError("adapt_start must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        scales = dict(DEFAULT_PROPOSAL_SCALES)
        if self.proposal_scales is not None:
            unknown = set(self.proposal_scales) - set(BLOCK_NAMES)
            if unknown:
                raise ValidationError(f"unknown proposal scale keys: {sorted(unknown)}")
            scales.update({k: float(v) for k, v in self.proposal_scales.items()})
        if any(not v > 0.0 for v in scales.values()):
            raise ValidationError("proposal scales must be positive")
        object.__setattr__(self, "burn_in", int(burn_in))
        object.__setattr__(self, "proposal_scales", scales)

    @property
    def n_retained(self) -> int:
        return (self.n_iter - self.burn_in) // self.thin


def _safe_exp(x: float) -> float:
    # math.exp raises OverflowError past ~709.78; return inf so callers can
    # reject the proposal instead of crashing (matters for diffuse targets).
    return math.exp(x) if x < EXP_CLAMP else math.inf


class AdaptiveState:
    """Running proposal adaptation of one block.

    Keeps the sums needed for the sample covariance of the block's transformed
    history and a Robbins-Monro-tuned scalar multiplier s. Before adapt_start
    iterations the proposal is an isotropic Gaussian with the configured
    initial scale.

    A two-dimensional block keeps its sums as floats (sum_tt holds the
    entries 00, 01 and 11) and factors its 2 x 2 covariance in closed form,
    with the operations and so the bits of the LAPACK factorisation behind
    np.linalg.cholesky; numpy's per-call overhead dominates at that size.
    """

    def __init__(self, dim, initial_scale, target, adapt_start):
        self.dim = dim
        self.initial_scale = float(initial_scale)
        self.target = float(target)
        self.adapt_start = int(adapt_start)
        self.log_s = math.log(2.38 ** 2 / dim)
        self.count = 0
        if dim == 1:
            self.sum_t = 0.0
            self.sum_tt = 0.0
            self.step_sd = None
        elif dim == 2:
            self.sum_t = [0.0, 0.0]
            self.sum_tt = [0.0, 0.0, 0.0]
            self.chol = None
        else:
            self.sum_t = np.zeros(dim)
            self.sum_tt = np.zeros((dim, dim))
            self.jitter_eye = ADAPT_JITTER * np.eye(dim)
            self.chol = None

    def propose_step(self, rng):
        if self.dim == 1:
            sd = self.initial_scale if self.step_sd is None else self.step_sd
            return sd * rng.standard_normal()
        z = rng.standard_normal(self.dim)
        if self.chol is None:
            return self.initial_scale * z
        return self.chol @ z

    def observe(self, t, accept_prob, iteration):
        """Record the post-update value t and adapt after adapt_start."""
        self.count += 1
        if self.dim == 1:
            self.sum_t += t
            self.sum_tt += t * t
        elif self.dim == 2:
            t0, t1 = t
            self.sum_t[0] += t0
            self.sum_t[1] += t1
            self.sum_tt[0] += t0 * t0
            self.sum_tt[1] += t0 * t1
            self.sum_tt[2] += t1 * t1
        else:
            self.sum_t += t
            self.sum_tt += t[:, None] * t
        if iteration <= self.adapt_start or self.count < 2:
            return
        self.log_s += iteration ** (-RM_DECAY) * (accept_prob - self.target)
        self.log_s = min(max(self.log_s, -23.0), 14.0)
        s = math.exp(self.log_s)
        n = self.count
        if self.dim == 1:
            var = (self.sum_tt - self.sum_t * self.sum_t / n) / (n - 1)
            self.step_sd = math.sqrt(s * (max(var, 0.0) + ADAPT_JITTER))
        elif self.dim == 2:
            (m0, m1), (q00, q01, q11) = self.sum_t, self.sum_tt
            a11 = ((q00 - m0 * m0 / n) / (n - 1) + ADAPT_JITTER) * s
            a21 = ((q01 - m0 * m1 / n) / (n - 1) + 0.0) * s
            a22 = ((q11 - m1 * m1 / n) / (n - 1) + ADAPT_JITTER) * s
            # LAPACK's order: l21 = a21 * (1 / l11), l22 = sqrt(a22 - l21^2);
            # a pivot that is not positive keeps the previous factor, as below
            if a11 > 0.0:
                l11 = math.sqrt(a11)
                l21 = a21 * (1.0 / l11)
                pivot = a22 - l21 * l21
                if pivot > 0.0:
                    self.chol = np.array(((l11, 0.0), (l21, math.sqrt(pivot))))
        else:
            # s * (cov + jitter I), built in place in the order of that expression
            xi = self.sum_t[:, None] * self.sum_t
            xi /= n
            np.subtract(self.sum_tt, xi, out=xi)
            xi /= n - 1
            xi += self.jitter_eye
            xi *= s
            try:
                self.chol = np.linalg.cholesky(xi)
            except np.linalg.LinAlgError:
                # Keep the previous factor; the running covariance can lose
                # definiteness to rounding when the chain has barely moved.
                pass


def variance_posterior_params(prior: InverseGammaPrior, sum_sq: float, n_terms: float):
    """Conjugate Inverse-Gamma posterior parameters for a Gaussian variance."""
    return prior.shape + 0.5 * n_terms, prior.rate + 0.5 * sum_sq


def draw_inverse_gamma(rng, shape: float, rate: float) -> float:
    return 1.0 / rng.gamma(shape, 1.0 / rate)


@dataclass
class PosteriorChain:
    """Retained draws of one chain, the whole stored posterior, and the plate
    whose likelihood it targeted (data; None for a prior-only chain).

    draws has one row per retained draw, in model.DRAW_SCALARS order followed
    by the spline coefficients C in row-major order; blocks derives surfaces
    and log densities from it. Acceptance rates are per block, over the whole
    run and after burn-in.
    """

    draws: np.ndarray
    accept_rates: dict
    accept_rates_after_burn_in: dict
    chain_index: int
    grid: LogConcGrid
    spline: SplineSpec
    linear_scale: str
    data: PlateDataset

    def __len__(self):
        return self.draws.shape[0]

    def row_blocks(self):
        """Successive blocks of at most _REBUILD_BLOCK rows of draws."""
        return (self.draws[start:start + _REBUILD_BLOCK]
                for start in range(0, len(self), _REBUILD_BLOCK))

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

    def coefficient_series(self) -> np.ndarray:
        return self.draws[:, N_SCALARS:].reshape(len(self), self.spline.k1, self.spline.k2)

    def posterior_mean_delta(self) -> SurfaceGrid:
        total = sum(delta.sum(axis=0) for _, _, delta, _ in self.blocks())
        return SurfaceGrid(values=total / len(self), axis1=self.grid.logc1,
                           axis2=self.grid.logc2, label="delta_mean")


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

        self.basis1 = basis_matrix(grid.logc1, spline.knots1, spline.degree)
        self.basis2 = basis_matrix(grid.logc2, spline.knots2, spline.degree)
        self.mask = grid.border_mask()
        u1, u2 = linear_axes(grid, linear_scale)
        # what a unit step of each gamma adds to the predictor B
        self.shift = {"gamma0": 1.0, "gamma1": u1[:, None], "gamma2": u2[None, :]}
        self.prec1 = penalty_precision(spline.k1, spline.penalty_ridge)
        self.prec2 = penalty_precision(spline.k2, spline.penalty_ridge)

        # the sums of the data enter only the sum of squares, which a chain
        # without a likelihood does not compute
        self.n_obs = 0 if prior_only else data.n_obs
        y = data.viability
        self.n_rep, self.s1, self.s2_total = data.n_rep, y.sum(axis=2), float(np.vdot(y, y))

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

        start = initial_state(grid, spline) if initial is None else initial
        if start.C.shape != (spline.k1, spline.k2):
            raise ValidationError("initial C shape does not match the spline layout")
        values = {**vars(start), **{f"sigma2_{name}": value
                                    for name, value in start.sigma2_phi.items()}}
        self.theta = [values[name] for name in DRAW_SCALARS]
        self.C = start.C.copy()

        self.likelihood = not prior_only
        self.f1 = self._curve(grid.logc1, start.m1, start.lambda1)
        self.f2 = self._curve(grid.logc2, start.m2, start.lambda2)
        self.p0_parts = self._p0_parts(self.f1, self.f2)
        shift = self.shift
        lin = start.gamma0 + start.gamma1 * shift["gamma1"] + start.gamma2 * shift["gamma2"]
        self.bpred = lin + self.basis1 @ self.C @ self.basis2.T
        self.slopes = self._slopes(start.b1, start.b2)
        self.link_parts = self._link_parts(self.bpred, self.slopes)
        self.quad = float(np.sum(self.prec2 * (self.C.T @ self.prec1 @ self.C)))
        self.delta, self.ss = self._fit(self.p0_parts, self.link_parts)

        start_ll = self._loglik(self.ss, start.sigma2_eps)
        start_lp = log_prior(start, priors, spline)
        if not (math.isfinite(start_ll) and math.isfinite(start_lp)):
            raise InitializationError(
                f"non-finite posterior at initialization "
                f"(loglik={start_ll}, logprior={start_lp})")

        hc = priors.variance_prior if isinstance(priors.variance_prior, HalfCauchyPrior) else None
        self.hc = hc
        self.ig = priors.variance_prior if hc is None else None

        self.adapters = {}
        for name in BLOCK_NAMES:
            if name not in self.active:
                continue
            if name.startswith("sigma2_") and self.ig is not None:
                continue  # conjugate draws need no tuning
            dim = {"b": 2, "C": spline.k1 * spline.k2}.get(name, 1)
            target = TARGET_ACCEPT_SCALAR if dim == 1 else TARGET_ACCEPT_MULTI
            self.adapters[name] = AdaptiveState(
                dim=dim, initial_scale=config.proposal_scales[name], target=target,
                adapt_start=config.adapt_start)
        self.accepted = {name: 0 for name in self.adapters}
        self.proposed = {name: 0 for name in self.adapters}

    # -- numerics ----------------------------------------------------------

    # Delta = -p0 / (1 + exp(b1 B)) + (1 - p0) / (1 + exp(-b2 B)), as in
    # model.link_values, with the same operations. Each block update changes
    # either p0 (m, lambda) or the denominators (b, gamma, C), so the sampler
    # keeps the numerators and the denominators, each pair stacked on a
    # leading axis of two, and recomputes only the pair a proposal touches.
    # Without a likelihood nothing on the grid enters an acceptance ratio:
    # these helpers then skip the grid and _fit reports ss = 0.0, the exact
    # value the full computation gives when there is no data.

    def _curve(self, axis, m, lam):
        return curve_values(axis, m, lam) if self.likelihood else None

    def _p0_parts(self, f1, f2):
        """p0 = f1 f2^T and the stacked numerators -p0 and 1 - p0."""
        if not self.likelihood:
            return None
        p0 = f1[:, None] * f2
        # 0.0 - p0 is -p0 up to the sign of a zero, which leaves Delta unchanged
        return p0, np.subtract(_NUMERATOR_SHIFT, p0)

    @staticmethod
    def _slopes(b1, b2):
        """b1 and -b2 on a leading axis: the link's exponents are slopes * B."""
        return np.array((b1, -b2)).reshape(2, 1, 1)

    def _link_parts(self, bpred, slopes):
        """The stacked denominators 1 + exp(b1 B) and 1 + exp(-b2 B)."""
        if not self.likelihood:
            return None
        d = bpred * slopes
        np.maximum(d, -EXP_CLAMP, out=d)
        np.minimum(d, EXP_CLAMP, out=d)
        np.exp(d, out=d)
        d += 1.0
        return d

    def _fit(self, p0_parts, link_parts):
        """Delta and the residual sum of squares of the plate under p0 + Delta."""
        if not self.likelihood:
            return None, 0.0
        p0, numerators = p0_parts
        terms = numerators / link_parts
        delta = np.add(terms[0], terms[1], out=terms[0])
        delta *= self.mask
        p = p0 + delta
        ss = self.n_rep * float(np.vdot(p, p)) - 2.0 * float(np.vdot(p, self.s1)) + self.s2_total
        return delta, ss

    def _loglik(self, ss, s2eps):
        if self.n_obs == 0:
            return 0.0
        return -0.5 * self.n_obs * math.log(2.0 * math.pi * s2eps) - ss / (2.0 * s2eps)

    def _lik_ratio(self, ssc):
        """Log-likelihood ratio of a proposal with residual sum of squares ssc."""
        return -(ssc - self.ss) / (2.0 * self.theta[COLUMN["sigma2_eps"]])

    def _normal_cost(self, name, cur, cand):
        """Minus the log ratio of the N(0, sigma2_name) prior at cand and cur."""
        return (cand * cand - cur * cur) / (2.0 * self.theta[COLUMN["sigma2_" + name]])

    def _step(self, name, log_a, t, tc, iteration):
        """Metropolis decision on log_a for block name, counted, with the block's
        adaptation fed the transformed value it keeps: tc on acceptance, t
        otherwise. A non-finite log_a rejects without drawing a uniform."""
        if not math.isfinite(log_a):
            a, ok = 0.0, False
        elif log_a >= 0.0:
            a, ok = 1.0, True
        else:
            a = math.exp(log_a)
            ok = self.rng.random() < a
        self.proposed[name] += 1
        if ok:
            self.accepted[name] += 1
        self.adapters[name].observe(tc if ok else t, a, iteration)
        return ok

    # -- block updates -----------------------------------------------------
    # Each log ratio is summed left to right in a fixed order; the bits of the
    # stream depend on it.

    def _update_curve(self, name, iteration):
        """m1, m2, lambda1 or lambda2: one drug's monotherapy curve, so p0 moves
        and the link's denominators stay. m walks on its own scale under its
        N(0, sigma2_m) prior; lambda walks on the log scale, where its Gamma
        prior and the Jacobian give (cand/cur)^shape * exp(-rate * (cand - cur))."""
        th, drug = self.theta, name[-1]
        cur = th[COLUMN[name]]
        if name.startswith("lambda"):
            t = math.log(cur)
            tc = t + self.adapters[name].propose_step(self.rng)
            cand = _safe_exp(tc)
            if not (math.isfinite(cand) and cand > 0.0):
                self._step(name, -math.inf, t, tc, iteration)
                return
            prior = self.priors.lambda1 if drug == "1" else self.priors.lambda2
            gain, cost = prior.shape * (tc - t), prior.rate * (cand - cur)
            m, lam, kept = th[COLUMN["m" + drug]], cand, math.log(cand)
        else:
            t = cur
            cand = cur + self.adapters[name].propose_step(self.rng)
            gain, cost = 0.0, self._normal_cost(name, cur, cand)
            m, lam, kept = cand, th[COLUMN["lambda" + drug]], cand
        if drug == "1":
            f1c, f2c = self._curve(self.grid.logc1, m, lam), self.f2
        else:
            f1c, f2c = self.f1, self._curve(self.grid.logc2, m, lam)
        p0c = self._p0_parts(f1c, f2c)
        deltac, ssc = self._fit(p0c, self.link_parts)
        if self._step(name, self._lik_ratio(ssc) + gain - cost, t, kept, iteration):
            th[COLUMN[name]] = cand
            self.f1, self.f2 = f1c, f2c
            self.p0_parts, self.delta, self.ss = p0c, deltac, ssc

    def _update_b(self, iteration):
        th = self.theta
        b1, b2 = th[COLUMN["b1"]], th[COLUMN["b2"]]
        t = (math.log(b1), math.log(b2))
        step = self.adapters["b"].propose_step(self.rng).tolist()
        tc = (t[0] + step[0], t[1] + step[1])
        b1c, b2c = _safe_exp(tc[0]), _safe_exp(tc[1])
        if not (b1c > 0.0 and b2c > 0.0 and math.isfinite(b1c) and math.isfinite(b2c)):
            self._step("b", -math.inf, t, tc, iteration)
            return
        slopesc = self._slopes(b1c, b2c)
        linkc = self._link_parts(self.bpred, slopesc)
        deltac, ssc = self._fit(self.p0_parts, linkc)
        log_a = (self._lik_ratio(ssc)
                 + self.priors.b1.shape * (tc[0] - t[0])
                 - self.priors.b1.rate * (b1c - b1)
                 + self.priors.b2.shape * (tc[1] - t[1])
                 - self.priors.b2.rate * (b2c - b2))
        if self._step("b", log_a, t, tc, iteration):
            th[COLUMN["b1"]], th[COLUMN["b2"]] = b1c, b2c
            self.slopes, self.link_parts = slopesc, linkc
            self.delta, self.ss = deltac, ssc

    def _update_gamma(self, name, iteration):
        th = self.theta
        cur = th[COLUMN[name]]
        step = self.adapters[name].propose_step(self.rng)
        cand = cur + step
        bpredc = self.bpred + step * self.shift[name]
        linkc = self._link_parts(bpredc, self.slopes)
        deltac, ssc = self._fit(self.p0_parts, linkc)
        log_a = self._lik_ratio(ssc) - self._normal_cost(name, cur, cand)
        if self._step(name, log_a, cur, cand, iteration):
            th[COLUMN[name]] = cand
            self.bpred, self.link_parts = bpredc, linkc
            self.delta, self.ss = deltac, ssc

    def _update_C(self, iteration):
        step = self.adapters["C"].propose_step(self.rng)
        dC = step.reshape(self.C.shape)
        Cc = self.C + dC
        dspl = self.basis1 @ dC @ self.basis2.T
        bpredc = self.bpred + dspl
        linkc = self._link_parts(bpredc, self.slopes)
        deltac, ssc = self._fit(self.p0_parts, linkc)
        quadc = float((self.prec2 * (Cc.T @ self.prec1 @ Cc)).sum())
        log_a = self._lik_ratio(ssc) - 0.5 * (quadc - self.quad)
        if self._step("C", log_a, self.C.ravel(), Cc.ravel(), iteration):
            self.C = Cc
            self.bpred, self.link_parts = bpredc, linkc
            self.quad = quadc
            self.delta, self.ss = deltac, ssc

    def _update_variance(self, name, iteration):
        """sigma2_eps or one sigma2_phi as the variance of n_terms Gaussian
        terms with sum of squares sum_sq: an exact draw under the Inverse-Gamma
        prior, a random walk on log sigma under the half-Cauchy prior."""
        th, k = self.theta, COLUMN[name]
        if name == "sigma2_eps":
            sum_sq, n_terms = self.ss, float(self.n_obs)
        else:
            phi = th[COLUMN[name.removeprefix("sigma2_")]]
            sum_sq, n_terms = phi * phi, 1.0
        if self.ig is not None:
            shape, rate = variance_posterior_params(self.ig, sum_sq, n_terms)
            th[k] = draw_inverse_gamma(self.rng, shape, rate)
            return
        s2 = th[k]
        t = 0.5 * math.log(s2)
        tc = t + self.adapters[name].propose_step(self.rng)
        s2c = _safe_exp(2.0 * tc)
        if not (math.isfinite(s2c) and s2c > 0.0):
            self._step(name, -math.inf, t, tc, iteration)
            return
        h2 = self.hc.scale * self.hc.scale
        log_a = ((1.0 - n_terms) * (tc - t)
                 - 0.5 * sum_sq * (1.0 / s2c - 1.0 / s2)
                 + math.log(s2 + h2) - math.log(s2c + h2))
        if self._step(name, log_a, t, tc, iteration):
            th[k] = s2c

    # -- main loop ---------------------------------------------------------

    def run(self) -> PosteriorChain:
        cfg = self.config
        draws = np.empty((cfg.n_retained, N_SCALARS + self.C.size))
        updates = {
            "b": self._update_b, "C": self._update_C,
            **{name: partial(self._update_curve, name)
               for name in ("m1", "m2", "lambda1", "lambda2")},
            **{name: partial(self._update_gamma, name) for name in ("gamma0", "gamma1", "gamma2")},
            **{name: partial(self._update_variance, name)
               for name in BLOCK_NAMES if name.startswith("sigma2_")},
        }
        sweep = [updates[name] for name in BLOCK_NAMES if name in self.active]
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
                row[N_SCALARS:] = self.C.ravel()
        counts = self._counts()
        after = {name: (a - at_burn_in[name][0], n - at_burn_in[name][1])
                 for name, (a, n) in counts.items()}
        return PosteriorChain(
            draws=draws, accept_rates=_rates(counts), accept_rates_after_burn_in=_rates(after),
            chain_index=self.chain_index, grid=self.grid, spline=self.spline,
            linear_scale=self.linear_scale, data=self.data)

    def _counts(self):
        """(accepted, proposed) of every adapted block so far."""
        return {name: (self.accepted[name], self.proposed[name]) for name in self.adapters}


def _rates(counts):
    return {name: accepted / proposed if proposed else 0.0
            for name, (accepted, proposed) in counts.items()}


def run_chain(data: PlateDataset, priors: PriorSpec = None, spline: SplineSpec = None,
              config: ChainConfig = None, linear_scale: str = "log10",
              update_blocks=None, prior_only: bool = False,
              initial: ParameterState = None, chain_index: int = 0) -> PosteriorChain:
    """Run one adaptive Metropolis-within-Gibbs chain on a plate.

    update_blocks restricts sampling to a subset of BLOCK_NAMES (the rest stay
    at their starting values); prior_only drops the likelihood so the chain
    targets the prior. Results are a deterministic function of
    (config.seed, chain_index).
    """
    priors = PriorSpec() if priors is None else priors
    config = ChainConfig() if config is None else config
    if spline is None:
        spline = SplineSpec.for_grid(LogConcGrid.from_dataset(data),
                                     penalty_ridge=priors.spline_penalty_ridge)
    sampler = _Sampler(data, priors, spline, config, linear_scale, update_blocks,
                       prior_only, initial, chain_index)
    return sampler.run()


def chain_from_draws(data: PlateDataset, draws: np.ndarray, spline: SplineSpec = None,
                     linear_scale: str = "log10", chain_index: int = 0) -> PosteriorChain:
    """A PosteriorChain of stored draws of a fit to data, such as the rows of
    one chain of a samples file; it has no acceptance rates."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[0] < 1:
        raise ValidationError("need a (draws, columns) array with at least one draw")
    grid = LogConcGrid.from_dataset(data)
    if spline is None:
        spline = SplineSpec.for_grid(grid)
    return PosteriorChain(draws=draws, accept_rates={}, accept_rates_after_burn_in={},
                          chain_index=chain_index, grid=grid, spline=spline,
                          linear_scale=linear_scale, data=data)


def run_chains(data: PlateDataset, n_chains: int, priors: PriorSpec = None,
               spline: SplineSpec = None, config: ChainConfig = None,
               linear_scale: str = "log10") -> list:
    """Run independent chains with per-chain RNG streams derived from the seed.

    Chain index seeds the stream, so results do not depend on execution order
    or on how many workers the host offers.
    """
    if n_chains < 1:
        raise ValidationError("n_chains must be at least 1")
    return [run_chain(data, priors=priors, spline=spline, config=config,
                      linear_scale=linear_scale, chain_index=i)
            for i in range(n_chains)]
