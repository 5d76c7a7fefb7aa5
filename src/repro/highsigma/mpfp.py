"""Gradient-driven most-probable-failure-point (MPFP) search.

The MPFP (design point, in structural-reliability language) is the
failure-region point closest to the origin in u-space:

    u* = argmin ||u||  subject to  g(u) <= 0.

Because the standard-normal density decays with ``exp(-||u||^2/2)``, the
failure probability mass concentrates around u*, which is why a Gaussian
mean-shifted there is a near-optimal importance distribution.

The search is the improved Hasofer–Lind–Rackwitz–Fiessler (iHL-RF)
iteration: each step linearises ``g`` with a (finite-difference or
user-supplied) gradient, jumps to the closest point of the linearised
boundary, and damps the jump with an Armijo backtracking line search on
the standard merit function ``m(u) = ||u||^2 / 2 + c |g(u)|``.  This is
the *gradient* part of gradient importance sampling: where blind
pre-sampling methods spend thousands of simulations hunting for a first
failure, the gradient walks straight down the margin surface in tens.

All limit-state evaluations (including those inside finite-difference
gradients) are billed through the limit state's counter — search cost is
part of every reported evaluation count.

With ``n_shards > 1`` every gradient batch (finite-difference stencil or
SPSA probe set) runs through
:meth:`~repro.highsigma.limitstate.LimitState.g_batch_sharded`: its rows
split into ``n_shards`` contiguous blocks on a ``workers``-process pool.
The search then depends on ``n_shards`` (a block may round differently
from the whole batch — on the 96-axis array slice the two halves are
bit-equal to it, on a 6T write stencil three or four blocks are not) but
never on ``workers``, and the stencil shards never touch the search's
RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.engine.sharding import RetryPolicy
from repro.errors import SearchError
from repro.highsigma.limitstate import LimitState

__all__ = ["MpfpOptions", "MpfpResult", "MpfpSearch"]


@dataclass(frozen=True)
class MpfpOptions:
    """Search controls.

    ``fd_step`` must comfortably exceed the simulator's metric noise
    (adaptive-timestep jitter is ~0.1 % of a delay; a 0.05-sigma
    parameter step moves a 6T read delay by percents, so the default is
    safely above the noise floor).
    """

    max_iterations: int = 60
    fd_step: float = 0.05
    grad_mode: str = "central"  # "central" | "forward" | "spsa"
    spsa_repeats: int = 4
    tol_g: float = 1e-3         # |g|/scale at convergence
    tol_align: float = 5e-3     # 1 - cos(u, -grad) at convergence
    min_grad_norm: float = 1e-12
    armijo_shrink: float = 0.5
    armijo_max_backtracks: int = 8


@dataclass
class MpfpResult:
    """Search outcome.

    ``beta`` is the reliability index ``||u*||`` — the headline number a
    FORM analysis would report as the sigma level.  ``trajectory`` holds
    ``(u, g)`` pairs per accepted iterate for the search-cost figure.
    """

    u_star: np.ndarray
    beta: float
    g_value: float
    iterations: int
    n_evals: int
    converged: bool
    trajectory: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    message: str = ""
    g_start: float = float("nan")

    def near_boundary(self, rel: float = 0.2) -> bool:
        """Whether the returned point actually sits near ``g = 0``.

        ``converged=False`` results can still be serviceable shift points
        — but only if the margin shrank substantially relative to where
        the search started; a flat or failure-free metric never passes.
        """
        if self.converged or self.g_value <= 0.0:
            return True
        scale = abs(self.g_start)
        if not np.isfinite(scale) or scale == 0.0:
            return False
        return abs(self.g_value) < rel * scale


class MpfpSearch:
    """iHL-RF search over a :class:`~repro.highsigma.limitstate.LimitState`.

    Parameters
    ----------
    limit_state:
        The margin field; failure is ``g <= 0``.
    options:
        Iteration controls.
    grad_fn:
        Optional exact gradient ``grad_fn(u) -> array`` (analytic limit
        states); otherwise finite differences per ``options.grad_mode``.
    workers / n_shards / retry:
        Gradient batches split into ``n_shards`` contiguous row blocks
        run on ``workers`` processes under ``retry``
        (:meth:`~repro.highsigma.limitstate.LimitState.g_batch_sharded`);
        with the default ``n_shards=1`` that is one plain ``g_batch``.
    """

    def __init__(
        self,
        limit_state: LimitState,
        options: Optional[MpfpOptions] = None,
        grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        workers: int = 1,
        n_shards: int = 1,
        retry: Optional[RetryPolicy] = None,
    ):
        self.ls = limit_state
        self.opts = options or MpfpOptions()
        self._grad_fn = grad_fn
        self.workers = max(1, int(workers))
        self.n_shards = max(1, int(n_shards))
        self.retry = retry

    # ------------------------------------------------------------------

    def _stencil_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.ls.g_batch_sharded(
            rows, self.n_shards, workers=self.workers, retry=self.retry
        )

    def _gradient(self, u: np.ndarray, g_u: float, rng: np.random.Generator) -> np.ndarray:
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(u), dtype=float)
        opts = self.opts
        if opts.grad_mode in ("central", "forward"):
            return self.ls.fd_gradient(
                u, step=opts.fd_step, scheme=opts.grad_mode, g0=g_u,
                evaluate=self._stencil_batch,
            )
        if opts.grad_mode == "spsa":
            return self.ls.spsa_gradient(
                u, rng, step=opts.fd_step, repeats=opts.spsa_repeats,
                evaluate=self._stencil_batch,
            )
        raise SearchError(f"unknown grad_mode {self.opts.grad_mode!r}")

    def run(
        self,
        u0: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> MpfpResult:
        """Search from ``u0`` (origin by default); returns the design point.

        Raises :class:`~repro.errors.SearchError` only for setup problems;
        a search that merely fails to meet tolerances returns with
        ``converged=False`` so callers can decide (the GIS driver falls
        back to the best iterate, which is usually serviceable).
        """
        rng = rng if rng is not None else np.random.default_rng()
        opts = self.opts
        evals_before = self.ls.n_evals

        u = np.zeros(self.ls.dim) if u0 is None else np.asarray(u0, dtype=float).copy()
        g_u = self.ls.g(u)
        # Normalise g by its magnitude at the start point so tolerances and
        # the merit function are scale-free (metrics are seconds or volts).
        scale = abs(g_u)
        if scale < 1e-300:
            scale = 1.0
        trajectory: List[Tuple[np.ndarray, float]] = [(u.copy(), g_u)]
        converged = False
        message = "max iterations reached"
        best = (float("inf"), u.copy(), g_u)

        for iteration in range(1, opts.max_iterations + 1):
            grad = self._gradient(u, g_u, rng)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < opts.min_grad_norm * scale:
                # Flat spot (deep in a penalty plateau or a dead metric):
                # kick in a random direction rather than dividing by ~0.
                u = u + rng.standard_normal(self.ls.dim) * 0.5
                g_u = self.ls.g(u)
                trajectory.append((u.copy(), g_u))
                continue

            gn = g_u / scale
            gradn = grad / scale

            # Convergence check: on the boundary and anti-aligned with grad.
            u_norm = float(np.linalg.norm(u))
            if u_norm > 0:
                cos = float(-(u @ gradn) / (u_norm * np.linalg.norm(gradn)))
                aligned = (1.0 - cos) < opts.tol_align
            else:
                aligned = False
            if abs(gn) < opts.tol_g and aligned:
                converged = True
                message = f"converged in {iteration - 1} iterations"
                break

            # HL-RF step target: closest point on the linearised boundary.
            target = ((gradn @ u - gn) / float(gradn @ gradn)) * gradn
            direction = target - u

            # Armijo backtracking on the merit function
            # m(u) = 0.5 ||u||^2 + c |g(u)| with the standard c rule.
            c_merit = 2.0 * u_norm / np.linalg.norm(gradn) + 10.0
            m_u = 0.5 * u_norm**2 + c_merit * abs(gn)
            lam = 1.0
            accepted = False
            for _ in range(opts.armijo_max_backtracks):
                u_try = u + lam * direction
                g_try = self.ls.g(u_try)
                m_try = 0.5 * float(u_try @ u_try) + c_merit * abs(g_try / scale)
                if m_try < m_u - 1e-4 * lam * float(direction @ direction):
                    u, g_u = u_try, g_try
                    accepted = True
                    break
                lam *= opts.armijo_shrink
            if not accepted:
                # Take the smallest step anyway; stagnation is handled by
                # the iteration cap.
                u = u + lam * direction
                g_u = self.ls.g(u)

            trajectory.append((u.copy(), g_u))
            if abs(g_u / scale) < 10 * opts.tol_g:
                norm_now = float(np.linalg.norm(u))
                if norm_now < best[0]:
                    best = (norm_now, u.copy(), g_u)

        if not converged and best[0] < float("inf"):
            # Fall back to the best near-boundary iterate seen.
            _norm, u, g_u = best
            message += "; returning best near-boundary iterate"

        return MpfpResult(
            u_star=u,
            beta=float(np.linalg.norm(u)),
            g_value=g_u,
            iterations=len(trajectory) - 1,
            n_evals=self.ls.n_evals - evals_before,
            converged=converged,
            trajectory=trajectory,
            message=message,
            g_start=trajectory[0][1],
        )
