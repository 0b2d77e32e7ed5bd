"""Fixed-step and embedded adaptive integration with positivity clamping.

The workhorse is classic fourth-order Runge-Kutta on a fixed grid, which
preserves linear conserved quantities to roundoff and is plenty for the
small, smooth systems in scope; integrate_batch holds the one fixed-step
loop and integrate runs a single start as a batch of one. An embedded
Cash-Karp 5(4) pair is available when adaptive stepping is wanted. Both
loops evaluate the field once per accepted state, for the next step's first
stage and the settle test alike. States are clamped to the nonnegative
orthant: excursions within CLAMP_TOL are zeroed; a worse one shrinks the
adaptive step and aborts a fixed-step run; an overflow (inf or NaN) ends
it with NonFiniteValue. A run that would keep more than MAX_SAMPLES states
is refused with ParseError before anything is allocated. The adaptive
error tolerances are REL_TOL and ABS_TOL. Sampled starts use the IC_LOW,
IC_HIGH and IC_FLOOR constants, and an endpoint counts as converged within
CONV_REL_TOL of its target.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, ParseError, PositivityViolation, StepUnderflow

DEFAULT_STEP = 0.01
CLAMP_TOL = 1e-12
REL_TOL = 1e-8
ABS_TOL = 1e-10
MIN_ADAPTIVE_STEP = 1e-12
IC_LOW = 1e-3
IC_HIGH = 10.0
IC_FLOOR = 1e-3
CONV_REL_TOL = 1e-3
MAX_SAMPLES = 10_000_000  # 25 x the largest default run, lyapunov's 20 x 20,001


@dataclass(frozen=True)
class IntegratorConfig:
    """Knobs for integrate / integrate_batch.

    settle_tol, when set, stops the run early once the vector field norm
    falls below settle_tol * (1 + |x|): useful for convergence studies where
    the tail adds nothing. The positivity clamp and adaptive error
    tolerances are the module constants CLAMP_TOL, REL_TOL and ABS_TOL.
    """

    step: float = DEFAULT_STEP
    adaptive: bool = False
    settle_tol: float | None = None


@dataclass
class Trajectory:
    """Sampled solution: times (T,), states (T, d)."""

    times: np.ndarray
    states: np.ndarray
    terminated_early: bool = False
    reason: str | None = None

    def to_csv(self, names: list[str]) -> str:
        if len(names) != self.states.shape[1]:
            raise ValueError("one column name per state coordinate required")
        buf = io.StringIO()
        buf.write("t," + ",".join(names) + "\n")
        # .tolist() yields Python floats, whose repr is the bare shortest form.
        for t, row in zip(self.times.tolist(), self.states.tolist()):
            buf.write(repr(t) + "," + ",".join(map(repr, row)) + "\n")
        return buf.getvalue()


@dataclass
class BatchTrajectory:
    """Shared-clock batch of solutions: times (T,), states (T, N, d)."""

    times: np.ndarray
    states: np.ndarray
    terminated_early: bool = False
    reason: str | None = None

    def single(self, i: int) -> Trajectory:
        return Trajectory(times=self.times, states=self.states[:, i, :],
                          terminated_early=self.terminated_early, reason=self.reason)


def _beyond_clamp(x: np.ndarray, worst: float) -> bool:
    """Whether x (least entry worst) leaves the orthant beyond CLAMP_TOL, or is NaN."""
    return not worst >= -CLAMP_TOL * max(1.0, float(np.max(np.abs(x))))


def _require_finite(x: np.ndarray, what: str = "state") -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteValue(f"{what} is not finite (overflow)")
    return x


def _clamp(x: np.ndarray) -> np.ndarray:
    worst = float(np.min(x)) if x.size else 0.0
    if worst >= 0.0:
        return x
    _require_finite(x)
    if _beyond_clamp(x, worst):
        raise PositivityViolation(
            f"state left the nonnegative orthant by {-worst:.3e}"
        )
    return np.maximum(x, 0.0)


def fixed_steps(horizon: float, step: float, n_starts: int = 1) -> int:
    """Steps of a fixed-step run; ParseError if (steps + 1) * n_starts > MAX_SAMPLES."""
    ratio = horizon / step
    n_steps = max(1, int(round(ratio))) if ratio <= MAX_SAMPLES else MAX_SAMPLES
    if (n_steps + 1) * n_starts > MAX_SAMPLES:
        raise ParseError(f"horizon / step = {ratio:.6g} steps from {n_starts} start(s) "
                         f"would keep more than MAX_SAMPLES = {MAX_SAMPLES:,} states")
    return n_steps


def _rk4_step(rhs, x, h, k1):
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Cash-Karp embedded 5(4) tableau.
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _ck_step(rhs, x, h, k1):
    ks = [k1]
    for row in _CK_A[1:]:
        xi = x + h * sum(a * k for a, k in zip(row, ks))
        ks.append(rhs(xi))
    x5 = x + h * sum(b * k for b, k in zip(_CK_B5, ks))
    x4 = x + h * sum(b * k for b, k in zip(_CK_B4, ks))
    return x5, x5 - x4


def integrate(rhs, x0, horizon: float,
              config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate x' = rhs(x) from x0 over [0, horizon].

    Fixed-step RK4 by default, run as integrate_batch on a batch of one, so
    rhs must accept (1, d) arrays; Cash-Karp 5(4) with proportional step
    control when config.adaptive is set. Every accepted state is clamped to
    the nonnegative orthant within CLAMP_TOL; an adaptive step that leaves
    it further is rejected and shrunk, like one with too large an error.

    Raises
    ------
    PositivityViolation
        If a fixed step leaves the orthant beyond the clamp tolerance.
    NonFiniteValue
        If the state or the field overflows.
    StepUnderflow
        If adaptive stepping cannot meet tolerance above the step floor.
    ParseError
        If the run would keep more than MAX_SAMPLES states.
    """
    cfg = config or IntegratorConfig()
    x = np.array(x0, dtype=float).ravel()
    if cfg.adaptive:
        return _integrate_adaptive(rhs, x, horizon, cfg)
    return integrate_batch(rhs, x[None, :], horizon, cfg).single(0)


def _integrate_adaptive(rhs, x, horizon, cfg) -> Trajectory:
    t = 0.0
    h = cfg.step
    times = [0.0]
    states = [x.copy()]
    early = False
    reason = None
    k1 = _require_finite(rhs(x), "vector field")
    while t < horizon - 1e-15:
        h = min(h, horizon - t)
        x_new, err = _ck_step(rhs, x, h, k1)
        scale = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(x_new))
        ratio = float(np.max(np.abs(err) / scale))
        if x_new.size and _beyond_clamp(x_new, float(np.min(x_new))):
            ratio = max(ratio, 2.0)  # too long a step, whatever its error estimate
        if ratio <= 1.0:
            if len(times) >= MAX_SAMPLES:
                raise ParseError(f"adaptive run hit MAX_SAMPLES = {MAX_SAMPLES:,} states")
            x = _clamp(x_new)
            t += h
            times.append(t)
            states.append(x.copy())
            k1 = _require_finite(rhs(x), "vector field")
            if cfg.settle_tol is not None and float(np.max(np.abs(k1))) <= \
                    cfg.settle_tol * (1.0 + float(np.max(np.abs(x)))):
                early = True
                reason = "settled"
                break
            h *= min(5.0, max(0.2, 0.9 * ratio ** -0.2)) if ratio > 0 else 5.0
        else:
            h *= max(0.2, 0.9 * ratio ** -0.25)
            if h < MIN_ADAPTIVE_STEP:
                raise StepUnderflow(f"adaptive step fell below {MIN_ADAPTIVE_STEP:g}")
    return Trajectory(times=np.array(times), states=np.array(states),
                      terminated_early=early, reason=reason)


def integrate_batch(rhs, X0, horizon: float,
                    config: IntegratorConfig | None = None) -> BatchTrajectory:
    """Fixed-step RK4 on a stack of initial conditions (N, d), shared clock.

    rhs must accept (..., d) arrays. With settle_tol set, the run stops once
    every member of the batch has settled. Raises as integrate does.
    """
    cfg = config or IntegratorConfig()
    X = np.array(X0, dtype=float)
    if X.ndim != 2:
        raise ValueError("X0 must have shape (N, d)")
    n_steps = fixed_steps(horizon, cfg.step, X.shape[0])
    step, tol = cfg.step, cfg.settle_tol
    # Every state is a fresh array (the RK4 update or the clamp makes it),
    # so the list holds them without copies.
    states = [X]
    early = False
    reason = None
    k1 = rhs(X)
    for _ in range(n_steps):
        X = _rk4_step(rhs, X, step, k1)
        if not X.min(initial=0.0) >= 0.0:  # NaN fails this too
            X = _clamp(X)
        states.append(X)
        k1 = rhs(X)
        if tol is not None:
            size = np.abs(k1)
            # X >= 0 here, so every row settling implies the batch-wide
            # bound; the per-row test runs only once that cheap bound holds.
            if size.max(initial=0.0) <= tol * (1.0 + X.max(initial=0.0)) and \
                    np.all(size.max(axis=-1) <= tol * (1.0 + X.max(axis=-1))):
                early = True
                reason = "settled"
                break
    _require_finite(X)  # NaN fails the clamp test; inf stays inf or turns NaN
    return BatchTrajectory(times=np.arange(len(states)) * step, states=np.array(states),
                           terminated_early=early, reason=reason)


def sample_initial_conditions(rng: np.random.Generator, n: int,
                              reference: np.ndarray) -> np.ndarray:
    """Log-uniform positive starts around a reference profile.

    Each coordinate is reference_j (or 1 where the reference vanishes)
    times a log-uniform factor in [IC_LOW, IC_HIGH], floored at IC_FLOOR so
    no start sits on a coordinate face. A start that overflows (a reference
    entry near the float limit) raises NonFiniteValue.
    """
    ref = np.asarray(reference, dtype=float).ravel()
    ref = np.where(ref > 0.0, ref, 1.0)
    u = rng.uniform(np.log(IC_LOW), np.log(IC_HIGH), size=(n, ref.size))
    return _require_finite(np.maximum(np.exp(u) * ref, IC_FLOOR), "a sampled start")


def convergence_fraction(final: np.ndarray, target: np.ndarray) -> float:
    """Share of endpoints (N, d) within CONV_REL_TOL * max(1, |target|) of
    target in the sup-norm."""
    dist = np.max(np.abs(final - target[None, :]), axis=-1)
    return float(np.mean(dist <= CONV_REL_TOL * max(1.0, float(np.max(np.abs(target))))))
