"""Wirtinger flow for the superposed bilinear recovery objective.

The objective is f(z) = sum_j |sum_i b_j^H h_i x_i^H a_ij - y_j|^2 over the
stacked complex blocks z = (h_1, x_1, ..., h_s, x_s).  Gradients follow the
Wirtinger convention df = 2*eps*Re<delta, grad> for a real perturbation step
eps along delta, and the update scales each block's step by the partner
block's squared norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import metrics
from .ensemble import (GroundTruth, ProblemInstance, _check_sizes, _complex_gaussian,
                       _is_count, _rows_product, _Sizes, measurement_factors)
from .errors import (BlaircompError, DegenerateAlignmentError, DegenerateIterateError,
                     DimensionMismatchError, DivergenceError, ParameterError,
                     UndefinedMetricError)

_DIVERGENCE_FACTOR = 1e6
# Iterations whose log points share one snapshot_metrics call (at least one
# point per call).  Tolerances are tested once per block, so a run that stops
# has taken fewer than this many steps past its stop, which are discarded.
_METRIC_BLOCK = 32


@dataclass
class Iterate:
    """A vector of the block space z = (h_1, x_1, ..., h_s, x_s): an
    iterate, a gradient or a step, with optional leading run axes."""

    h: np.ndarray   # (..., s, K) complex
    x: np.ndarray   # (..., s, N) complex


@dataclass(frozen=True)
class SolverSettings:
    """Step size, iteration budget, and stopping/logging policy.

    ``tol`` stops on relative error (needs ground truth, simulation only);
    ``inf`` turns the test off.  The default step size is the
    experimental value 0.1; pass eta ~ c/s for the theoretical scaling at
    large node counts.
    """

    eta: float = 0.1
    max_iters: int = 500
    tol: float = np.inf
    cadence: int = 1

    def __post_init__(self):
        if not 0.0 < self.eta < np.inf:         # also rejects NaN
            raise ParameterError("eta must be finite and > 0")
        if not self.tol > 0.0:
            raise ParameterError("tol must be > 0")
        if not _is_count(self.max_iters):
            raise ParameterError("max_iters must be an integer >= 1")
        if not _is_count(self.cadence):
            raise ParameterError("cadence must be an integer >= 1")


def _metric(name: str) -> property:
    return property(lambda self: self._metric_columns()[name])


@dataclass
class StateTrace:
    """Per-logged-iteration history of a solver run plus run metadata.

    The sizes, ``final``, ``n_iters`` and ``converged`` are read from the
    arrays and the stop reason.  The truth metrics are read-only columns,
    one per ``MetricSnapshot`` field, each with a leading log-point axis.
    ``run_wf`` computes them in its loop only when a tolerance needs them;
    otherwise the first read fills them all, with one ``snapshot_metrics``
    call over every log point.
    """

    t: np.ndarray                 # (T,) logged iteration indices
    loss: np.ndarray              # (T,)
    h: np.ndarray                 # (T, s, K) logged iterates
    x: np.ndarray                 # (T, s, N)
    truth: GroundTruth            # the run's truth, h (s, K), x (s, N), q (s,)
    m: int
    eta: float
    stop_reason: str              # "tol" or "max_iters"
    _metrics: Optional[Dict[str, np.ndarray]] = field(default=None, repr=False,
                                                      compare=False)

    s = property(lambda self: self.h.shape[-2])
    K = property(lambda self: self.h.shape[-1])
    N = property(lambda self: self.x.shape[-1])
    n_iters = property(lambda self: int(self.t[-1]))    # every run ends at a log point
    converged = property(lambda self: self.stop_reason == "tol")
    final = property(lambda self: Iterate(h=self.h[-1], x=self.x[-1]))   # at n_iters
    q = property(lambda self: self.truth.q)

    def _metric_columns(self) -> Dict[str, np.ndarray]:
        if self._metrics is None:
            self._metrics = vars(
                metrics.snapshot_metrics(Iterate(h=self.h, x=self.x), self.truth))
        return self._metrics


for _field in fields(metrics.MetricSnapshot):
    setattr(StateTrace, _field.name, _metric(_field.name))


@dataclass
class RunBatch:
    """The runs of one multi-run ``run_wf`` call, in row order.

    A failed row has no trace: its ``runs`` entry is None and its ``errors``
    entry is the package error that ended it.
    """

    runs: List[Optional[StateTrace]]
    errors: List[Optional[BlaircompError]]
    s: int              # stored, as a batch whose rows all failed has no trace

    # iterations summed over the finished runs, and their logged iterations joined
    n_iters = property(lambda self: sum(tr.n_iters for tr in self.runs if tr is not None))
    t = property(lambda self: np.concatenate(
        [tr.t for tr in self.runs if tr is not None] or [np.zeros(0, int)]))

    def traces(self) -> List[StateTrace]:
        """Every run's trace; raises the first failed row's error, in row
        order, as running the rows one by one would."""
        for exc in self.errors:
            if exc is not None:
                raise exc
        return self.runs


@dataclass(frozen=True)
class _Rows(_Sizes):
    """The instance arrays of ``run_wf``'s active runs, each with a leading
    run axis of one entry per run, or of one entry that every run shares."""

    a: np.ndarray           # (R or 1, s, m, N)
    y: np.ndarray           # (R or 1, m)
    truth: GroundTruth      # h (R or 1, s, K), x (R or 1, s, N), q (R or 1, s)
    b_rows: np.ndarray      # (m, K), the same for every run

    def take(self, keep: np.ndarray) -> "_Rows":
        tr = self.truth
        return replace(self, a=_take(self.a, keep), y=_take(self.y, keep),
                       truth=GroundTruth(h=_take(tr.h, keep), x=_take(tr.x, keep),
                                         q=_take(tr.q, keep)))


def random_init(s: int, K: int, N: int, rng: np.random.Generator) -> Iterate:
    """Gaussian starting point with E||h_i||^2 = E||x_i||^2 = 1, unnormalized."""
    _check_sizes(s, K, N)
    return Iterate(h=_complex_gaussian(rng, (s, K), 1.0 / K),
                   x=_complex_gaussian(rng, (s, N), 1.0 / N))


def loss(z: Iterate, inst: ProblemInstance,
         sample_weights: Optional[np.ndarray] = None) -> float:
    """f(z), weighted per sample by ``sample_weights`` of shape (m,)."""
    _, loss_val = _gradient_and_loss(z, inst, _check_weights(sample_weights, inst.m))
    if np.ndim(loss_val) != 0:
        raise DimensionMismatchError("loss takes one iterate, not a stack")
    return float(loss_val)


def wirtinger_gradient(z: Iterate, inst: ProblemInstance,
                       sample_weights: Optional[np.ndarray] = None) -> Iterate:
    """Gradient blocks; the per-sample residual is computed once and shared
    across nodes.  ``sample_weights`` has shape (m,), as for ``loss``."""
    g, _ = _gradient_and_loss(z, inst, _check_weights(sample_weights, inst.m))
    return g


def wf_step(z: Iterate, g: Iterate, eta: float) -> Iterate:
    """One block-scaled descent step; the input iterate is left untouched.

    Blocks may carry leading run axes, (..., s, K) and (..., s, N).
    """
    x_norm2 = (np.abs(z.x) ** 2).sum(axis=-1)
    h_norm2 = (np.abs(z.h) ** 2).sum(axis=-1)
    if not (x_norm2.all() and h_norm2.all()):
        raise DegenerateIterateError("zero block norm in update scaling")
    h = z.h - (eta / x_norm2)[..., None] * g.h
    x = z.x - (eta / h_norm2)[..., None] * g.x
    return Iterate(h=h, x=x)


def run_wf(inst: Union[ProblemInstance, Sequence[ProblemInstance]], z0: Iterate,
           settings: SolverSettings, sample_weights: Optional[np.ndarray] = None
           ) -> Union[StateTrace, RunBatch]:
    """Iterate Wirtinger flow, recording the iterate and its loss at the
    configured cadence.

    Stops at max_iters, at the relative-error tolerance, or with a
    DivergenceError naming the offending iteration if the loss becomes
    non-finite or grows a millionfold.  Divergence is checked at every step;
    the tolerance test runs on blocks of log points, and a run that meets a
    tolerance ends at the first log point that meets it, its later steps
    discarded.  With a tolerance set, each block's truth metrics come from
    one ``snapshot_metrics`` call, kept in the trace; with none set, the
    trace computes them on first read.  A divergence or a degenerate step
    settles the pending block first, so an earlier tolerance stop wins, as
    testing every log point as it comes would have it.

    A run axis comes from any of: a sequence of R instances (same
    dimensions and access rows), z0 stacked (R, s, K/N), or
    ``sample_weights`` of shape (R, m); an input without one, or with one of
    length 1, is shared by every run.  The R runs go in lockstep: iterates
    are stacked (R, s, K/N), so each iteration takes one forward/gradient
    pass and one ``wf_step`` for all active runs, and the call returns a
    RunBatch.  A run that meets a tolerance or fails is masked out and logs
    nothing more; a failure (divergence, a zero block in the step or at a
    log point, where the truth alignment would fail, or a zero target sum,
    which leaves the relative error undefined and is checked before the
    first step) ends only its own run and is returned as that row's error,
    so no metric read can raise.  A call without a run axis returns the
    StateTrace or raises.
    """
    rows = _stack_instances(inst)
    if z0.h.ndim not in (2, 3) or z0.x.ndim != z0.h.ndim:
        raise DimensionMismatchError(
            "z0 must be one iterate, h (s, K) and x (s, N), or a stack (R, s, K/N)")
    w = _run_weights(sample_weights, rows.m)
    lengths = {len(rows.a), 1 if w is None else len(w)}
    if z0.h.ndim == 3:
        lengths |= {len(z0.h), len(z0.x)}
    n_runs = max(lengths)
    if not lengths <= {1, n_runs}:
        raise DimensionMismatchError(f"run axes of lengths {sorted(lengths)} differ")
    batched = (not isinstance(inst, ProblemInstance) or z0.h.ndim == 3
               or np.ndim(sample_weights) == 2)
    truths = rows.truth              # every run's; ``rows`` drops runs that retire
    block_len = max(1, _METRIC_BLOCK // settings.cadence)   # in log points
    pending: List[tuple] = []        # (t, loss, h, x) of unsettled log points
    blocks: List[Dict[str, np.ndarray]] = []              # each settled block's columns
    logs: List[List[tuple]] = [[] for _ in range(n_runs)]  # (columns, k, n) per block
    converged = np.zeros(n_runs, dtype=bool)
    errors: List[Optional[BlaircompError]] = [None] * n_runs
    runs = np.arange(n_runs)         # row of each active run, ascending

    z = Iterate(h=np.broadcast_to(z0.h, (n_runs,) + z0.h.shape[-2:]).copy(),
                x=np.broadcast_to(z0.x, (n_runs,) + z0.x.shape[-2:]).copy())
    # Only a tolerance test needs the metrics in the loop.
    metrics_in_loop = np.isfinite(settings.tol)

    def retire(keep: np.ndarray) -> None:
        nonlocal z, g, loss_t, limit, runs, rows, w
        z, g = (Iterate(h=v.h[keep], x=v.x[keep]) for v in (z, g))
        loss_t, limit, runs = loss_t[keep], limit[keep], runs[keep]
        rows, w = rows.take(keep), _take(w, keep)

    def fail(bad: np.ndarray, error) -> None:
        """End the active runs where ``bad`` holds; ``error(k)`` is the
        exception of active run k."""
        for k in np.flatnonzero(bad):
            errors[runs[k]] = error(k)
        retire(~bad)

    def settle() -> None:
        """Append the pending points to each active run's own log, with their
        metrics from one call when the tolerance is set; every run that meets
        it at one of them ends at the first such point.  A zero block ends
        its run, as the truth alignment of that point would fail."""
        if not pending:
            return
        t_b, loss_b, h_b, x_b = map(np.asarray, zip(*pending))
        pending.clear()
        zero = _zero_block(h_b, x_b)                                  # (B, A)
        bad = zero.any(axis=0)
        if bad.any():
            fail(bad, lambda k: DegenerateAlignmentError(
                f"cannot align a zero block at iteration {t_b[zero[:, k].argmax()]}"))
            if not len(runs):
                return
            loss_b, h_b, x_b = loss_b[:, ~bad], h_b[:, ~bad], x_b[:, ~bad]
        values = dict(t=np.broadcast_to(t_b[:, None], loss_b.shape),
                      loss=loss_b, h=h_b, x=x_b)
        stop = np.zeros(loss_b.shape, dtype=bool)                     # (B, A)
        if metrics_in_loop:
            snap = metrics.snapshot_metrics(Iterate(h=h_b, x=x_b), rows.truth)
            values.update(vars(snap))
            stop = snap.relative_error <= settings.tol
        blocks.append(values)
        met, first = stop.any(axis=0), stop.argmax(axis=0)
        for k, n in enumerate(np.where(met, first + 1, len(t_b))):
            logs[runs[k]].append((values, k, n))     # its first n points, column k
        converged[runs[met]] = True
        retire(~met)

    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is a divergence
        g, loss_t = _gradient_and_loss(z, rows, w)
        # Capped at the largest float, so a non-finite loss never passes
        # loss <= limit; fmin ignores a NaN initial loss, as loss > NaN would.
        limit = np.fmin(_DIVERGENCE_FACTOR * np.maximum(loss_t, 1e-300),
                        np.finfo(float).max)
        undefined = np.broadcast_to(metrics.target_norm(rows.truth) == 0.0, (n_runs,))
        if undefined.any():
            fail(undefined, lambda k: UndefinedMetricError("target vector sums to zero"))
        for t in range(settings.max_iters + 1 if len(runs) else 0):
            if t > 0:
                try:
                    z = wf_step(z, g, settings.eta)
                except DegenerateIterateError:
                    settle()         # a pending metric error or tolerance stop wins
                    fail(_zero_block(z.h, z.x), lambda k: DegenerateIterateError(
                        f"zero block norm in update scaling at iteration {t - 1}"))
                    if not len(runs):
                        break
                    z = wf_step(z, g, settings.eta)
                g, loss_t = _gradient_and_loss(z, rows, w)
                if not (loss_t <= limit).all():
                    settle()         # an earlier tolerance stop wins
                    fail(~(loss_t <= limit), lambda k: DivergenceError(
                        f"loss diverged at iteration {t}: {float(loss_t[k])!r}"))
                    if not len(runs):
                        break
            if t % settings.cadence == 0 or t == settings.max_iters:
                pending.append((t, loss_t, z.h, z.x))
                if len(pending) == block_len or t == settings.max_iters:
                    settle()
                    if not len(runs):
                        break

    # One column at a time, each dropped from every block once every run has
    # its copy, so the blocks and the traces overlap by one column at most.
    finished = [r for r in range(n_runs) if errors[r] is None]
    columns: Dict[int, Dict[str, np.ndarray]] = {r: {} for r in finished}
    for name in list(blocks[0]) if blocks else ():
        for r in finished:
            columns[r][name] = np.concatenate([cols[name][:n, k] for cols, k, n in logs[r]])
        for cols in blocks:
            del cols[name]
    traces: List[Optional[StateTrace]] = [None] * n_runs
    for r in finished:
        run = columns.pop(r)
        t_r, loss_r, h, x = (run.pop(name) for name in ("t", "loss", "h", "x"))
        k = r if len(truths.q) > 1 else 0
        traces[r] = StateTrace(
            t=t_r, loss=loss_r, h=h, x=x,
            truth=GroundTruth(h=truths.h[k].copy(), x=truths.x[k].copy(),
                              q=truths.q[k].copy()),
            m=rows.m, eta=settings.eta,
            stop_reason="tol" if converged[r] else "max_iters",
            _metrics=run or None)
    batch = RunBatch(runs=traces, errors=errors, s=rows.s)
    return batch if batched else batch.traces()[0]


def _gradient_and_loss(z: Iterate, inst: Union[ProblemInstance, _Rows],
                       w: Optional[np.ndarray]
                       ) -> Tuple[Iterate, np.ndarray]:
    """Gradient blocks and the loss of an iterate with optional leading run
    axes, against one instance or the per-run arrays of ``_Rows``; ``w``
    broadcasts to the residual's shape (..., m).

    The elementwise passes write into the arrays ``measurement_factors``
    allocated, and each multiply keeps its operand order: numpy's complex
    multiply may fuse a multiply-add, so swapping the operands can change the
    last bit.
    """
    if z.h.shape[-2:] != (inst.s, inst.K) or z.x.shape[-2:] != (inst.s, inst.N):
        raise DimensionMismatchError(
            f"iterate shapes {z.h.shape}/{z.x.shape} do not match instance dims")
    bh, xa = measurement_factors(z.h, z.x, inst.b_rows, inst.a)
    r = (bh * xa).sum(axis=-2)
    r -= inst.y
    loss_val = np.abs(r)
    np.square(loss_val, out=loss_val)
    rc = np.conj(r, out=r)      # the adjoints conjugate r, not the design arrays
    if w is not None:
        np.multiply(w, loss_val, out=loss_val)
        np.multiply(w, rc, out=rc)
    loss_val = loss_val.sum(axis=-1)
    rc = rc[..., None, :]
    grad_h = _rows_product(np.multiply(rc, xa, out=xa), inst.b_rows)
    np.conj(grad_h, out=grad_h)
    grad_x = (np.multiply(rc, bh, out=bh)[..., None, :] @ inst.a)[..., 0, :]
    return Iterate(h=grad_h, x=grad_x), loss_val


def _check_weights(w: Optional[np.ndarray], m: int) -> Optional[np.ndarray]:
    if w is None:
        return None
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise DimensionMismatchError(f"sample weights shape {w.shape} != ({m},)")
    return w


def _run_weights(w: Optional[np.ndarray], m: int) -> Optional[np.ndarray]:
    """None, or the (R, m) weight rows of ``run_wf``; (m,) is one row."""
    if w is None:
        return None
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != m or w.size == 0:
        raise DimensionMismatchError(
            f"sample weights shape {w.shape} is neither ({m},) nor (R, {m})")
    return w.reshape(-1, m)


def _stack_instances(inst: Union[ProblemInstance, Sequence[ProblemInstance]]) -> _Rows:
    """One instance, or several with the same dimensions and access rows,
    as per-run arrays; one instance is shared, not copied."""
    insts = [inst] if isinstance(inst, ProblemInstance) else list(inst)
    if not insts:
        raise DimensionMismatchError("no instance to run on")
    first = insts[0]
    dims = (first.s, first.K, first.N, first.m)
    if any((o.s, o.K, o.N, o.m) != dims or not np.array_equal(o.b_rows, first.b_rows)
           for o in insts[1:]):
        raise DimensionMismatchError(
            "stacked instances must share s, K, N, m and the access rows")

    def stack(name: str) -> np.ndarray:
        get = attrgetter(name)
        return get(first)[None] if len(insts) == 1 else np.stack([get(o) for o in insts])

    truth = GroundTruth(h=stack("truth.h"), x=stack("truth.x"), q=stack("truth.q"))
    return _Rows(a=stack("a"), y=stack("y"), truth=truth, b_rows=first.b_rows)


def _take(v: Optional[np.ndarray], keep: np.ndarray) -> Optional[np.ndarray]:
    """Rows ``keep`` of per-run values; a single shared row stays as it is."""
    return v if v is None or len(v) == 1 else v[keep]


def _zero_block(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether the iterate (..., s, K/N) has a block of zero norm, the one
    ``wf_step`` cannot scale by and ``align_pair`` cannot align."""
    return ~((np.abs(h) ** 2).sum(axis=-1).all(axis=-1)
             & (np.abs(x) ** 2).sum(axis=-1).all(axis=-1))
