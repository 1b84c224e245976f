"""Synthetic problem instances for blind over-the-air computation.

An instance bundles the partial-DFT access matrix, the known Gaussian
design vectors, the ground-truth channel/signal pairs, and the superposed
bilinear measurements collected at the fusion center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatchError, ParameterError

_DRAW_SLAB = 8192   # values per rng.normal call in _complex_gaussian
# The block norms the metrics can align; run_wf ends a run whose iterate
# leaves the range.  Every truth norm q lies in [10 * low, 1], since a block
# rescaled to norm q can round just below it.  Inside the range, squared
# norms, their products and their ratios stay normal floats, so align_pair's
# scale search stays in the float range against references of norm at most 1.
_NORM_RANGE = (1e-76, 1e76)
# The error of a block outside the range; run_wf adds the iteration.
_RANGE_ERROR = (f"cannot align a zero block or a block of norm outside "
                f"[{_NORM_RANGE[0]:g}, {_NORM_RANGE[1]:g}] "
                f"(its alignment coefficients can overflow)")


def _is_count(value, low: int = 1) -> bool:
    """An int or numpy integer >= low; a bool is not one."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low)


def _check_sizes(*sizes) -> None:
    if not all(_is_count(d) for d in sizes):
        raise ParameterError(f"dimensions must be integers >= 1, got {sizes}")


def _check_dft_shape(m, K) -> None:
    _check_sizes(m, K)
    if K > m:
        raise DimensionMismatchError(f"need K <= m, got K={K}, m={m}")


def _check_norms(q, s: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    low = 10 * _NORM_RANGE[0]
    if q.shape != (s,):
        raise ParameterError(f"q must have length s={s}")
    if not np.all((q >= low) & (q <= 1.0)):
        raise ParameterError(f"every q value must lie in [{low:g}, 1]")
    return q


def _block_norms2(h: np.ndarray, x: np.ndarray):
    """The squared norms of blocks h (..., K) and x (..., N), one per vector
    on the last axis, and whether each is that of a norm in ``_NORM_RANGE``;
    zero, NaN and infinity are not.  The range is an interval, so each
    batch's extremes decide: min and max pass a NaN on, and an empty batch
    passes."""
    low, high = (v * v for v in _NORM_RANGE)
    with np.errstate(over="ignore"):        # an overflow is inf, outside the range
        h2, x2 = ((np.abs(v) ** 2).sum(axis=-1) for v in (h, x))
    return h2, x2, all(v.min(initial=high) >= low and v.max(initial=low) <= high
                       for v in (h2, x2))


def _check_noise_variance(sigma2_e) -> None:
    if not 0.0 <= sigma2_e < np.inf:          # also rejects NaN
        raise ParameterError("sigma2_e must be finite and >= 0")


@dataclass(frozen=True)
class GroundTruth:
    """Per-node channel/signal pairs with exact norms ``q_i``."""

    h: np.ndarray  # (s, K) complex, row i is the channel of node i
    x: np.ndarray  # (s, N) complex, row i is the transmitted signal of node i
    q: np.ndarray  # (s,) real, q_i = ||h_i|| = ||x_i||

    @property
    def s(self) -> int:
        return self.h.shape[0]

    @property
    def kappa(self) -> float:
        """Condition number: largest over smallest per-node norm."""
        return float(np.max(self.q) / np.min(self.q))


class _Sizes:
    """``s, m, N`` read from the design tensor ``a`` (..., s, m, N) and ``K``
    from the access rows ``b_rows`` (m, K)."""

    s = property(lambda self: self.a.shape[-3])
    m = property(lambda self: self.a.shape[-2])
    N = property(lambda self: self.a.shape[-1])
    K = property(lambda self: self.b_rows.shape[1])


@dataclass(frozen=True)
class ProblemInstance(_Sizes):
    """Immutable synthetic problem; safe to share across parallel runs.

    ``b_rows`` holds the access vectors as rows ``b_j^H``, shape (m, K),
    shared by all nodes.  A sign-flipped ensemble keeps these rows and stores
    the flips folded into its design tensor (see ``apply_sign_flips``).
    """

    b_rows: np.ndarray          # (m, K) complex
    a: np.ndarray               # (s, m, N) complex design tensor
    truth: GroundTruth
    y: np.ndarray               # (m,) complex measurements

    def __post_init__(self):
        if (self.b_rows.ndim, self.a.ndim) != (2, 3) or self.a.shape[1] != len(self.b_rows):
            raise DimensionMismatchError(f"b_rows {self.b_rows.shape} and design tensor "
                                         f"{self.a.shape} are not (m, K) and (s, m, N)")
        _check_sizes(self.s, self.K, self.N, self.m)
        if self.truth.h.shape != (self.s, self.K) or self.truth.x.shape != (self.s, self.N):
            raise DimensionMismatchError("ground truth shapes inconsistent with dims")
        if self.y.shape != (self.m,):
            raise DimensionMismatchError(f"measurement shape {self.y.shape} != ({self.m},)")


def generate_partial_dft(m: int, K: int) -> np.ndarray:
    """First K columns of the m-point unitary DFT, returned as rows b_j^H.

    Entry (j, k) is exp(-2*pi*i*j*k/m)/sqrt(m); columns are orthonormal and
    every row has squared norm K/m.
    """
    _check_dft_shape(m, K)
    j = np.arange(m)[:, None]
    k = np.arange(K)[None, :]
    return np.exp(-2j * np.pi * j * k / m) / np.sqrt(m)


def sample_ground_truth(s: int, K: int, N: int, q: Sequence[float],
                        rng: np.random.Generator) -> GroundTruth:
    """Draw complex Gaussian pairs and rescale so ||h_i|| = ||x_i|| = q_i exactly."""
    _check_sizes(s, K, N)
    q = _check_norms(q, s)
    h = _complex_gaussian(rng, (s, K), 1.0 / K)
    x = _complex_gaussian(rng, (s, N), 1.0 / N)
    h *= (q / np.linalg.norm(h, axis=1))[:, None]
    x *= (q / np.linalg.norm(x, axis=1))[:, None]
    return GroundTruth(h=h, x=x, q=q)


def sample_design_tensor(s: int, m: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """s*m design vectors in C^N with i.i.d. CN(0, 1) entries."""
    _check_sizes(s, m, N)
    return _complex_gaussian(rng, (s, m, N), 1.0)


def synthesize_measurements(b_rows: np.ndarray, a: np.ndarray, truth: GroundTruth,
                            sigma2_e: float, rng: Optional[np.random.Generator] = None
                            ) -> np.ndarray:
    """y_j = sum_i b_j^H h_i x_i^H a_ij + e_j with e_j circularly symmetric."""
    _check_noise_variance(sigma2_e)
    s, m, _ = a.shape
    if truth.h.shape[0] != s:
        raise DimensionMismatchError("design tensor and ground truth disagree on s")
    bh, xa = measurement_factors(truth.h, truth.x, b_rows, a)
    y = np.sum(bh * xa, axis=0)
    if sigma2_e > 0.0:
        if rng is None:
            raise ParameterError("rng required when sigma2_e > 0")
        y = y + _complex_gaussian(rng, (m,), sigma2_e)
    return y


def measurement_factors(h: np.ndarray, x: np.ndarray, b_rows: np.ndarray,
                        a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """b_j^H h_i and x_i^H a_ij, two (..., s, m) arrays, for blocks h (..., s, K)
    and x (..., s, N) whose leading axes broadcast against a (..., s, m, N).

    The products fix the artifacts' last bits: one ``gemv`` per (run, node)
    on a; one GEMM over all rows for the access rows, or, at s = 1, one
    ``gemv`` per run, which a GEMM would round differently.
    """
    return _rows_product(h, b_rows.T), (a @ x.conj()[..., None])[..., 0]


def _rows_product(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u (..., s, k) @ b (k, n) by the access-row rule of ``measurement_factors``."""
    if u.shape[-2] == 1:
        return u @ b
    return (u.reshape(-1, u.shape[-1]) @ b).reshape(u.shape[:-1] + b.shape[-1:])


def make_instance(s: int, K: int, N: int, m: int,
                  q: Optional[Sequence[float]] = None,
                  sigma2_e: float = 0.0,
                  seed: Union[int, Sequence[int], np.random.SeedSequence] = 0
                  ) -> ProblemInstance:
    """Build a full instance from an explicit seed.

    Draw order is fixed (ground truth, design tensor, measurement noise) so
    identical seeds reproduce instances bit-for-bit.
    """
    _check_sizes(s, K, N, m)     # before np.ones(s), in the signature's order
    q = _check_norms(np.ones(s) if q is None else q, s)    # before the draws
    _check_noise_variance(sigma2_e)
    rng = np.random.default_rng(seed)
    b_rows = generate_partial_dft(m, K)
    truth = sample_ground_truth(s, K, N, q, rng)
    a = sample_design_tensor(s, m, N, rng)
    y = synthesize_measurements(b_rows, a, truth, sigma2_e, rng)
    return ProblemInstance(b_rows=b_rows, a=a, truth=truth, y=y)


def _complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    # Circularly symmetric: re/im each carry half the per-entry variance.  All
    # real parts are drawn, then all imaginary parts, in slabs of _DRAW_SLAB
    # values: the stream of two whole-shape draws without their temporaries.
    scale = np.sqrt(variance / 2.0)
    out = np.empty(shape, dtype=complex)
    flat = out.reshape(-1)
    for part in (flat.real, flat.imag):
        for start in range(0, part.size, _DRAW_SLAB):
            slab = part[start:start + _DRAW_SLAB]
            slab[...] = rng.normal(0.0, scale, slab.size)
    return out

