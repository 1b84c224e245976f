"""Synthetic problem instances for blind over-the-air computation.

An instance bundles the partial-DFT access matrix, the known Gaussian
design vectors, the ground-truth channel/signal pairs, and the superposed
bilinear measurements collected at the fusion center.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, ParameterError

_MAGIC = b"BLCP1\n"


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


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable synthetic problem; safe to share across parallel runs.

    ``b_rows`` holds the access vectors as rows ``b_j^H``, shape (m, K),
    shared by all nodes.  A sign-flipped ensemble keeps these rows and stores
    the flips folded into its design tensor (see ``apply_sign_flips``).
    """

    s: int
    K: int
    N: int
    m: int
    b_rows: np.ndarray          # (m, K) complex
    a: np.ndarray               # (s, m, N) complex design tensor
    truth: GroundTruth
    y: np.ndarray               # (m,) complex measurements
    sigma2_e: float = 0.0
    seed: Optional[object] = None

    def __post_init__(self):
        if min(self.s, self.K, self.N, self.m) < 1:
            raise ParameterError("all dimensions must be >= 1")
        if self.b_rows.shape != (self.m, self.K):
            raise DimensionMismatchError(
                f"b_rows shape {self.b_rows.shape} != {(self.m, self.K)}")
        if self.a.shape != (self.s, self.m, self.N):
            raise DimensionMismatchError(
                f"design tensor shape {self.a.shape} != {(self.s, self.m, self.N)}")
        if self.truth.h.shape != (self.s, self.K) or self.truth.x.shape != (self.s, self.N):
            raise DimensionMismatchError("ground truth shapes inconsistent with dims")
        if self.y.shape != (self.m,):
            raise DimensionMismatchError(f"measurement shape {self.y.shape} != ({self.m},)")


def generate_partial_dft(m: int, K: int) -> np.ndarray:
    """First K columns of the m-point unitary DFT, returned as rows b_j^H.

    Entry (j, k) is exp(-2*pi*i*j*k/m)/sqrt(m); columns are orthonormal and
    every row has squared norm K/m.
    """
    if not 1 <= K <= m:
        raise DimensionMismatchError(f"need 1 <= K <= m, got K={K}, m={m}")
    j = np.arange(m)[:, None]
    k = np.arange(K)[None, :]
    return np.exp(-2j * np.pi * j * k / m) / np.sqrt(m)


def sample_ground_truth(s: int, K: int, N: int, q: Sequence[float],
                        rng: np.random.Generator) -> GroundTruth:
    """Draw complex Gaussian pairs and rescale so ||h_i|| = ||x_i|| = q_i exactly."""
    q = np.asarray(q, dtype=float)
    if q.shape != (s,):
        raise ParameterError(f"q must have length s={s}")
    if np.any(q <= 0.0) or np.any(q > 1.0):
        raise ParameterError("all q_i must lie in (0, 1]")
    h = _complex_gaussian(rng, (s, K), 1.0 / K)
    x = _complex_gaussian(rng, (s, N), 1.0 / N)
    h *= (q / np.linalg.norm(h, axis=1))[:, None]
    x *= (q / np.linalg.norm(x, axis=1))[:, None]
    return GroundTruth(h=h, x=x, q=q)


def sample_design_tensor(s: int, m: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """s*m design vectors in C^N with i.i.d. CN(0, 1) entries."""
    if min(s, m, N) < 1:
        raise ParameterError("all dimensions must be >= 1")
    return _complex_gaussian(rng, (s, m, N), 1.0)


def synthesize_measurements(b_rows: np.ndarray, a: np.ndarray, truth: GroundTruth,
                            sigma2_e: float, rng: Optional[np.random.Generator] = None
                            ) -> np.ndarray:
    """y_j = sum_i b_j^H h_i x_i^H a_ij + e_j with e_j circularly symmetric."""
    if sigma2_e < 0.0:
        raise ParameterError("noise variance must be >= 0")
    s, m, _ = a.shape
    if truth.h.shape[0] != s:
        raise DimensionMismatchError("design tensor and ground truth disagree on s")
    bh = truth.h @ b_rows.T                  # (s, m): b_j^H h_i
    xa = (a @ truth.x.conj()[:, :, None])[:, :, 0]  # (s, m): x_i^H a_ij
    y = np.sum(bh * xa, axis=0)
    if sigma2_e > 0.0:
        if rng is None:
            raise ParameterError("rng required when sigma2_e > 0")
        y = y + _complex_gaussian(rng, (m,), sigma2_e)
    return y


def compute_nomographic_target(truth: GroundTruth,
                               pre: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                               post: Optional[Callable[[np.ndarray], np.ndarray]] = None
                               ) -> np.ndarray:
    """Entrywise post(sum_i pre(x_i)); identity maps give the plain sum.

    The arithmetic-mean variant is ``post=mean_post(truth.s)``.
    """
    x = truth.x if pre is None else pre(truth.x)
    total = np.sum(x, axis=0)
    return total if post is None else post(total)


def mean_post(s: int) -> Callable[[np.ndarray], np.ndarray]:
    """Post-processing map for the arithmetic-mean target."""
    return lambda v: v / s


def make_instance(s: int, K: int, N: int, m: int,
                  q: Optional[Sequence[float]] = None,
                  sigma2_e: float = 0.0,
                  seed: Union[int, Sequence[int], np.random.SeedSequence] = 0
                  ) -> ProblemInstance:
    """Build a full instance from an explicit seed.

    Draw order is fixed (ground truth, design tensor, measurement noise) so
    identical seeds reproduce instances bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    if q is None:
        q = np.ones(s)
    b_rows = generate_partial_dft(m, K)
    truth = sample_ground_truth(s, K, N, q, rng)
    a = sample_design_tensor(s, m, N, rng)
    y = synthesize_measurements(b_rows, a, truth, sigma2_e, rng)
    return ProblemInstance(s=s, K=K, N=N, m=m, b_rows=b_rows, a=a, truth=truth,
                           y=y, sigma2_e=sigma2_e, seed=seed)


def save_instance(inst: ProblemInstance, path: str) -> None:
    """Dump an instance as a JSON header plus little-endian complex arrays.

    Complex values are stored as interleaved re/im float64 pairs so other
    implementations can read the format without numpy.
    """
    arrays = {"b_rows": inst.b_rows, "a": inst.a, "h": inst.truth.h,
              "x": inst.truth.x, "y": inst.y}
    header = {
        "dims": {"s": inst.s, "K": inst.K, "N": inst.N, "m": inst.m},
        "sigma2_e": inst.sigma2_e,
        "q": inst.truth.q.tolist(),
        "seed": _seed_to_json(inst.seed),
        "arrays": {name: list(arr.shape) for name, arr in arrays.items()},
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name in sorted(arrays):
            fh.write(np.ascontiguousarray(arrays[name]).astype("<c16").tobytes())


def load_instance(path: str) -> ProblemInstance:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise IOError(f"{path} is not an instance dump")
        header = json.loads(fh.readline().decode("utf-8"))
        arrays = {}
        for name in sorted(header["arrays"]):
            shape = tuple(header["arrays"][name])
            count = int(np.prod(shape))
            buf = fh.read(count * 16)
            if len(buf) != count * 16:
                raise IOError(f"{path} is truncated: array {name!r} has "
                              f"{len(buf)} of {count * 16} bytes")
            arrays[name] = np.frombuffer(buf, dtype="<c16").reshape(shape).copy()
    dims = header["dims"]
    truth = GroundTruth(h=arrays["h"], x=arrays["x"], q=np.asarray(header["q"]))
    return ProblemInstance(s=dims["s"], K=dims["K"], N=dims["N"], m=dims["m"],
                           b_rows=arrays["b_rows"], a=arrays["a"], truth=truth,
                           y=arrays["y"], sigma2_e=header["sigma2_e"],
                           seed=header["seed"])


def _complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    # Circularly symmetric: re/im each carry half the per-entry variance.
    scale = np.sqrt(variance / 2.0)
    out = np.empty(shape, dtype=complex)
    out.real = rng.normal(0.0, scale, shape)
    out.imag = rng.normal(0.0, scale, shape)
    return out


def _seed_to_json(seed):
    if seed is None or isinstance(seed, (int, str)):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.entropy) if isinstance(seed.entropy, (list, tuple)) else seed.entropy
    return list(seed)
