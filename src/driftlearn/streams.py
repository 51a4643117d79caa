"""Synthetic non-stationary regression streams and geometric weights.

Streams are generated with a counter-based Philox RNG so a given
:class:`StreamSpec` reproduces bit-for-bit on any platform.  Features are
sampled uniformly on the sphere of radius ``R`` and targets uniformly on the
sphere of radius ``B``, so the declared norm bounds hold exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator

import numpy as np

KINDS = ("piecewise-constant-target", "rotating-target", "logistic-drift")


class StreamSpecError(ValueError):
    """Raised when a stream specification is invalid."""


@dataclass(frozen=True)
class LabeledRound:
    """One (feature, label) pair of an online regression stream."""

    z: np.ndarray
    y: float


@dataclass(frozen=True)
class StreamSpec:
    """Recipe for a synthetic drifting stream.

    ``segments`` counts the drift phases; phase boundaries are evenly
    spaced, round t belongs to the smallest k with t <= ceil(T*k/segments).
    ``noise`` is the std of additive Gaussian label noise (its sign for
    logistic streams).
    """

    d: int
    T: int
    kind: str = "piecewise-constant-target"
    segments: int = 1
    noise: float = 0.0
    seed: int = 0
    R: float = 1.0
    B: float = 1.0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise StreamSpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.d < 1:
            raise StreamSpecError(f"d must be >= 1, got {self.d}")
        if self.T < 1:
            raise StreamSpecError(f"T must be >= 1, got {self.T}")
        if self.segments < 1:
            raise StreamSpecError(f"segments must be >= 1, got {self.segments}")
        if self.noise < 0:
            raise StreamSpecError(f"noise must be >= 0, got {self.noise}")
        if self.R <= 0:
            raise StreamSpecError(f"R must be > 0, got {self.R}")
        if self.B <= 0:
            raise StreamSpecError(f"B must be > 0, got {self.B}")


class Stream:
    """A realized stream: feature matrix ``Z`` (T x d) and labels ``y`` (T).

    Behaves as a sequence of :class:`LabeledRound`; round indices in the
    accompanying math are 1-based, sequence access is 0-based.
    """

    def __init__(self, Z: np.ndarray, y: np.ndarray):
        Z = np.asarray(Z, dtype=float)
        y = np.asarray(y, dtype=float)
        if Z.ndim != 2 or y.ndim != 1 or Z.shape[0] != y.shape[0]:
            raise StreamSpecError("Z must be (T, d) and y (T,) with matching T")
        if not (np.isfinite(Z).all() and np.isfinite(y).all()):
            raise StreamSpecError("stream entries must be finite")
        self.Z = Z
        self.y = y

    @property
    def T(self) -> int:
        return self.Z.shape[0]

    @property
    def d(self) -> int:
        return self.Z.shape[1]

    def __len__(self) -> int:
        return self.T

    def __getitem__(self, i: int) -> LabeledRound:
        return LabeledRound(z=self.Z[i], y=float(self.y[i]))

    def __iter__(self) -> Iterator[LabeledRound]:
        for i in range(self.T):
            yield self[i]


class ComparatorPath:
    """A time-varying comparator sequence ``u_1..u_T`` as a (T, d) array."""

    def __init__(self, U: np.ndarray):
        U = np.asarray(U, dtype=float)
        if U.ndim != 2:
            raise StreamSpecError("U must be a (T, d) array")
        self.U = U

    @property
    def T(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[1]

    def __len__(self) -> int:
        return self.T

    def __getitem__(self, i: int) -> np.ndarray:
        return self.U[i]

    @classmethod
    def constant(cls, u: np.ndarray, T: int) -> "ComparatorPath":
        u = np.asarray(u, dtype=float)
        return cls(np.tile(u, (T, 1)))


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based with a published algorithm; identical seeds
    # reproduce identical draws across platforms.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _sphere(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return radius * g / norms


def segment_index(t: int, T: int, segments: int) -> int:
    """0-based drift-phase index of round ``t`` (1-based).

    Round t lies in phase k (0-based) iff ceil(T*k/segments) < t <=
    ceil(T*(k+1)/segments).
    """
    for k in range(1, segments + 1):
        if t <= -(-T * k // segments):  # ceil division
            return k - 1
    return segments - 1


def _truth_matrix(spec: StreamSpec, rng: np.random.Generator) -> np.ndarray:
    T, d = spec.T, spec.d
    if spec.kind == "rotating-target":
        theta = 2.0 * np.pi * spec.segments * np.arange(T) / T
        U = np.zeros((T, d))
        if d == 1:
            U[:, 0] = spec.B * np.cos(theta)
        else:
            U[:, 0] = spec.B * np.cos(theta)
            U[:, 1] = spec.B * np.sin(theta)
        return U
    targets = _sphere(rng, spec.segments, d, spec.B)
    seg = np.array([segment_index(t, T, spec.segments) for t in range(1, T + 1)])
    return targets[seg]


def gen_stream(spec: StreamSpec) -> tuple[Stream, ComparatorPath]:
    """Generate a stream and its ground-truth comparator path.

    Labels are ``y_t = u_t . z_t + noise * N(0,1)`` for the regression
    kinds, and the sign of that quantity (0 mapped to +1) for
    ``logistic-drift``.  The same spec always yields identical output.
    """
    spec.validate()
    rng = _rng(spec.seed)
    U = _truth_matrix(spec, rng)
    Z = _sphere(rng, spec.T, spec.d, spec.R)
    clean = np.einsum("td,td->t", U, Z)
    y = clean + spec.noise * rng.standard_normal(spec.T)
    if spec.kind == "logistic-drift":
        y = np.where(y >= 0.0, 1.0, -1.0)
    return Stream(Z, y), ComparatorPath(U)


def geometric_weights(beta: float, t: int) -> np.ndarray:
    """Normalized geometric weights over indices s = 0..t.

    Entry s is proportional to beta**(t-s); the vector sums to 1.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    w = beta ** np.arange(t, -1.0, -1.0)
    return w / w.sum()


# ---------------------------------------------------------------------------
# CSV serialization.  Header `t,y,z_0,...,z_{d-1}`; comparator truth goes to a
# sibling `*.truth.csv` with header `t,u_0,...,u_{d-1}`.  Floats are written
# with repr (shortest round-trip decimal) so re-parsing is bit-faithful.
# ---------------------------------------------------------------------------


def stream_to_csv(stream: Stream, header_comment: str | None = None) -> str:
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    cols = ["t", "y"] + [f"z_{j}" for j in range(stream.d)]
    buf.write(",".join(cols) + "\n")
    for t in range(stream.T):
        row = [str(t + 1), repr(float(stream.y[t]))]
        row += [repr(float(v)) for v in stream.Z[t]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def path_to_csv(path: ComparatorPath, header_comment: str | None = None) -> str:
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    cols = ["t"] + [f"u_{j}" for j in range(path.d)]
    buf.write(",".join(cols) + "\n")
    for t in range(path.T):
        row = [str(t + 1)] + [repr(float(v)) for v in path.U[t]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _parse_csv(text: str, lead: list[str], prefix: str) -> np.ndarray:
    """Rows of a CSV whose header is ``lead`` then prefix0..prefix{d-1}, d >= 1.

    Every row must have the header's column count, the ``t`` column must
    run 1..T, and at least one row must follow the header.
    """
    rows = []
    header = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            d = len(header) - len(lead)
            if d < 1 or header != lead + [f"{prefix}{j}" for j in range(d)]:
                want = ",".join(lead + [f"{prefix}0", "...", f"{prefix}{{d-1}}"])
                raise StreamSpecError(f"CSV header must be {want}, got {line!r}")
            continue
        t = len(rows) + 1
        if len(cells) != len(header):
            raise StreamSpecError(
                f"CSV row {t}: expected {len(header)} columns, got {len(cells)}"
            )
        try:
            row = [float(v) for v in cells]
        except ValueError as exc:
            raise StreamSpecError(f"CSV row {t}: {exc}") from exc
        if row[0] != t:
            raise StreamSpecError(f"CSV row {t}: t must be {t}, got {cells[0]}")
        rows.append(row)
    if header is None:
        raise StreamSpecError("empty CSV")
    if not rows:
        raise StreamSpecError("CSV has a header but no rows")
    return np.asarray(rows)


def stream_from_csv(text: str) -> Stream:
    data = _parse_csv(text, ["t", "y"], "z_")
    return Stream(Z=data[:, 2:], y=data[:, 1])


def path_from_csv(text: str) -> ComparatorPath:
    data = _parse_csv(text, ["t"], "u_")
    return ComparatorPath(U=data[:, 1:])
