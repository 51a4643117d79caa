"""Synthetic non-stationary regression streams, geometric weights, the exact
discounted scan, and the CSV codec of every artifact.

Streams are generated with a counter-based Philox RNG so a given
:class:`StreamSpec` reproduces bit-for-bit on any platform.  Features are
sampled uniformly on the sphere of radius ``R`` and targets uniformly on the
sphere of radius ``B``, so the declared norm bounds hold exactly.
"""

from __future__ import annotations

import itertools
import re
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


def philox_rng(seed: int) -> np.random.Generator:
    """The generator of every seeded draw; ``seed`` must lie in [0, 2**64)."""
    # Philox is counter-based with a published algorithm; identical seeds
    # reproduce identical draws across platforms.
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _sphere(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return radius * g / norms


def _phase_ends(T: int, segments: int) -> list[int]:
    """ceil(T*k/segments) for k = 1..segments: the last round of each phase."""
    return [-(-T * k // segments) for k in range(1, segments + 1)]  # ceil division


def segment_index(t: int, T: int, segments: int) -> int:
    """0-based drift-phase index of round ``t`` (1-based).

    Round t lies in phase k (0-based) iff ceil(T*k/segments) < t <=
    ceil(T*(k+1)/segments).
    """
    for k, end in enumerate(_phase_ends(T, segments)):
        if t <= end:
            return k
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
    # phase of round t: the first phase whose last round is >= t
    seg = np.searchsorted(_phase_ends(T, spec.segments), np.arange(1, T + 1))
    return targets[seg]


def gen_stream(spec: StreamSpec) -> tuple[Stream, ComparatorPath]:
    """Generate a stream and its ground-truth comparator path.

    Labels are ``y_t = u_t . z_t + noise * N(0,1)`` for the regression
    kinds, and the sign of that quantity (0 mapped to +1) for
    ``logistic-drift``.  The same spec always yields identical output;
    radii or noise that overflow fail the finite check of :class:`Stream`.
    """
    spec.validate()
    rng = philox_rng(spec.seed)
    with np.errstate(over="ignore", invalid="ignore"):
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


def discounted_scan(v: np.ndarray, beta: float, s0=None) -> np.ndarray:
    """Discounted running sums s[n] = v[n] + beta*s[n-1] along axis 0.

    ``s0`` is the state before the first row (zero when None), shaped like
    one row of ``v``.  Each row takes exactly the two roundings the formula
    shows, in order, so the result equals the first-order linear filter with
    denominator [1, -beta] started from beta*s0 (a zero may differ in sign),
    and a sequence scanned in pieces, each started from the last row of the
    one before, gives the same rows as one scan of the whole.  inf and nan
    carry forward to every later row, without a warning.  A 1-D ``v`` runs
    on Python floats, which round the same way; any wider ``v`` costs two
    ufunc calls per row.
    """
    v = np.asarray(v, dtype=float)
    prev = np.zeros(v.shape[1:]) if s0 is None else np.asarray(s0, dtype=float)
    if v.ndim < 1:
        raise ValueError("v must have at least one axis")
    if prev.shape != v.shape[1:]:
        raise ValueError(f"s0 must have the shape {v.shape[1:]} of one row, got {prev.shape}")
    beta = float(beta)
    if v.ndim == 1:
        def sums(acc: float) -> Iterator[float]:
            for x in memoryview(np.ascontiguousarray(v)):  # Python floats, no list
                acc = x + beta * acc
                yield acc

        return np.fromiter(sums(float(prev)), float, len(v))
    out = np.empty_like(v)
    carry = np.empty_like(prev)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, s in zip(v, out):
            np.multiply(prev, beta, out=carry)
            np.add(row, carry, out=s)
            prev = s
    return out


# ---------------------------------------------------------------------------
# CSV codec, one for every artifact: an optional `# comment` line, a header
# `t,...`, then rows with t = 1..T and floats written with repr (shortest
# round-trip decimal) so re-parsing is bit-faithful.  Streams have header
# `t,y,z_0,...,z_{d-1}`; the comparator truth goes to a sibling `*.truth.csv`
# with header `t,u_0,...,u_{d-1}`.
# ---------------------------------------------------------------------------


def csv_text(header: list[str], columns: list[np.ndarray], comment: str | None = None) -> str:
    """Artifact CSV `t,<header>` of (T,) or (T, k) ``columns`` side by side.

    Rows are formatted 256 at a time, never as one list of all T rows.
    """
    parts = [f"# {comment}\n"] if comment else []
    parts.append(",".join(["t", *header]) + "\n")
    for start in range(0, len(columns[0]), 256):
        block = np.column_stack([c[start : start + 256] for c in columns]).tolist()
        parts.append("".join([f"{t},{','.join(map(repr, row))}\n"
                              for t, row in enumerate(block, start + 1)]))
    return "".join(parts)


def stream_to_csv(stream: Stream, header_comment: str | None = None) -> str:
    header = ["y"] + [f"z_{j}" for j in range(stream.d)]
    return csv_text(header, [stream.y, stream.Z], header_comment)


def path_to_csv(path: ComparatorPath, header_comment: str | None = None) -> str:
    return csv_text([f"u_{j}" for j in range(path.d)], [path.U], header_comment)


def _content_lines(text: str) -> Iterator[str]:
    """Stripped lines of ``text`` that are neither blank nor ``#`` comments."""
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _parse_csv(text: str, lead: list[str], prefix: str) -> np.ndarray:
    """Rows of a CSV whose header is ``lead`` then prefix0..prefix{d-1}, d >= 1.

    Every row must have the header's column count, the ``t`` column must
    run 1..T, and at least one row must follow the header.
    """
    lines = _content_lines(text)
    header = next(lines, None)
    if header is None:
        raise StreamSpecError("empty CSV")
    names = header.split(",")
    d = len(names) - len(lead)
    if d < 1 or names != lead + [f"{prefix}{j}" for j in range(d)]:
        want = ",".join(lead + [f"{prefix}0", "...", f"{prefix}{{d-1}}"])
        raise StreamSpecError(f"CSV header must be {want}, got {header!r}")
    first = next(lines, None)
    if first is None:
        raise StreamSpecError("CSV has a header but no rows")

    def rows() -> Iterator[str]:
        for t, line in enumerate(itertools.chain([first], lines), 1):
            width = line.count(",") + 1
            if width != len(names):
                raise StreamSpecError(
                    f"CSV row {t}: expected {len(names)} columns, got {width}"
                )
            yield line

    try:
        data = np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2)
    except StreamSpecError:
        raise
    except ValueError as exc:  # numpy counts the data rows from 0
        bad = re.search(r"could not convert string (.*) to \w+ at row (\d+)", str(exc))
        if bad is None:
            raise StreamSpecError(f"CSV: {exc}") from exc
        raise StreamSpecError(
            f"CSV row {int(bad[2]) + 1}: could not convert string to float: {bad[1]}"
        ) from exc
    wrong = np.flatnonzero(data[:, 0] != np.arange(1, len(data) + 1))
    if wrong.size:
        t = int(wrong[0]) + 1
        cell = next(itertools.islice(_content_lines(text), t, None)).split(",")[0]
        raise StreamSpecError(f"CSV row {t}: t must be {t}, got {cell}")
    return data


def stream_from_csv(text: str) -> Stream:
    data = _parse_csv(text, ["t", "y"], "z_")
    return Stream(Z=data[:, 2:], y=data[:, 1])


def path_from_csv(text: str) -> ComparatorPath:
    data = _parse_csv(text, ["t"], "u_")
    return ComparatorPath(U=data[:, 1:])
