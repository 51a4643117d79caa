"""Synthetic non-stationary regression streams, the numeric kernels the
learners and evaluators share (the exact discounted scan, ``row_dots``, the
referee of the learners' LAPACK calls and ``bound_holds``, the slack rule
of every relative bound check), and the CSV codec of every artifact.

The codec holds no file whole as text.  :func:`read_csv` reads a stream or
truth file ``CHUNK`` bytes at a time, and the writers format ``BLOCK_ROWS``
rows at a time into the open text file they are given; the bytes written
and the arrays read are those of a whole-text read or write.

Streams are generated with a counter-based Philox RNG so a given
:class:`StreamSpec` reproduces bit-for-bit on any platform.  Features are
sampled uniformly on the sphere of radius ``R`` and targets uniformly on the
sphere of radius ``B``, so the declared norm bounds hold exactly.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.linalg import _umath_linalg  # the learners' LAPACK; see _first_rejected

KINDS = ("piecewise-constant-target", "rotating-target", "logistic-drift")


class StreamSpecError(ValueError):
    """Raised when a stream specification is invalid."""


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
    """A realized stream: feature matrix ``Z`` (T x d) and labels ``y`` (T),
    both finite.  Round t of the accompanying math, which counts from 1, is
    row t - 1 of ``Z`` and ``y``; the learners take the arrays whole.
    """

    def __init__(self, Z: np.ndarray, y: np.ndarray):
        Z = np.asarray(Z, dtype=float)
        y = np.asarray(y, dtype=float)
        if Z.ndim != 2 or y.ndim != 1 or Z.shape[0] != y.shape[0]:
            raise StreamSpecError("Z must be (T, d) and y (T,) with matching T")
        # the extremes are finite exactly when every entry is: min and max
        # pass a nan on, and they make no temporary as large as Z
        if not all(map(np.isfinite, (Z.min(initial=0.0), Z.max(initial=0.0),
                                     y.min(initial=0.0), y.max(initial=0.0)))):
            raise StreamSpecError("stream entries must be finite")
        self.Z = Z
        self.y = y

    @property
    def T(self) -> int:
        return self.Z.shape[0]

    @property
    def d(self) -> int:
        return self.Z.shape[1]


class ComparatorPath:
    """A time-varying comparator sequence ``u_1..u_T`` as a (T, d) array.

    ``U`` is kept C-contiguous: a column view of a wider array (as a parsed
    CSV gives) is copied, so the path does not pin the array it came from
    and its rows compare without buffering.

    Any floats are accepted, nan and +-inf included; only the CLI's stream
    and truth readers refuse a non-finite cell.  The regret evaluators'
    ``regret._moved_rounds`` counts a row holding a nan as a move (``nan !=
    nan``), so they evaluate its losses.  A comparator at infinity can
    still give a finite dynamic regret: a logistic loss ``log1p(exp(-inf))``
    is 0, so a path at infinity on the side of every label (rows ``(-inf,
    inf)``, ``(-inf, inf)``, ``(inf, inf)``, ``(inf, -inf)`` against a
    two-expert ensemble, betas 0.5 and 0.9, on the seed-3 logistic stream
    with d = 2, T = 4) gives 2.586 under ``np.errstate(over="ignore",
    invalid="ignore")``.
    """

    def __init__(self, U: np.ndarray):
        U = np.ascontiguousarray(U, dtype=float)
        if U.ndim != 2:
            raise StreamSpecError("U must be a (T, d) array")
        self.U = U

    @property
    def T(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[1]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.U[i]


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


# Rows of at most this many entries scan by columns on Python floats; wider
# rows scan as two ufunc calls per row.  At T = 4000 with a float beta
# (Python 3.11, numpy 2.4, one Xeon core), 10 entries took 3.0 ms by columns
# and 5.6 ms by rows, 16 entries 4.8 and 5.6 ms, 32 entries 9.7 and 7.5 ms;
# one beta per row costs the column route about a quarter more.
COLUMN_SCAN_MAX = 16


def discounted_scan(
    v: np.ndarray, beta, s0=None, out: np.ndarray | None = None
) -> np.ndarray:
    """Discounted running sums s[n] = v[n] + beta[n]*s[n-1] along axis 0.

    ``beta`` is one float for every row or a sequence of one per row, and
    ``s0`` the state before the first row (zero when None), shaped like one
    row of ``v``.  Each row takes exactly the two roundings the formula
    shows, in order, so a float ``beta`` gives the first-order linear filter
    with denominator [1, -beta] started from beta*s0 (a zero may differ in
    sign), and the bits of that float repeated per row.  A sequence scanned
    in pieces, each started from the last row of the one before, gives the
    same rows as one scan of the whole.  inf and nan carry forward to every
    later row, without a warning.  The sums go to ``out``, a float array
    shaped like ``v`` that may be ``v`` itself, or to a new array.

    Rows of at most ``COLUMN_SCAN_MAX`` entries are scanned a column at a
    time on Python floats, which round the same way; wider rows cost two
    ufunc calls per row.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 1:
        raise ValueError("v must have at least one axis")
    prev = np.zeros(v.shape[1:]) if s0 is None else np.asarray(s0, dtype=float)
    if prev.shape != v.shape[1:]:
        raise ValueError(f"s0 must have the shape {v.shape[1:]} of one row, got {prev.shape}")
    scalar = np.ndim(beta) == 0
    beta = float(beta) if scalar else np.ascontiguousarray(beta, dtype=float)
    if not scalar and beta.shape != v.shape[:1]:
        raise ValueError(f"beta must be a float or {len(v)} floats, got shape {beta.shape}")
    if out is None:
        out = np.empty_like(v)
    elif out.shape != v.shape or out.dtype != float:
        raise ValueError(f"out must be a float array of the shape {v.shape} of v")
    if prev.size <= COLUMN_SCAN_MAX:
        _scan_columns(v, beta, prev, out)
        return out
    betas = itertools.repeat(beta) if scalar else memoryview(beta)
    carry = np.empty_like(prev)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, s, b in zip(v, out, betas):
            np.multiply(prev, b, out=carry)
            np.add(row, carry, out=s)
            prev = s
    return out


def _scan_columns(v: np.ndarray, beta, prev: np.ndarray, out: np.ndarray) -> None:
    """Write the scan of each column v[:, j, ...] of ``v``, started from
    prev[j, ...], to the same column of ``out``.

    A column is read through a strided memoryview, without a copy, and is
    read whole before its sums are written, so ``out`` may be ``v``.
    """
    betas = None if isinstance(beta, float) else memoryview(beta)

    def sums(column: memoryview, acc: float) -> Iterator[float]:
        if betas is None:
            for x in column:
                acc = x + beta * acc
                yield acc
        else:
            for x, b in zip(column, betas):
                acc = x + b * acc
                yield acc

    for j, acc in zip(np.ndindex(prev.shape), prev.ravel().tolist()):
        column = (slice(None), *j)
        out[column] = np.fromiter(sums(memoryview(v[column]), acc), float, len(v))


def row_dots(Z: np.ndarray, U: np.ndarray) -> np.ndarray:
    """[Z[0] @ U[0], ..., Z[T-1] @ U[T-1]] for (T, d) arrays, or
    [Z[0] @ u, ..., Z[T-1] @ u] for one (d,) vector u.

    A stack of (1, d) @ (d, 1) products goes through the same dot kernel as
    ``Z[t] @ U[t]``, so every entry equals the per-row product bit for bit,
    whatever the memory layout, and a prefix ``Z[:k]`` gives the first k
    entries of the whole.
    """
    return np.matmul(Z[:, None, :], U[..., None])[:, 0, 0]


def bound_holds(lhs, rhs):
    """lhs <= rhs within relative slack 1e-9 (1 + |rhs|), elementwise.

    The one rule of every relative bound check.  Floats give a bool and
    arrays a bool array.  A nan on either side is a violation, as is any lhs
    against rhs = -inf; rhs = +inf holds every lhs but nan, +inf included.
    """
    return lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def _first_rejected(public, out: np.ndarray, *stacks: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first stack entry that LAPACK rejects, or None.

    ``out`` is what a LAPACK gufunc of ``_umath_linalg`` (``solve`` or
    ``cholesky_lo``) returned for ``stacks``, arrays of matrices over the
    same leading axes, and ``public`` its ``np.linalg`` wrapper.  A gufunc
    does not raise: numpy fills an entry LAPACK rejects with nan.  A nan in
    the input or an overflow gives a nan too, which LAPACK accepts; the
    wrapper raises ``LinAlgError`` on LAPACK's flag alone.  So the wrapper
    referees each entry of ``out`` that holds a nan, in C order over the
    leading axes, and the first it rejects is returned.  Callers test
    ``out`` for a nan cheaply first, and keep their own messages.
    """
    for index in np.argwhere(np.isnan(out).any(axis=(-2, -1))).tolist():
        try:
            public(*(s[tuple(index)] for s in stacks))
        except np.linalg.LinAlgError:
            return tuple(index)
    return None


# ---------------------------------------------------------------------------
# CSV codec, one for every artifact: an optional `# comment` line, a header
# `t,...`, then rows with t = 1..T and floats written with repr (shortest
# round-trip decimal) so re-parsing is bit-faithful.  Streams have header
# `t,y,z_0,...,z_{d-1}`; the comparator truth goes to a sibling `*.truth.csv`
# with header `t,u_0,...,u_{d-1}`.
#
# No file is held whole as text.  The writers format BLOCK_ROWS rows at a
# time into the open text file they are given, and the readers take their
# text CHUNK characters (bytes, from a file) at a time, cut after a line
# end, so that str.splitlines gives the pieces the lines the whole text has.
# ---------------------------------------------------------------------------

BLOCK_ROWS = 256
CHUNK = 1 << 16
# Rows the reader's t and finiteness checks take at a time.
_CHECK_ROWS = 4096

# A truth path is written a run of bit-identical rows at a time when its runs
# are at least this many rows long on average, and a block of rows at a time
# otherwise.  At T = 4000 (Python 3.11, numpy 2.4, one Xeon core), runs of 3
# rows on average took 5.9 ms by runs and 7.4 ms by blocks at d = 1, 14 and
# 28 ms at d = 5, 44 and 104 ms at d = 20; a path whose rows all differ
# took 1.1 (d = 20) to 2.2 (d = 1) times as long by runs as by blocks.
MEAN_RUN_MIN = 3


def _write_head(out, header: list[str], comment: str | None) -> None:
    """Write the optional ``# comment`` line and the ``t,<header>`` line."""
    if comment:
        out.write(f"# {comment}\n")
    out.write(",".join(["t", *header]) + "\n")


def _write_rows(out, row: str, n: int, values) -> None:
    """Write ``n`` rows: the one-row template ``row`` repeated ``n`` times
    and filled by one ``%`` from the flat ``values`` (``%r`` writes a
    float's repr, ``%d`` writes t).  The codec's one block formatter."""
    out.write(row * n % tuple(values))


def write_csv(header: list[str], columns: list[np.ndarray], out,
              comment: str | None = None) -> None:
    """Write the artifact CSV `t,<header>` of (T,) or (T, k) float
    ``columns`` side by side to the open text file ``out``.

    Rows are formatted and written ``BLOCK_ROWS`` at a time, t carried in
    the block as an integral float, so no more than one block is held as
    text.
    """
    _write_head(out, header, comment)
    T = len(columns[0])
    for start in range(0, T, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, T)
        block = np.column_stack([np.arange(start + 1, stop + 1, dtype=float),
                                 *(c[start:stop] for c in columns)])
        row = "%d" + ",%r" * (block.shape[1] - 1) + "\n"
        _write_rows(out, row, len(block), block.ravel().tolist())


def stream_to_csv(stream: Stream, out, header_comment: str | None = None) -> None:
    """Write the stream CSV of ``stream`` to the open text file ``out``."""
    header = ["y"] + [f"z_{j}" for j in range(stream.d)]
    write_csv(header, [stream.y, stream.Z], out, header_comment)


def path_to_csv(path: ComparatorPath, out, header_comment: str | None = None) -> None:
    """Write the truth CSV of ``path`` to the open text file ``out``, the
    bytes :func:`write_csv` writes.

    A piecewise-constant path repeats each row for many rounds, so when its
    maximal runs of bit-identical rows (``0.0`` and ``-0.0`` differ, as
    their reprs do) average ``MEAN_RUN_MIN`` rows or more, each run's
    floats are formatted once into a row template that only ``%d`` fills,
    at most ``BLOCK_ROWS`` rows a ``%``.  Other paths go to
    :func:`write_csv`.
    """
    U, T = path.U, path.T
    header = [f"u_{j}" for j in range(path.d)]
    bits = U.view(np.int64)
    moved = (bits[1:] != bits[:-1]).any(axis=1)
    if MEAN_RUN_MIN * (np.count_nonzero(moved) + 1) > T:
        write_csv(header, [U], out, header_comment)
        return
    moves = np.flatnonzero(moved) + 1
    _write_head(out, header, header_comment)
    for start, stop in itertools.pairwise([0, *moves.tolist(), T]):
        row = ",".join(["%d", *map(repr, U[start].tolist())]) + "\n"
        for lo in range(start, stop, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, stop)
            _write_rows(out, row, hi - lo, range(lo + 1, hi + 1))


def _text_pieces(text: str) -> Iterator[str]:
    """``text`` in pieces of at least ``CHUNK`` characters, each cut after a
    line feed; the last takes the rest."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + CHUNK) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _file_pieces(raw) -> Iterator[str]:
    """The text of the binary file ``raw``, from its start, decoded as UTF-8
    ``CHUNK`` bytes at a time, each piece cut after its last CR or LF; the
    last takes the rest.  Such a cut splits no character.  splitlines reads
    a CR or CRLF as the line end that universal newlines would have made of
    it, and a CRLF that a cut splits gives one more blank line, which no
    reader keeps."""
    raw.seek(0)
    rest = b""
    while chunk := raw.read(CHUNK):
        chunk = rest + chunk
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        rest = chunk[cut:]
        if cut:
            piece = str(memoryview(chunk)[:cut], "utf-8")
            del chunk  # the piece alone is held while it is read
            yield piece
    if rest:
        yield rest.decode("utf-8")


def _piece_lines(piece: str) -> list[str]:
    """Stripped lines of ``piece`` that are neither blank nor ``#`` comments."""
    return [s for s in map(str.strip, piece.splitlines()) if s and s[0] != "#"]


def _content_lines(pieces: Iterable[str]) -> Iterator[str]:
    """The content lines of the text in ``pieces``, one piece's at a time."""
    return itertools.chain.from_iterable(map(_piece_lines, pieces))


def _line_bound(piece: str) -> int:
    """An upper bound on ``len(piece.splitlines())``.  Every character that
    ends a line of ASCII text (\\n, \\v, \\f, \\r, \\x1c-\\x1e) lies below
    0x1f, so one more than the count of those bounds it, and numpy counts
    them in a fraction of the time splitlines takes; other text is split."""
    if not piece.isascii():
        return len(piece.splitlines())
    return 1 + int(np.count_nonzero(np.frombuffer(piece.encode("ascii"), np.uint8) < 0x1F))


def _parse_csv(pieces: Callable[[], Iterator[str]], lead: list[str], prefix: str) -> np.ndarray:
    """Rows of a CSV whose header is ``lead`` then prefix0..prefix{d-1}, d >= 1.

    ``pieces()`` gives the text in pieces, each but the last cut after a
    line end.  It is called once to bound the count of the text's lines,
    and so of its rows, so that loadtxt sizes the result once
    (``max_rows``) instead of growing it; once to parse; and once more only
    to quote a wrong ``t``.

    Every row must have the header's column count, the ``t`` column must
    run 1..T, every cell must be finite, and at least one row must follow
    the header.  One ``np.loadtxt`` pass reads the rows, so the fault
    reported is the first column-count or cell fault in row order; the
    ``t`` column and the finiteness of the cells are checked after the
    parse, in row order, a row's ``t`` before its cells.  loadtxt takes its
    column count from the first row it reads, so that row's width is
    checked here; for later rows loadtxt's own message (``the number of
    columns changed from n to w at row r``) is mapped to ``CSV row r:
    expected n columns, got w``.  A numpy that rewords it fails the
    reader's single-fault tests first.
    """
    bound = sum(map(_line_bound, pieces()))
    lines = _content_lines(pieces())
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
    width = first.count(",") + 1
    if width != len(names):
        raise StreamSpecError(f"CSV row 1: expected {len(names)} columns, got {width}")
    try:
        data = np.loadtxt(itertools.chain((first,), lines), delimiter=",", comments=None,
                          ndmin=2, max_rows=bound)
    except ValueError as exc:
        message = str(exc)
        bad = re.search(r"could not convert string (.*) to \w+ at row (\d+)", message)
        if bad is not None:  # numpy counts this row from 0
            raise StreamSpecError(
                f"CSV row {int(bad[2]) + 1}: could not convert string to float: {bad[1]}"
            ) from exc
        ragged = re.search(r"number of columns changed from (\d+) to (\d+) at row (\d+)", message)
        if ragged is not None:  # and this one from 1
            raise StreamSpecError(
                f"CSV row {ragged[3]}: expected {ragged[1]} columns, got {ragged[2]}"
            ) from exc
        raise StreamSpecError(f"CSV: {exc}") from exc
    # a block of rows at a time, so that no check makes a temporary as
    # long as the file
    for start in range(0, len(data), _CHECK_ROWS):
        block = data[start:start + _CHECK_ROWS]
        wrong_t = block[:, 0] != np.arange(start + 1, start + len(block) + 1)
        bad = np.flatnonzero(wrong_t | ~np.isfinite(block).all(axis=1))
        if bad.size:
            t = start + int(bad[0]) + 1
            if wrong_t[bad[0]]:
                cell = next(itertools.islice(_content_lines(pieces()), t, None)).split(",")[0]
                raise StreamSpecError(f"CSV row {t}: t must be {t}, got {cell}")
            row = data[t - 1]
            value = float(row[~np.isfinite(row)][0])
            raise StreamSpecError(f"CSV row {t}: entries must be finite, got {value!r}")
    return data


# The header lead and column prefix of each CSV input, and what its rows make.
_INPUTS = {
    "stream": (["t", "y"], "z_", lambda data: Stream(Z=data[:, 2:], y=data[:, 1])),
    "truth": (["t"], "u_", lambda data: ComparatorPath(U=data[:, 1:])),
}


def _read(pieces: Callable[[], Iterator[str]], role: str):
    """The stream or truth path (``role``) in the text ``pieces()`` gives."""
    lead, prefix, make = _INPUTS[role]
    return make(_parse_csv(pieces, lead, prefix))


def stream_from_csv(text: str) -> Stream:
    """The stream in the CSV ``text``, read as :func:`read_csv` reads a file."""
    return _read(lambda: _text_pieces(text), "stream")


def path_from_csv(text: str) -> ComparatorPath:
    """The truth path in the CSV ``text``, read as :func:`read_csv` reads a file."""
    return _read(lambda: _text_pieces(text), "truth")


def read_csv(file, role: str) -> Stream | ComparatorPath:
    """The stream (``role`` ``"stream"``) or truth path (``"truth"``) in the
    CSV file at the path ``file``.

    The file is read ``CHUNK`` bytes at a time, twice (see
    :func:`_parse_csv`), so no pass holds more than a piece of it as text;
    the lines, the arrays and every message are those of the str entries
    on the file's text.  The text is UTF-8.  A byte that is not raises,
    before any fault of the CSV's, the ``UnicodeDecodeError`` of a decode
    of the whole file, whose offset counts from the file's start: that
    path alone reads the file whole.
    """
    with open(file, "rb") as raw:
        try:
            return _read(lambda: _file_pieces(raw), role)
        except UnicodeDecodeError:
            raw.seek(0)
            raw.read().decode("utf-8")  # the same fault, its offset in the file
            raise
