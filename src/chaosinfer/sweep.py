"""End-to-end instrument sweep.

Simulates one noisy trajectory, scans a grid of binary decision points, and
for every point selects a Markov order and estimates entropy rates at every
order.  emit writes a SweepResult's scored columns: the summary as CSV or
JSON, and the detail CSV of a result whose config names a detail_path.  JSON
round-trips losslessly back to SweepResult.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import numbers
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from pathlib import Path
from typing import NamedTuple

import numpy as np

# transition_counts is no longer called here, but this module still binds
# it: perfbench's tracer tests check that installing the tracer rebinds it.
from .counts import count_windows, grid_block_counts, lower_orders, transition_counts
from .dynamics import (
    MAP_FAMILIES,
    MapSpec,
    NoiseSpec,
    log_slope_sum,
    mean_log_slope,
    recorded_chunks,
)
from .entropy import order_scores
from .inference import DirichletPrior
from .order_select import (
    ORDER_PRIOR_KINDS,
    OrderRange,
    order_log_prior,
    posterior_over_orders,
)
from .symbolize import decision_points, state_cuts

# The text each output format writes for None and for a float whose repr is
# nan, inf or -inf; the repr of a finite float is written as it is.
_SPELLING = {
    "csv": {None: "", "nan": "", "inf": "inf", "-inf": "-inf"},
    "json": {None: "null", "nan": "null", "inf": '"inf"', "-inf": '"-inf"'},
}
FORMAT_CHOICES = tuple(_SPELLING)

# Decision points are counted a block at a time: a counting block holds as
# many points as keep its order-k_max tables, 8 bytes a cell, within
# COUNT_BLOCK_BYTES.  That bounds the shared series' difference array, which
# is one row longer, and the regenerated series' tables; both kernels add
# their events into these in place, so no chunk allocates anything as wide.
# A counting block is scored in slices of half its points, at least one, so
# the lower-order tables and the scoring temporaries exist for one slice at
# a time.  From k_max = 16 on both are one point whose table alone exceeds
# the bound.
COUNT_BLOCK_BYTES = 1 << 20
# The output rows of this many points, and their detail rows, are formatted
# and written together.
EMIT_CHUNK_ROWS = 64
# The top-of-range warning names at most this many decision points.
TOP_OF_RANGE_SHOWN = 5


class ConfigError(ValueError):
    """Invalid sweep configuration."""


def _setting(default, text: str, *, choices=None, flag=None):
    """A SweepConfig field with its help text, allowed values and, where it
    differs from the field name, its command-line flag (also a config-file key)."""
    return dataclasses.field(
        default=default, metadata={"help": text, "choices": choices, "flag": flag}
    )


# The values of each type a SweepConfig field is annotated with: an int
# passes for a float, and only a bool field takes a bool.
_TYPES = {"bool": bool, "int": int, "str": str, "None": type(None), "float": (int, float)}


@dataclass(frozen=True)
class SweepConfig:
    """Settings for one sweep.

    Defaults: fully chaotic logistic map with weak additive noise, one series
    of 10^4 states after 10^3 warm-up steps, 200 decision points, orders 1..8
    compared under the model-size penalty with a flat Dirichlet prior.

    These fields are the whole config schema: the command line and the config
    file derive their flags, keys, value types and help text from them.
    """

    family: str = _setting("logistic", "map family", choices=MAP_FAMILIES)
    r: float = _setting(4.0, "map control parameter")
    sigma: float = _setting(1e-3, "noise standard deviation")
    n: int = _setting(10_000, "number of recorded states")
    transient: int = _setting(1_000, "discarded warm-up steps")
    seed: int = _setting(0, "random seed")
    grid: int = _setting(200, "number of decision points spanning [0, 1]")
    k_min: int = _setting(1, "smallest Markov order")
    k_max: int = _setting(8, "largest Markov order")
    order_prior: str = _setting(
        "size-penalty", "prior over orders",
        choices=tuple(kind.replace("_", "-") for kind in ORDER_PRIOR_KINDS),
    )
    alpha: float = _setting(1.0, "symmetric Dirichlet pseudo-count")
    regenerate_per_d: bool = _setting(
        False, "fresh trajectory per decision point instead of one shared series"
    )
    out_format: str = _setting("csv", "summary output format", choices=FORMAT_CHOICES,
                               flag="format")
    out_path: str = _setting("sweep.csv", "summary output path", flag="out")
    detail_path: str | None = _setting(None, "optional per-(d, k) estimates CSV path",
                                       flag="detail")

    def __post_init__(self) -> None:
        # A numpy scalar is stored as its Python value, which neither wraps
        # around nor rounds to a narrow type, and which JSON can encode.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.generic):
                object.__setattr__(self, field.name, value.item())

    def validate(self) -> None:
        """Raise ConfigError for a value the sweep cannot run with, then for an
        output path that cannot be written here."""
        self._check_values()
        self._check_paths()

    def _check_values(self) -> None:
        """The checks of validate that read the fields alone, not the file system."""
        for field in dataclasses.fields(self):
            choices, value = field.metadata["choices"], getattr(self, field.name)
            types = tuple(_TYPES[name] for name in field.type.split(" | "))
            if not isinstance(value, types) or isinstance(value, bool) != (field.type == "bool"):
                raise ConfigError(f"{field.name}={value!r} is not of type {field.type}")
            if choices is not None and value not in choices:
                raise ConfigError(f"{field.name} {value!r} must be one of {choices}")
        try:
            MapSpec(self.family, self.r)
            NoiseSpec(self.sigma)
            OrderRange(self.k_min, self.k_max)
            DirichletPrior(self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        if self.n < 1:
            raise ConfigError(f"n={self.n} must be >= 1")
        if self.transient < 0:
            raise ConfigError(f"transient={self.transient} must be >= 0")
        if self.grid < 2:
            raise ConfigError(f"grid={self.grid} must be >= 2")
        if self.n <= self.k_max + 1:
            raise ConfigError(f"n={self.n} must exceed k_max + 1 = {self.k_max + 1}")

    def _check_paths(self) -> None:
        """The checks of validate that ask the file system whether the outputs can be written."""
        for name in ("out_path", "detail_path"):
            path = getattr(self, name)
            if path is None:
                continue
            # An empty name, or one ending in a separator, has no file part.
            if not os.path.basename(path) or os.path.isdir(path):
                raise ConfigError(f"{name}={path!r} does not name a file")
            # The writer writes at the resolved target; one still a symlink is in a loop.
            target = os.path.realpath(path)
            if os.path.islink(target):
                raise ConfigError(f"{name}={path!r} is a symlink loop")
            # The writer creates the target's missing directories, which fails under a file.
            parent = os.path.dirname(target)
            while not os.path.lexists(parent):
                parent = os.path.dirname(parent)
            if not os.path.isdir(parent):
                raise ConfigError(f"{name}={path!r} cannot be created: {parent!r} is not a "
                                  "directory")
        _check_distinct(self.out_path, self.detail_path)


def _check_distinct(out_path: str, detail_path: str | None) -> None:
    """Reject a detail path that resolves to the summary's, which it would
    replace, unless that is a character device such as /dev/null, written to in place."""
    target = os.path.realpath(out_path)
    if (detail_path is not None and os.path.realpath(detail_path) == target
            and not Path(target).is_char_device()):
        raise ConfigError(f"out_path and detail_path both name {out_path!r}; "
                          "the detail file would replace the summary")


@dataclass(frozen=True)
class SweepRow:
    """Per decision point: selected order, entropy estimates, order posterior."""

    d: float
    k_selected: int
    h_expected_bits: float
    h_rate_q_bits: float
    kl_correction_bits: float
    log_evidence: tuple[float, ...]
    p_order: tuple[float, ...]
    error: str | None = None  # always None: a scoring failure stops the sweep


@dataclass(frozen=True)
class DetailRow:
    """Entropy estimates of one (decision point, order) pair."""

    d: float
    k: int
    h_expected_bits: float
    h_rate_q_bits: float
    kl_correction_bits: float
    log_evidence: float
    p_order: float


class _Scores(NamedTuple):
    """The scores of every decision point of a sweep, as columns over the grid."""

    d: np.ndarray  # (points,)
    best: np.ndarray  # (points,) index in the order range of each selected order
    values: np.ndarray  # (5, points, orders): the float fields of DetailRow, in field order


def _row_cells(result):
    """The cells of each row of `result` as a tuple in field order, which
    costs less to make than a SweepRow."""
    orders, scores = _orders(result.config), result._scores
    for d, b, e, r, c, le, p in zip(scores.d.tolist(), scores.best.tolist(),
                                    *scores.values.tolist()):
        yield d, orders[b], e[b], r[b], c[b], tuple(le), tuple(p), None


def _detail_cells(result):
    """The cells of each detail row of `result` as a tuple in field order:
    one per order of each row if config.detail_path is set, else none."""
    if result.config.detail_path is None:
        return
    orders, scores = _orders(result.config), result._scores
    for d, e, r, c, le, p in zip(scores.d.tolist(), *scores.values.tolist()):
        yield from zip(repeat(d), orders, e, r, c, le, p)


def _same(a, b) -> bool:
    """a == b, with a NaN equal to a NaN, also inside tuples."""
    if a == b or (a != a and b != b):
        return True
    return (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
            and all(map(_same, a, b)))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's config, Lyapunov estimate and scored columns, made only by
    run_sweep, from_rows and load_sweep_json.  dataclasses.replace keeps
    the columns, so it must keep the config's k_min and k_max.  `rows` and
    `detail` are read-only views of the columns, built on first read; a
    result made from rows without detail rows holds NaN estimates at
    unselected orders.  Results are equal when their configs, Lyapunov
    estimates, rows and detail rows are, a NaN cell equal to a NaN cell;
    none is hashable."""

    config: SweepConfig
    lyapunov_bits: float
    _scores: _Scores = dataclasses.field(repr=False)

    def __post_init__(self):
        if isinstance(self.lyapunov_bits, np.generic):
            object.__setattr__(self, "lyapunov_bits", self.lyapunov_bits.item())
        scores, width = self._scores, len(_orders(self.config))
        if not (isinstance(scores, _Scores) and scores.values.shape == (5, *scores.d.shape, width)):
            raise ValueError(f"{type(scores).__name__} is not the scores of {width} orders; "
                             "SweepResult.from_rows makes a result from rows")

    @classmethod
    def from_rows(cls, config: SweepConfig, lyapunov_bits: float, rows,
                  detail=()) -> "SweepResult":
        """The result whose rows and detail rows are `rows` and `detail`; a
        row's estimates are its detail rows' if config.detail_path is set.
        ValueError(ROUND_TRIP) unless the columns built write back exactly
        the given rows and detail rows, which every row with an error text
        or without an order breaks."""
        rows, detail = (tuple(map(dataclasses.astuple, part)) for part in (rows, detail))
        try:
            # A bool or float order passes _same, which finds 1 == 1.0 == True.
            if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool)
                       for k in chain((row[1] for row in rows), (cells[1] for cells in detail))):
                raise TypeError("an order is not an integer")
            result = _columns(config, lyapunov_bits, rows, detail)
            if _same((tuple(_row_cells(result)), tuple(_detail_cells(result))), (rows, detail)):
                return result
        except _BAD_CELLS as exc:
            raise ValueError(ROUND_TRIP) from exc
        raise ValueError(ROUND_TRIP)

    @functools.cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """One SweepRow per decision point."""
        return tuple(starmap(SweepRow, _row_cells(self)))

    @functools.cached_property
    def detail(self) -> tuple[DetailRow, ...]:
        """One DetailRow per order of each row if config.detail_path is set,
        else none."""
        return tuple(starmap(DetailRow, _detail_cells(self)))

    def __eq__(self, other):
        if not isinstance(other, SweepResult):
            return NotImplemented
        return _same(*((dataclasses.astuple(result.config), result.lyapunov_bits,
                        tuple(_row_cells(result)), tuple(_detail_cells(result)))
                       for result in (self, other)))

    def tally(self) -> tuple[int, int, tuple[float, int, float] | None]:
        """(rows, detail rows, peak), where the peak is (d, k_selected,
        h_expected_bits) of the first row of the largest h_expected_bits that
        is not NaN, None if there is none."""
        orders, scores = _orders(self.config), self._scores
        rows = len(scores.d)
        detail = rows * len(orders) if self.config.detail_path is not None else 0
        h = np.take_along_axis(scores.values[0], scores.best[:, None], axis=1)[:, 0]
        kept = np.flatnonzero(~np.isnan(h))
        if not kept.size:
            return rows, detail, None
        i = kept[np.argmax(h[kept])]  # argmax takes the first of equal values
        return rows, detail, (scores.d[i].item(), orders[scores.best[i]], h[i].item())


# The one check of a result made from rows or read from JSON.
ROUND_TRIP = "the columns built must write back exactly the given rows and detail rows"
# What cells of the wrong kind or number raise while a result is built from them.
_BAD_CELLS = (ArithmeticError, LookupError, TypeError, ValueError)


def _columns(config, lyapunov_bits, rows, detail) -> SweepResult:
    """The result of `config` whose rows and detail rows have the cells
    `rows` and `detail`, in field order; of a detail row only the estimates
    are read.  Floats go through numpy's float conversion, which reads None
    as NaN and "inf" as inf.  One of _BAD_CELLS if no columns can be built,
    a d is not one float in [0, 1] or lyapunov_bits is not one float."""
    orders = _orders(config)
    best = np.array([orders.index(row[1]) for row in rows], dtype=int)
    values = np.full((5, len(rows), len(orders)), np.nan)
    per_order = np.array([row[5:7] for row in rows], dtype=float)
    values[3:] = per_order.reshape(-1, 2, len(orders)).swapaxes(0, 1)
    if config.detail_path is not None:
        estimates = np.array([cells[2:5] for cells in detail], dtype=float)
        values[:3] = estimates.reshape(-1, len(orders), 3).transpose(2, 0, 1)
    # A row's estimates go to its selected order, over its detail row's.
    estimates = np.array([row[2:5] for row in rows], dtype=float).reshape(-1, 3)
    values[:3, np.arange(len(rows)), best] = estimates.T
    d = np.array([row[0] for row in rows], dtype=float)
    lyapunov_bits = np.array(lyapunov_bits, dtype=float)
    # A d is a decision point, which NaN is not; SweepResult rejects a d column that is not 1-D.
    if lyapunov_bits.ndim or not np.all((0.0 <= d) & (d <= 1.0)):
        raise ValueError("a d lies outside [0, 1], or lyapunov_bits is not one float")
    return SweepResult(config, lyapunov_bits.item(), _Scores(d, best, values))


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full experiment described by `config`.

    One trajectory is shared across all decision points unless
    regenerate_per_d is set (then point i uses seed + 1 + i, and its series
    equals generate_trajectory's with that seed).  Every series is stepped
    and read a chunk at a time (see dynamics.recorded_chunks), so no memory
    grows with n but the shared series' cuts in the grid (see
    _shared_series).  Decision points are counted a block of
    COUNT_BLOCK_BYTES at a time and scored in slices of half a block, whose
    scores fill columns over the whole grid; the posterior over orders is
    taken once per counting block.  A slice or block that fails to score
    stops the sweep with a RuntimeError that names its d range.  Rows that
    select the top order of the range are reported in one RuntimeWarning.
    Fully deterministic given the seed.
    """
    config.validate()
    map_spec = MapSpec(config.family, config.r)
    noise = NoiseSpec(config.sigma)
    orders = tuple(_orders(config))
    points = decision_points(config.grid)
    lam, cuts = _shared_series(config, map_spec, noise, points)
    log_priors = [order_log_prior(k, 2, config.order_prior) for k in orders]
    prior = DirichletPrior(config.alpha)
    counted = max(1, COUNT_BLOCK_BYTES // (8 << (orders[-1] + 1)))
    scored = max(1, counted // 2)
    values = np.full((5, config.grid, len(orders)), np.nan)
    scores = _Scores(points, np.zeros(config.grid, int), values)
    blocks = _counted_blocks(config, map_spec, noise, cuts, points, counted, orders[-1])
    for start in range(0, config.grid, counted):
        # Passed on, not kept: a block's tables are freed before the next is counted.
        _score_slices(scores, start, *next(blocks), scored, orders, log_priors, prior)
    _warn_top_of_range(scores, orders)
    return SweepResult(config, lam, scores)


def _orders(config: SweepConfig) -> range:
    return OrderRange(config.k_min, config.k_max).orders()


def _shared_series(config, map_spec, noise, points):
    """The Lyapunov estimate of the shared series and, unless regenerate_per_d
    is set, the cut of each of its states in `points` (see state_cuts), of
    which a byte or two a state is all that is kept.  Each chunk of states
    is cut and its slopes summed before the next chunk overwrites it."""
    cuts = None
    if not config.regenerate_per_d:
        cuts = np.empty(config.n, dtype=np.min_scalar_type(len(points)))
    sums, at = [], 0
    for chunk in recorded_chunks(map_spec, noise, config.n, config.transient, [config.seed]):
        states = chunk[:, 0]
        if cuts is not None:
            cuts[at:at + len(states)] = state_cuts(states, points)
        at += len(states)
        sums.append(log_slope_sum(map_spec, states))
    return mean_log_slope(sums, config.n, stacklevel=4), cuts  # names run_sweep's caller


def _counted_blocks(config, map_spec, noise, cuts, points, counted, k_max):
    """An iterator over the blocks of `counted` decision points in grid
    order, each as its order-k_max tables, shape (G, 2**(k_max+1)), and
    first k_max symbols, shape (G, k_max): the pair that lower_orders takes.

    The shared series is counted from its cuts by grid_block_counts, each
    block from the last table of the one before.  With regenerate_per_d,
    point i gets its own series, counted by _regenerated_counts.
    """
    if not config.regenerate_per_d:
        return grid_block_counts(cuts, config.grid, counted, k_max)
    seeds = range(config.seed + 1, config.seed + 1 + config.grid)
    return (_regenerated_counts(map_spec, noise, config.n, config.transient,
                                seeds[start:start + counted], points[start:start + counted], k_max)
            for start in range(0, config.grid, counted))


def _regenerated_counts(map_spec, noise, n, transient, seeds, ds, k_max):
    """The order-k_max tables, shape (G, 2**(k_max+1)), and the first k_max
    symbols, shape (G, k_max), of the series of G decision points: series g
    is generate_trajectory(map_spec, noise, n, transient, seeds[g])
    symbolized at ds[g].  Each chunk of recorded_chunks is counted as it
    comes, so the memory does not grow with n.
    """
    top = np.zeros((len(ds), 2 << k_max), dtype=np.int64)
    history = np.zeros((0, len(ds)), dtype=bool)
    first = None
    for chunk in recorded_chunks(map_spec, noise, n, transient, seeds):
        symbols = count_windows(top, chunk, ds, history)
        if first is None and len(symbols) >= k_max:
            first = symbols[:k_max].T
        history = symbols[max(0, len(symbols) - k_max):]
    return top, first


def _score_slices(scores, start, top, first, scored, orders, log_priors, prior) -> None:
    """Fill the columns of the points of a counting block, from grid point
    `start` on, with their scores, from their order-k_max tables `top` and
    first k_max symbols `first`.  The lower orders and the scoring
    temporaries exist for `scored` points at a time, scored by one
    order_scores call; the posterior over orders is then taken once over
    the whole block, each point's along its own row, so its floats do not
    depend on the block.  A slice whose lower orders or scores raise, or a
    block whose posterior raises, is a RuntimeError that names its first
    and last d."""
    for at in range(0, len(top), scored):
        tops, firsts = top[at:at + scored], first[at:at + scored]
        part = slice(start + at, start + at + len(tops))
        with _naming(scores.d[part]):
            les, e = order_scores(lower_orders(tops, firsts, orders), prior)
            scores.values[:4, part] = e.expected_info, e.h_rate_q, e.kl_correction, les
    block = slice(start, start + len(top))
    with _naming(scores.d[block]):
        post, best = posterior_over_orders(scores.values[3, block], log_priors)
    scores.best[block], scores.values[4, block] = best, post


@contextlib.contextmanager
def _naming(ds):
    """Re-raise any exception raised within the `with` as a RuntimeError
    that names the first and last of the decision points `ds` it scores."""
    try:
        yield
    except Exception as exc:
        first_d, last_d = ds[[0, -1]].tolist()
        raise RuntimeError(f"cannot score the decision points d = {first_d!r} to "
                           f"{last_d!r}: {exc!r}") from exc


def _warn_top_of_range(scores, orders) -> None:
    top = scores.d[scores.best == len(orders) - 1].tolist()
    if len(orders) > 1 and top:
        shown = ", ".join(f"{d:g}" for d in top[:TOP_OF_RANGE_SHOWN])
        more = ", ..." if len(top) > TOP_OF_RANGE_SHOWN else ""
        warnings.warn(
            f"{len(top)} of {len(scores.d)} decision points selected order {orders[-1]}, the top "
            f"of the range (d = {shown}{more}); the range may be truncating the true order",
            RuntimeWarning,
            stacklevel=3,
        )


# (name, per_order) of each field: a tuple[float, ...] field holds one float per order.
_FIELDS = {
    cls: [(f.name, f.type.startswith("tuple[")) for f in dataclasses.fields(cls)]
    for cls in (SweepConfig, SweepRow, DetailRow)
}


def _layout(cls, orders=()) -> tuple[str, str, str]:
    """The CSV header line of `cls`, and a row of `cls` as a CSV line and as a
    JSON object with a %s per cell.  A per-order field is one CSV column
    {name}_k{k} per order of `orders`, and one JSON list of as many cells."""
    names, members, cells = [], [], ", ".join(["%s"] * len(orders))
    for name, per_order in _FIELDS[cls]:
        names += [f"{name}_k{k}" for k in orders] if per_order else [name]
        members.append(f'"{name}": [{cells}]' if per_order else f'"{name}": %s')
    return (",".join(names) + "\n", ",".join(["%s"] * len(names)) + "\n",
            "{" + ", ".join(members) + "}")


def _filled(template: str, piece, fmt: str) -> str:
    """`template`, a row of `fmt`, "csv" or "json", once per row of `piece`,
    filled with its cells.

    A piece is (rows, texts, finite): the text of each of its cells, row
    after row, a float's being its repr, and True only if all of its floats
    are finite.  The texts of a piece that is not are spelled by _SPELLING[fmt];
    the repr of a finite float, an error text and a JSON-encoded value are
    none of its keys."""
    rows, texts, finite = piece
    if not finite:
        texts = map(_SPELLING[fmt].get, texts, texts)
    return ("" if fmt == "csv" else ",\n    ").join([template] * rows) % tuple(texts)


def _distinct_reprs(column: np.ndarray) -> list[str]:
    """The repr of each float of a contiguous 1-D array, each distinct value
    repr'd once.  Values are told apart by their bits, so 0.0 and -0.0 keep
    their own texts."""
    distinct, at = np.unique(column.view(np.int64), return_inverse=True)
    texts = list(map(repr, distinct.view(np.float64).tolist()))
    return list(map(texts.__getitem__, at.tolist()))


def _pieces(scores, orders, detail: bool, missing: str):
    """Each EMIT_CHUNK_ROWS points of the columns as two pieces (see
    _filled): their summary rows and, if `detail`, their detail rows, else
    None.

    Each float is repr'd once: d once per point, kl_correction, which
    depends only on (k, n), once per distinct value in the chunk, and every
    other float once per (point, order) cell.  A summary row's estimates are
    its cells at the selected order, its per-order lists its cells at every
    order, and its error `missing`, the summary's None.  Both pieces are
    finite if all of the chunk's columns are, which one np.isfinite finds; a
    d always is."""
    width = len(orders)
    ks = list(map(repr, orders))
    for start in range(0, len(scores.d), EMIT_CHUNK_ROWS):
        part = slice(start, start + EMIT_CHUNK_ROWS)
        points = len(scores.d[part])
        best = scores.best[part]
        at = (np.arange(points) * width + best).tolist()  # each selected cell
        values = scores.values[:, part].reshape(5, -1)
        d = list(map(repr, scores.d[part].tolist()))
        finite = bool(np.isfinite(values).all())
        columns = values[:3] if detail else values[:3, at]
        estimates = [*(list(map(repr, column)) for column in columns[:2].tolist()),
                     _distinct_reprs(columns[2])]
        les, post = ([*map(repr, column)] for column in values[3:].tolist())
        chosen = [[*map(column.__getitem__, at)] for column in estimates] if detail else estimates
        texts = tuple(chain.from_iterable(zip(
            d, map(ks.__getitem__, best.tolist()), *chosen,
            *(les[j::width] for j in range(width)), *(post[j::width] for j in range(width)),
            repeat(missing),
        )))
        if not detail:
            yield (points, texts, finite), None
            continue
        rows = zip([text for text in d for _ in orders], ks * points, *estimates, les, post)
        yield (points, texts, finite), (points * width, tuple(chain.from_iterable(rows)), finite)


def _dump(result: SweepResult, summary: str, fh, detail_fh=None) -> None:
    """Write the summary of the result to `fh` as `summary`, "csv" or "json",
    and its detail CSV to `detail_fh` if one is given, in one pass over its
    columns, EMIT_CHUNK_ROWS points at a time.  No file is held whole in
    memory: the JSON's detail objects, which follow all of its rows, wait in
    a temporary file until the rows are written."""
    orders = _orders(result.config)
    header, line, row_object = _layout(SweepRow, orders)
    if summary == "csv":
        fh.write(header)
    else:
        # A config value or lyapunov_bits that is a float is spelled as a row's float is.
        values = [*(getattr(result.config, name) for name, _ in _FIELDS[SweepConfig]),
                  result.lyapunov_bits]
        texts = [repr(v) if isinstance(v, float) else json.dumps(v) for v in values]
        head = '{\n  "config": %s,\n  "lyapunov_bits": %%s,\n  "rows": ['
        fh.write(_filled(head % _layout(SweepConfig)[2], (1, texts, False), "json"))
    detail_header, detail_line, detail_object = _layout(DetailRow)
    if detail_fh is not None:
        detail_fh.write(detail_header)
    row_template = line if summary == "csv" else row_object
    detail = (detail_fh is not None or summary == "json") and result.config.detail_path is not None
    pieces = _pieces(result._scores, orders, detail, _SPELLING[summary][None])
    spool = (tempfile.TemporaryFile("w+", encoding="utf-8", newline="") if summary == "json"
             else contextlib.nullcontext())
    with spool:
        rows = objects = 0
        for piece, details in pieces:
            if summary == "json":
                fh.write(",\n    " if rows else "\n    ")
                rows += 1
            fh.write(_filled(row_template, piece, summary))
            if details and detail_fh is not None:
                detail_fh.write(_filled(detail_line, details, "csv"))
            if details and summary == "json":
                spool.write(",\n    " if objects else "\n    ")
                spool.write(_filled(detail_object, details, "json"))
                objects += 1
        if summary == "json":
            fh.write(("\n  ]" if rows else "]") + ',\n  "detail": [')
            spool.seek(0)
            shutil.copyfileobj(spool, fh)
            fh.write(("\n  ]" if objects else "]") + "\n}\n")


def _write_files(write, *paths: str) -> None:
    """Create each of `paths` with write(fh, ...), one file per path, each
    written to a temporary file beside its target, whose missing directories
    are created.  The targets are replaced
    only once write has returned, so a failure never leaves a truncated
    file.  Each file keeps the permission bits open(path, "w") gives: those
    of a replaced file.  As with open(), a symlink is written through, and a
    device or pipe such as /dev/null, which cannot be replaced, is written
    to in place."""
    pending = []  # (temporary file, target) of each file to replace
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                target = os.path.realpath(path)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                if os.path.exists(target) and not os.path.isfile(target):
                    files.append(stack.enter_context(
                        open(target, "w", encoding="utf-8", newline="")))
                    continue
                tmp = f"{target}.{os.urandom(4).hex()}.tmp"
                files.append(stack.enter_context(open(tmp, "x", encoding="utf-8", newline="")))
                pending.append((tmp, target))
                with contextlib.suppress(FileNotFoundError):
                    os.chmod(tmp, os.stat(target).st_mode & 0o7777)
            write(*files)
        for tmp, target in pending:
            os.replace(tmp, target)
    except OSError as exc:
        raise OSError(f"cannot write {' and '.join(map(repr, paths))}: {exc}") from exc
    finally:
        for tmp, _ in pending:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)  # only left when something failed


def emit(result: SweepResult, out_format: str, path: str, detail_path: str | None = None) -> None:
    """Write the sweep summary as CSV or JSON at `path`, and the detail CSV
    at `detail_path` if one is given.  Both files are written in one pass,
    and replaced only once both are written.  A detail_path for a result
    whose config has none, so that it holds no detail rows, is a ConfigError."""
    if out_format not in FORMAT_CHOICES:
        raise ConfigError(f"format {out_format!r} must be one of {FORMAT_CHOICES}")
    _check_distinct(path, detail_path)
    if detail_path is not None and result.config.detail_path is None:
        raise ConfigError(f"detail_path={detail_path!r}: the result's config names no "
                          "detail_path, so it holds no detail rows")
    paths = [path] if detail_path is None else [path, detail_path]
    _write_files(lambda *files: _dump(result, out_format, *files), *paths)


@dataclass
class _WriteBack:
    """A file for _dump that keeps nothing it is given: each piece written
    must be the next piece of `text`, else ValueError(ROUND_TRIP)."""

    text: str
    at: int = 0  # the length of text written so far

    def write(self, piece: str) -> None:
        if not self.text.startswith(piece, self.at):
            raise ValueError(ROUND_TRIP)
        self.at += len(piece)


def load_sweep_json(path: str) -> SweepResult:
    """Reload a JSON summary written by emit().  The file loads only if emit
    writes exactly its text for the result built from it; any other file,
    such as one without a part or with a config value that validate
    rejects, is ValueError(ROUND_TRIP).  Its output paths are not checked:
    the file may have been written on another machine."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
        config = SweepConfig(**obj["config"])
        config._check_values()
        rows, detail = ([[cells[name] for name, _ in _FIELDS[cls]] for cells in obj[part]]
                        for cls, part in ((SweepRow, "rows"), (DetailRow, "detail")))
        result = _columns(config, obj["lyapunov_bits"], rows, detail)
    except _BAD_CELLS as exc:
        raise ValueError(ROUND_TRIP) from exc
    written = _WriteBack(text)
    _dump(result, "json", written)
    if written.at != len(text):
        raise ValueError(ROUND_TRIP)
    return result
