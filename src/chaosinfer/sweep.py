"""End-to-end instrument sweep.

Simulates one noisy trajectory, scans a grid of binary decision points, and
for every point selects a Markov order and estimates entropy rates.  emit
writes a SweepResult's scored columns: the summary as CSV or JSON, and the
detail CSV of a result scored with detail.  JSON round-trips losslessly back
to SweepResult.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import numbers
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass
from itertools import chain, compress, repeat, starmap
from typing import NamedTuple

import numpy as np

# transition_counts is no longer called here, but this module still binds
# it: perfbench's tracer tests check that installing the tracer rebinds it.
from .counts import (
    MAX_TABLE_ENTRIES,
    CountTable,
    count_windows,
    grid_top_counts,
    lower_orders,
    transition_counts,
)
from .dynamics import (
    MAP_FAMILIES,
    MapSpec,
    NoiseSpec,
    log_slope_sum,
    mean_log_slope,
    recorded_chunks,
)
from .entropy import expected_info
from .inference import DirichletPrior
from .order_select import (
    ORDER_PRIOR_KINDS,
    OrderRange,
    order_log_evidences,
    order_log_prior,
    posterior_over_orders,
)
from .symbolize import decision_points, state_cuts

FORMAT_CHOICES = ("csv", "json")

# Decision points are counted a block at a time: a counting block holds as
# many points as keep its order-k_max tables, 8 bytes a cell, within
# COUNT_BLOCK_BYTES.  That bounds the shared series' difference array, which
# is one row longer, and the regenerated series' tables and per-chunk
# bincount.  A counting block is scored in slices of half its points, at
# least one, so the lower-order tables and the scoring temporaries exist for
# one slice at a time.  From k_max = 16 on both are one point whose table
# alone exceeds the bound.
COUNT_BLOCK_BYTES = 1 << 20
# The output rows of this many points, and their detail rows, are formatted
# and written together.
EMIT_CHUNK_ROWS = 64
# The top-of-range warning names at most this many decision points.
TOP_OF_RANGE_SHOWN = 5
# Accepted Dirichlet pseudo-counts.  digamma(alpha), about -1/alpha,
# overflows to -inf below the smallest normal float.  At the top, the largest
# table (MAX_TABLE_ENTRIES cells, k_max = 25) has posterior mass
# n + MAX_TABLE_ENTRIES * alpha of about half the largest float, so it and
# twice it (the bias term's denominator) stay finite.
MIN_ALPHA = sys.float_info.min
MAX_ALPHA = sys.float_info.max / (2 * MAX_TABLE_ENTRIES)


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
        # Exponents are compared: for a huge k_max, 2 ** (k_max + 1) is too long to print.
        top = MAX_TABLE_ENTRIES.bit_length() - 2  # the largest k_max whose table fits
        if self.k_max > top:
            raise ConfigError(f"k_max={self.k_max} needs 2**{self.k_max + 1} table entries per "
                              f"decision point, over the limit of {MAX_TABLE_ENTRIES}; the "
                              f"largest accepted k_max is {top}")
        if self.n <= self.k_max + 1:
            raise ConfigError(f"n={self.n} must exceed k_max + 1 = {self.k_max + 1}")
        if not MIN_ALPHA <= self.alpha <= MAX_ALPHA:
            raise ConfigError(f"alpha={self.alpha} must lie in [{MIN_ALPHA!r}, {MAX_ALPHA!r}]")

    def _check_paths(self) -> None:
        """The checks of validate that ask the file system whether the outputs can be written."""
        for name in ("out_path", "detail_path"):
            path = getattr(self, name)
            if path is None:
                continue
            # An empty name, or one ending in a separator, has no file part.
            if not os.path.basename(path) or os.path.isdir(path):
                raise ConfigError(f"{name}={path!r} does not name a file")
            # The writer creates missing directories, which fails under a file.
            parent = os.path.dirname(os.path.abspath(path))
            while not os.path.lexists(parent):
                parent = os.path.dirname(parent)
            if not os.path.isdir(parent):
                raise ConfigError(f"{name}={path!r} cannot be created: {parent!r} is not a "
                                  "directory")
        _check_distinct(self.out_path, self.detail_path)


def _check_distinct(out_path: str, detail_path: str | None) -> None:
    """Reject a detail path that resolves to the summary's, which it would replace."""
    if detail_path is not None and os.path.realpath(detail_path) == os.path.realpath(out_path):
        raise ConfigError(f"out_path and detail_path both name {out_path!r}; "
                          "the detail file would replace the summary")


@dataclass(frozen=True)
class SweepRow:
    """Per decision point: selected order, entropy estimates, order posterior."""

    d: float
    k_selected: int | None
    h_expected_bits: float
    h_rate_q_bits: float
    kl_correction_bits: float
    log_evidence: tuple[float, ...]
    p_order: tuple[float, ...]
    error: str | None = None


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
    best: np.ndarray  # (points,) index in the order range of each selected order, -1 if failed
    # (5, points, orders): the float fields of DetailRow, in field order, all NaN
    # at a failed point.  Without detail, entropy is NaN at the orders no point
    # of the scoring slice selected.
    values: np.ndarray
    errors: dict[int, str]  # {point index: error text} of each failed point
    detail: bool  # whether entropy was estimated at every order, as for a detail_path


def _row_cells(result):
    """The cells of each row of `result` as a tuple in field order, which
    costs less to make than a SweepRow."""
    orders, scores = _orders(result.config), result._scores
    errors = map(scores.errors.get, range(len(scores.d)))
    for d, b, e, r, c, le, p, error in zip(scores.d.tolist(), scores.best.tolist(),
                                           *scores.values.tolist(), errors):
        yield (d, orders[b] if error is None else None, e[b], r[b], c[b], tuple(le), tuple(p),
               error)


def _detail_cells(result):
    """The cells of each detail row of `result` as a tuple in field order:
    one per order of each row without an error if config.detail_path is set,
    else none."""
    if result.config.detail_path is None:
        return
    orders, scores = _orders(result.config), result._scores
    for i, (d, e, r, c, le, p) in enumerate(zip(scores.d.tolist(), *scores.values.tolist())):
        if i not in scores.errors:
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
    run_sweep and from_rows.  dataclasses.replace keeps the columns, so it
    must keep the config's k_min, k_max and detail_path.  `rows` and
    `detail` are read-only views of the columns, built on first read.
    Results are equal when their configs, Lyapunov estimates, rows and detail
    rows are, a NaN cell equal to a NaN cell, and are not hashable."""

    config: SweepConfig
    lyapunov_bits: float
    _scores: _Scores = dataclasses.field(repr=False)

    def __post_init__(self):
        if isinstance(self.lyapunov_bits, np.generic):
            object.__setattr__(self, "lyapunov_bits", self.lyapunov_bits.item())
        scores, width = self._scores, len(_orders(self.config))
        if not (isinstance(scores, _Scores) and scores.values.shape == (5, len(scores.d), width)):
            raise ValueError(f"{type(scores).__name__} is not the scores of {width} orders; "
                             "SweepResult.from_rows makes a result from rows")
        if scores.detail != (self.config.detail_path is not None):
            raise ValueError(f"columns scored {'with' if scores.detail else 'without'} detail "
                             f"under a config with detail_path={self.config.detail_path!r}")

    @classmethod
    def from_rows(cls, config: SweepConfig, lyapunov_bits: float, rows,
                  detail=()) -> "SweepResult":
        """The result whose rows and detail rows are `rows` and `detail`; a
        row's estimates are its detail rows' if config.detail_path is set.  A
        row with an error is a failed point, whose cells are all NaN.
        ValueError(ROUND_TRIP) unless the columns built write back exactly
        the given rows and detail rows."""
        return _from_cells(config, lyapunov_bits, map(dataclasses.astuple, rows),
                           map(dataclasses.astuple, detail))

    @functools.cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """One SweepRow per decision point."""
        return tuple(starmap(SweepRow, _row_cells(self)))

    @functools.cached_property
    def detail(self) -> tuple[DetailRow, ...]:
        """One DetailRow per order of each row without an error if
        config.detail_path is set, else none."""
        return tuple(starmap(DetailRow, _detail_cells(self)))

    def __eq__(self, other):
        if not isinstance(other, SweepResult):
            return NotImplemented
        return _same(*((dataclasses.astuple(result.config), result.lyapunov_bits,
                        tuple(_row_cells(result)), tuple(_detail_cells(result)))
                       for result in (self, other)))

    def tally(self) -> tuple[int, int, int, tuple[float, int, float] | None]:
        """(rows, failed rows, detail rows, peak), where the peak is (d,
        k_selected, h_expected_bits) of the first row without an error of the
        largest h_expected_bits, None if every row failed."""
        orders, scores = _orders(self.config), self._scores
        rows, failed = len(scores.d), len(scores.errors)
        peak = None
        h = np.take_along_axis(scores.values[0], scores.best[:, None], axis=1)[:, 0].tolist()
        for i, (d, b, value) in enumerate(zip(scores.d.tolist(), scores.best.tolist(), h)):
            if i not in scores.errors and (peak is None or value > peak[2]):
                peak = d, orders[b], value
        detail = (rows - failed) * len(orders) if self.config.detail_path is not None else 0
        return rows, failed, detail, peak


# The one check of a result made from rows or read from JSON.
ROUND_TRIP = "the columns built must write back exactly the given rows and detail rows"
# What cells of the wrong kind or number raise while a result is built from them.
_BAD_CELLS = (ArithmeticError, LookupError, TypeError, ValueError)


def _from_cells(config, lyapunov_bits, rows, detail) -> SweepResult:
    """SweepResult.from_rows of rows and detail rows given as tuples of their
    cells in field order.  A row's cells are d, k_selected, its three
    estimates, log_evidence, p_order and error; a detail row's are d, k, its
    three estimates, log_evidence and p_order.  An order cell (k_selected of
    a row without an error, k of a detail row) that is a bool or not an
    integer, any failure to build the columns, and columns that break
    ROUND_TRIP are ValueError(ROUND_TRIP)."""
    try:
        orders = _orders(config)
        width = len(orders)
        rows, detail = list(rows), list(detail)
        ok = np.array([row[-1] is None for row in rows], dtype=bool)
        good = [row for row in rows if row[-1] is None]
        # _same finds 1 == 1.0 == True, so the round trip alone lets these pass.
        if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool)
                   for k in chain((row[1] for row in good), (cells[1] for cells in detail))):
            raise TypeError("an order is not an integer")
        best = np.full(len(rows), -1)
        best[ok] = [orders.index(row[1]) for row in good]
        values = np.full((5, len(rows), width), np.nan)
        per_order = np.array([row[5:7] for row in good], dtype=float)
        values[3:, ok] = per_order.reshape(-1, 2, width).swapaxes(0, 1)
        if config.detail_path is not None:
            estimates = np.array([cells[2:5] for cells in detail], dtype=float)
            values[:3, ok] = estimates.reshape(-1, width, 3).transpose(2, 0, 1)
        # A row's estimates go to its selected order, over its detail row's.
        estimates = np.array([row[2:5] for row in good], dtype=float).reshape(-1, 3)
        values[:3, ok.nonzero()[0], best[ok]] = estimates.T
        d = np.array([row[0] for row in rows], dtype=float)
        errors = {i: row[-1] for i, row in enumerate(rows) if row[-1] is not None}
        result = SweepResult(config, lyapunov_bits,
                             _Scores(d, best, values, errors, config.detail_path is not None))
        if _same((tuple(_row_cells(result)), tuple(_detail_cells(result))),
                 (tuple(rows), tuple(detail))):
            return result
    except _BAD_CELLS as exc:
        raise ValueError(ROUND_TRIP) from exc
    raise ValueError(ROUND_TRIP)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full experiment described by `config`.

    One trajectory is shared across all decision points unless
    regenerate_per_d is set (then point i uses seed + 1 + i, and its series
    equals generate_trajectory's with that seed).  Every series is stepped
    and read a chunk at a time (see dynamics.recorded_chunks), so no memory
    grows with n but the shared series' cuts in the grid (see
    _shared_series).  Decision points are counted a block of
    COUNT_BLOCK_BYTES at a time and scored in slices of half a block, whose
    scores fill columns over the whole grid.  Rows are independent: a
    failure of the inference at one decision point is recorded on its row
    and does not abort the sweep.  Rows that select the top order of the
    range are reported in one RuntimeWarning.  Fully deterministic given
    the seed.
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
    scores = _Scores(points, np.full(config.grid, -1), values, {}, config.detail_path is not None)
    for start in range(0, config.grid, counted):
        ds = points[start:start + counted]
        # Passed on, not kept: a block's tables are freed before the next is counted.
        _score_slices(scores, start, *_block_counts(config, map_spec, noise, cuts, start, ds,
                                                    orders[-1]), scored, orders, log_priors, prior)
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
    return mean_log_slope(sums, config.n), cuts


def _block_counts(config, map_spec, noise, cuts, start, ds, k_max):
    """The order-k_max tables, shape (G, 2**(k_max+1)), and the first k_max
    symbols, shape (G, k_max), of the decision points ds, which start at
    grid point `start`: the pair that lower_orders takes.

    The shared series is counted from its cuts by grid_top_counts in one
    pass.  With regenerate_per_d, point start + i gets its own series,
    counted by _regenerated_counts.
    """
    if config.regenerate_per_d:
        seeds = range(config.seed + 1 + start, config.seed + 1 + start + len(ds))
        return _regenerated_counts(map_spec, noise, config.n, config.transient, seeds, ds, k_max)
    return grid_top_counts(cuts, start, len(ds), k_max)


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


def _score_slices(scores, start, top, first, scored, orders, *args) -> None:
    """Score the points of a counting block, from grid point `start` on,
    `scored` at a time into `scores`, from their order-k_max tables `top`
    and first k_max symbols `first`: the lower orders exist for one slice at
    a time."""
    for at in range(0, len(top), scored):
        stacked = lower_orders(top[at:at + scored], first[at:at + scored], orders)
        tables = {k: CountTable(stacked[k].reshape(len(stacked[k]), -1, 2)) for k in orders}
        _score_into(scores, start + at, tables, orders, *args)


def _score_into(scores, start, tables, orders, log_priors, prior) -> None:
    """Fill the columns of the decision points from `start` on with their
    scores (see _score).  If scoring them raises, they are scored one at a
    time, so that a point that fails on its own keeps its NaN cells and gets
    its error text."""
    points = len(tables[orders[0]].table)
    try:
        best, values = _score(tables, orders, log_priors, prior, scores.detail)
    except Exception as exc:
        if points == 1:
            scores.errors[start] = str(exc) or type(exc).__name__  # the type names it if no text
        else:
            for i in range(points):
                one = {k: CountTable(t.table[i:i + 1]) for k, t in tables.items()}
                _score_into(scores, start + i, one, orders, log_priors, prior)
    else:
        scores.best[start:start + points], scores.values[:, start:start + points] = best, values


def _score(tables, orders, log_priors, prior, want_detail):
    """(best, values): the index in `orders` of each point's selected order
    and its (5, points, orders) values (see _Scores), from `tables`, which
    maps each order to the stacked count tables of the points.  Entropy is
    estimated at every order for detail rows, otherwise at the orders some
    point selected, so that a summary row fails only when the estimate at
    its own order does.
    """
    les = order_log_evidences(tables, prior)
    post, best = posterior_over_orders(les, log_priors)
    values = np.full((5, *les.shape), np.nan)
    values[3], values[4] = les, post
    for j in range(len(orders)) if want_detail else np.unique(best).tolist():
        e = expected_info(tables[orders[j]], prior)
        values[:3, :, j] = e.expected_info, e.h_rate_q, e.kl_correction
    return best, values


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


# (name, per_order, is_float) of each field, read from its annotation: a
# tuple[float, ...] field holds one float per order, a float field one float.
_FIELDS = {
    cls: [(f.name, f.type.startswith("tuple["), f.type == "float") for f in dataclasses.fields(cls)]
    for cls in (SweepConfig, SweepRow, DetailRow)
}


def _header(cls, orders=()) -> list[str]:
    """CSV column names of `cls`: a per-order field is one column {name}_k{k} per order."""
    header = []
    for name, per_order, _ in _FIELDS[cls]:
        header += [f"{name}_k{k}" for k in orders] if per_order else [name]
    return header


def csv_header(config: SweepConfig) -> list[str]:
    return _header(SweepRow, _orders(config))


def _read_float(value) -> float:
    return math.nan if value is None else float(value)


def _loaded(cls, obj) -> tuple:
    """The cells of the `cls` of a JSON object written by emit, in field
    order: a per-order list becomes a tuple, and null in a float field NaN."""
    cells = []
    for name, per_order, is_float in _FIELDS[cls]:
        value = obj[name]
        if per_order:
            value = tuple(map(_read_float, value))
        elif is_float:
            value = _read_float(value)
        cells.append(value)
    return tuple(cells)


def _templates(cls, width: int = 0) -> tuple[str, str]:
    """A row of `cls` as a CSV line and as a JSON object, with a %s per cell
    and `width` cells per per-order field."""
    cells, members = [], []
    for name, per_order, _ in _FIELDS[cls]:
        cells.append(",".join(["%s"] * width) if per_order else "%s")
        members.append(f'"{name}": ' + (f"[{', '.join(['%s'] * width)}]" if per_order else "%s"))
    return ",".join(cells) + "\n", "{" + ", ".join(members) + "}"


def _spell(value, csv_cell: bool) -> str:
    """A cell as CSV if `csv_cell`, else as JSON: a finite float as its
    repr, None and NaN as a blank cell and null, an infinity as inf and
    "inf", and anything else, such as a text, as csv.writer quotes it in a
    row of several cells and as the JSON encoder encodes it."""
    if isinstance(value, float):
        text = repr(value)
        if math.isfinite(value):
            return text
        value = None if math.isnan(value) else text
    if not csv_cell:
        return json.dumps(value)
    buf = io.StringIO()
    # Minimal quoting quotes the terminator's characters: a bare \r too.
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])
    return buf.getvalue()[:-3]


def _filled(template: str, piece, csv_cell: bool) -> str:
    """`template`, a CSV line if `csv_cell` else a JSON object, once per row
    of `piece`, filled with its cells.

    A piece is (rows, texts, odd): the repr of each of its cells, row after
    row, and {position: value} of the cells whose repr is not what is
    written.  The repr of a finite number ends in a digit, and CSV and JSON
    both write it as it is; _spell writes the odd cells."""
    rows, texts, odd = piece
    if odd:
        texts = list(texts)
        for at, value in odd.items():
            texts[at] = _spell(value, csv_cell)
    return ("" if csv_cell else ",\n    ").join([template] * rows) % tuple(texts)


def _non_finite(cells: np.ndarray, before: int, after: int) -> dict:
    """{position: value} of the non-finite cells of a 2-D array, each row of
    which is the floats of a row of cells that holds `before` more cells
    ahead of them and `after` more behind."""
    at = np.flatnonzero(~np.isfinite(cells))
    if not at.size:
        return {}
    rows, columns = divmod(at, cells.shape[1])
    at += rows * (before + after) + before
    return dict(zip(at.tolist(), cells[rows, columns].tolist()))


def _pieces(scores, orders, detail: bool, missing: str):
    """Each EMIT_CHUNK_ROWS points of the columns as two pieces (see
    _filled): their summary rows and, if `detail`, the detail rows of those
    of them that did not fail, else None.

    Each float is repr'd once: d once per point, every other float once per
    (point, order) cell.  A summary row's estimates are its cells at the
    selected order, its per-order lists its cells at every order, and its
    error `missing`, the summary's None, unless the point failed.  The odd
    cells are found from np.isfinite and the failed points, not by checking
    each cell: the non-finite floats, such as a failed point's values, which
    are all NaN, and the order and error of each failed point."""
    width = len(orders)
    ks = list(map(repr, orders))
    for start in range(0, len(scores.d), EMIT_CHUNK_ROWS):
        part = slice(start, start + EMIT_CHUNK_ROWS)
        points = len(scores.d[part])
        failed = np.flatnonzero(scores.best[part] < 0).tolist()
        best = np.maximum(scores.best[part], 0)  # a failed point reads its own NaN cells
        at = (np.arange(points) * width + best).tolist()  # each selected cell
        values = scores.values[:, part].reshape(5, -1)
        selected = values[:3, at]
        d = list(map(repr, scores.d[part].tolist()))
        estimates = [list(map(repr, column))
                     for column in (values[:3] if detail else selected).tolist()]
        les, post = ([*map(repr, column)] for column in values[3:].tolist())
        chosen = [[*map(column.__getitem__, at)] for column in estimates] if detail else estimates
        texts = tuple(chain.from_iterable(zip(
            d, map(ks.__getitem__, best.tolist()), *chosen,
            *(les[j::width] for j in range(width)), *(post[j::width] for j in range(width)),
            repeat(missing),
        )))
        cells = np.concatenate([selected.T, *scores.values[3:, part]], axis=1)  # after d and k
        odd = _non_finite(cells, 2, 1)
        row = cells.shape[1] + 3  # the cells of a summary row
        for i in failed:  # no order, and an error last
            odd[i * row + 1] = None
            odd[i * row + row - 1] = scores.errors[start + i]
        if not detail or len(failed) == points:
            yield (points, texts, odd), None
            continue
        rows = zip([text for text in d for _ in orders], ks * points, *estimates, les, post)
        cells = values.T  # the detail cells after d and k as floats
        if failed:  # which have no detail rows
            kept = np.repeat(scores.best[part] >= 0, width)
            rows, cells = compress(rows, kept.tolist()), cells[kept]
        detail_texts = tuple(chain.from_iterable(rows))
        yield (points, texts, odd), (len(cells), detail_texts, _non_finite(cells, 2, 0))


def _dump(result: SweepResult, summary: str, fh, detail_fh=None) -> None:
    """Write the summary of the result to `fh` as `summary`, "csv" or "json",
    and its detail CSV to `detail_fh` if one is given, in one pass over its
    columns, EMIT_CHUNK_ROWS points at a time.  No file is held whole in
    memory: the JSON's detail objects, which follow all of its rows, wait in
    a temporary file until the rows are written."""
    orders = _orders(result.config)
    if summary == "csv":
        csv.writer(fh, lineterminator="\n").writerow(csv_header(result.config))
    else:
        config = tuple(_spell(getattr(result.config, name), False)
                       for name, _, _ in _FIELDS[SweepConfig])
        fh.write('{\n  "config": %s,\n  "lyapunov_bits": %s,\n  "rows": [' % (
            _templates(SweepConfig)[1] % config, _spell(result.lyapunov_bits, False)))
    if detail_fh is not None:
        csv.writer(detail_fh, lineterminator="\n").writerow(_header(DetailRow))
    row_template = _templates(SweepRow, len(orders))[summary == "json"]
    detail_line, detail_object = _templates(DetailRow)
    detail = (detail_fh is not None or summary == "json") and result.config.detail_path is not None
    missing = _spell(None, summary == "csv")
    pieces = _pieces(result._scores, orders, detail, missing)
    spool = (tempfile.TemporaryFile("w+", encoding="utf-8", newline="") if summary == "json"
             else contextlib.nullcontext())
    with spool:
        rows = objects = 0
        for piece, details in pieces:
            if summary == "json":
                fh.write(",\n    " if rows else "\n    ")
                rows += 1
            fh.write(_filled(row_template, piece, summary == "csv"))
            if details and detail_fh is not None:
                detail_fh.write(_filled(detail_line, details, True))
            if details and summary == "json":
                spool.write(",\n    " if objects else "\n    ")
                spool.write(_filled(detail_object, details, False))
                objects += 1
        if summary == "json":
            fh.write(("\n  ]" if rows else "]") + ',\n  "detail": [')
            spool.seek(0)
            shutil.copyfileobj(spool, fh)
            fh.write(("\n  ]" if objects else "]") + "\n}\n")


def _write_files(write, *paths: str) -> None:
    """Create each of `paths` with write(fh, ...), one file per path, each
    written to a temporary file beside its target.  The targets are replaced
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
                parent = os.path.dirname(path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                target = os.path.realpath(path)
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
    whose config has none, so that it holds no detail, is a ConfigError."""
    if out_format not in FORMAT_CHOICES:
        raise ConfigError(f"format {out_format!r} must be one of {FORMAT_CHOICES}")
    _check_distinct(path, detail_path)
    if detail_path is not None and result.config.detail_path is None:
        raise ConfigError(f"detail_path={detail_path!r}: the result was scored without detail; "
                          "run the sweep with a detail_path to write one")
    paths = [path] if detail_path is None else [path, detail_path]
    _write_files(lambda *files: _dump(result, out_format, *files), *paths)


def load_sweep_json(path: str) -> SweepResult:
    """Reload a JSON summary written by emit().  Any other JSON is
    ValueError(ROUND_TRIP), as from_rows would reject it, its config holds a
    value that validate rejects, or it lacks a part.  Its output paths are
    not checked: the file may have been written on another machine."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        config = SweepConfig(*_loaded(SweepConfig, obj["config"]))
        config._check_values()
        rows = [_loaded(SweepRow, r) for r in obj["rows"]]
        detail = [_loaded(DetailRow, r) for r in obj["detail"]]
        lyapunov_bits = _read_float(obj["lyapunov_bits"])
    except _BAD_CELLS as exc:
        raise ValueError(ROUND_TRIP) from exc
    return _from_cells(config, lyapunov_bits, rows, detail)
