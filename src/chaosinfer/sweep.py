"""End-to-end instrument sweep.

Simulates one noisy trajectory, scans a grid of binary decision points, and
for every point selects a Markov order and estimates entropy rates.  Results
serialize to CSV or JSON; JSON round-trips losslessly back to SweepResult.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, getitem

import numpy as np

# transition_counts is no longer called here, but this module still binds
# it: perfbench's tracer tests check that installing the tracer rebinds it.
from .counts import (
    MAX_TABLE_ENTRIES,
    CountTable,
    count_windows,
    grid_transition_counts,
    lower_orders,
    transition_counts,
)
from .dynamics import (
    MAP_FAMILIES,
    MapSpec,
    NoiseSpec,
    generate_trajectory,
    lyapunov_exponent,
    start_lockstep,
    step_lockstep,
)
from .entropy import expected_info
from .inference import uniform_prior
from .order_select import (
    ORDER_PRIOR_KINDS,
    OrderRange,
    order_log_evidences,
    order_log_prior,
    posterior_over_orders,
)
from .symbolize import decision_grid

FORMAT_CHOICES = ("csv", "json")

# Decision points are counted and scored a block at a time; a block holds as
# many points as keep its order-k_max table entries at or under this, which
# bounds its temporaries, including the regenerated series' per-chunk
# bincount.  A block always holds at least one point, so from k_max = 16 on
# it is one point whose table alone exceeds this.
GRID_BLOCK_ENTRIES = 1 << 16
# With regenerate_per_d, a block of at least LOCKSTEP_MIN_POINTS points steps
# its series in lockstep.  A lockstep step costs a few numpy calls whatever
# the width, so narrower blocks simulate each series on its own (on a 2-vCPU
# Xeon host the two break even near 24 points, and lockstep is 1.35x as fast
# at 32).  A lockstep block advances a chunk of time steps at a time whose
# states take LOCKSTEP_CHUNK_BYTES; its shocks and window codes take as much
# again each.
LOCKSTEP_MIN_POINTS = 32
LOCKSTEP_CHUNK_BYTES = 1 << 18
# Output rows are formatted and written this many at a time.
EMIT_CHUNK_ROWS = 64
# The top-of-range warning names at most this many decision points.
TOP_OF_RANGE_SHOWN = 5
# Accepted Dirichlet pseudo-counts.  gammaln and digamma take 1/alpha, which
# overflows to inf below the smallest normal float.  At the top, the largest
# table (MAX_TABLE_ENTRIES cells, k_max = 25) has posterior mass
# n + MAX_TABLE_ENTRIES * alpha of about half the largest float, so it and
# twice it (the bias term's denominator) stay finite.  Every gammaln and
# digamma argument is at most n + 2 * alpha, far below gammaln's own overflow
# near 2.5e305.
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

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            choices, value = field.metadata["choices"], getattr(self, field.name)
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
        if 2 ** (self.k_max + 1) > MAX_TABLE_ENTRIES:
            raise ConfigError(
                f"k_max={self.k_max} needs {2 ** (self.k_max + 1)} table entries per decision "
                f"point, over the limit of {MAX_TABLE_ENTRIES}"
            )
        if self.n <= self.k_max + 1:
            raise ConfigError(f"n={self.n} must exceed k_max + 1 = {self.k_max + 1}")
        if not MIN_ALPHA <= self.alpha <= MAX_ALPHA:
            raise ConfigError(f"alpha={self.alpha} must lie in [{MIN_ALPHA!r}, {MAX_ALPHA!r}]")
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
        if self.detail_path is not None and (
            os.path.realpath(self.detail_path) == os.path.realpath(self.out_path)
        ):
            raise ConfigError(f"out_path and detail_path both name {self.out_path!r}; "
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


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    lyapunov_bits: float
    rows: tuple[SweepRow, ...]
    detail: tuple[DetailRow, ...] = ()


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the full experiment described by `config`.

    One trajectory is shared across all decision points unless
    regenerate_per_d is set (then point i uses seed + 1 + i, and its series
    equals generate_trajectory's with that seed).  Decision points are
    counted and scored a block at a time; a wide enough block of regenerated
    series is stepped in lockstep and counted a chunk of time at a time, so
    its memory is bounded by LOCKSTEP_CHUNK_BYTES rather than by n.  Rows are
    independent: a failure of the inference at one decision point is
    recorded on its row and does not abort the sweep.  Rows that select the top order of the range
    are reported in one RuntimeWarning.  Fully deterministic given the seed.
    """
    config.validate()
    map_spec = MapSpec(config.family, config.r)
    noise = NoiseSpec(config.sigma)
    orders = tuple(OrderRange(config.k_min, config.k_max).orders())
    base = generate_trajectory(map_spec, noise, config.n, config.transient, config.seed)
    lam = lyapunov_exponent(map_spec, base)
    log_priors = [order_log_prior(k, 2, config.order_prior) for k in orders]
    priors = {k: uniform_prior(k, 2, config.alpha) for k in orders}
    want_detail = config.detail_path is not None
    parts = decision_grid(config.grid)
    block = max(1, GRID_BLOCK_ENTRIES >> (orders[-1] + 1))
    args = (orders, log_priors, priors, want_detail)

    rows: list[SweepRow] = []
    detail: list[DetailRow] = []
    for start in range(0, len(parts), block):
        block_parts = parts[start:start + block]
        ds = [part.decision_point for part in block_parts]
        tables = _block_counts(config, map_spec, noise, base, start, block_parts, orders)
        try:
            block_rows, block_detail = _score(ds, tables, *args)
        except Exception:
            block_rows, block_detail = _score_each(ds, tables, *args)
        rows += block_rows
        detail += block_detail
    _warn_top_of_range(rows, orders)
    return SweepResult(config=config, lyapunov_bits=lam, rows=tuple(rows), detail=tuple(detail))


def _block_counts(config, map_spec, noise, base, start, parts, orders):
    """{k: CountTable stacking the order-k tables of a block of decision points}.

    The shared series is counted by grid_transition_counts in one pass.  With
    regenerate_per_d, point start + i gets its own series, counted at k_max
    by _regenerated_counts; the lower orders of the block are derived from
    those tables as for the shared series.
    """
    ds = np.array([part.decision_point for part in parts])
    if config.regenerate_per_d:
        seeds = range(config.seed + 1 + start, config.seed + 1 + start + len(parts))
        stacked = lower_orders(*_regenerated_counts(map_spec, noise, config.n, config.transient,
                                                    seeds, ds, orders[-1]), orders)
    else:
        stacked = grid_transition_counts(base.states, ds, orders)
    return {k: CountTable(k, 2, stacked[k].reshape(len(parts), -1, 2)) for k in orders}


def _regenerated_counts(map_spec, noise, n, transient, seeds, ds, k_max):
    """The order-k_max tables, shape (G, 2**(k_max+1)), and the first k_max
    symbols, shape (G, k_max), of the series of G decision points: series g
    is generate_trajectory(map_spec, noise, n, transient, seeds[g])
    symbolized at ds[g].

    A block of at least LOCKSTEP_MIN_POINTS points steps its series in
    lockstep, a chunk of LOCKSTEP_CHUNK_BYTES of states at a time, and counts
    each chunk as it goes, so its memory does not grow with n.  A narrower
    block simulates each series on its own and counts it as one chunk.
    """
    top = np.zeros((len(ds), 2 << k_max), dtype=np.int64)
    history = np.zeros((0, len(ds)), dtype=bool)
    if len(ds) < LOCKSTEP_MIN_POINTS:
        first = np.empty((len(ds), k_max), dtype=bool)
        for g, seed in enumerate(seeds):
            traj = generate_trajectory(map_spec, noise, n, transient, seed)
            symbols = count_windows(top[g:g + 1], traj.states[:, None], ds[g:g + 1],
                                    history[:, g:g + 1])
            first[g] = symbols[:k_max, 0]
        return top, first
    rngs, x = start_lockstep(seeds)
    total = transient + n
    rows = np.empty((max(1, LOCKSTEP_CHUNK_BYTES // x.nbytes), len(ds)))
    first = None
    for at in range(0, total, len(rows)):
        chunk = rows[:total - at]
        if at:
            step_lockstep(map_spec, noise, rngs, x, chunk)
        else:
            chunk[0] = x
            step_lockstep(map_spec, noise, rngs, x, chunk[1:])
        if at + len(chunk) <= transient:
            continue
        symbols = count_windows(top, chunk[max(0, transient - at):], ds, history)
        if first is None and len(symbols) >= k_max:
            first = symbols[:k_max].T
        history = symbols[max(0, len(symbols) - k_max):]
    return top, first


def _score(ds, tables, orders, log_priors, priors, want_detail):
    """Summary rows, and detail rows if wanted, of a block of decision points.

    `tables` maps each order to the stacked count tables of the points `ds`.
    Entropy is estimated at every order for detail rows, otherwise at the
    orders some point selected, so that a summary row fails only when the
    estimate at its own order does.
    """
    les = order_log_evidences(tables, priors)
    post, best = posterior_over_orders(les, log_priors)
    les, post, best = les.tolist(), post.tolist(), best.tolist()
    # est[j][i]: (expected_info, h_rate_q, kl_correction) of point i at order orders[j]
    est = {}
    for j in range(len(orders)) if want_detail else sorted(set(best)):
        e = expected_info(tables[orders[j]], priors[orders[j]])
        est[j] = list(zip(e.expected_info.tolist(), e.h_rate_q.tolist(),
                          e.kl_correction.tolist()))
    rows, drows = [], []
    for i, d in enumerate(ds):
        sel = best[i]
        rows.append(SweepRow(d, orders[sel], *est[sel][i], tuple(les[i]), tuple(post[i])))
        if want_detail:
            drows.extend(
                DetailRow(d, k, *est[j][i], les[i][j], post[i][j]) for j, k in enumerate(orders)
            )
    return rows, drows


def _score_each(ds, tables, orders, *args):
    """_score one point at a time; a point that fails gets a row carrying its error."""
    rows, drows = [], []
    for i, d in enumerate(ds):
        one = {k: CountTable(k, 2, t.table[i:i + 1]) for k, t in tables.items()}
        try:
            row, more = _score([d], one, orders, *args)
        except Exception as exc:
            nan = float("nan")
            blank = tuple(nan for _ in orders)
            row, more = [SweepRow(d, None, nan, nan, nan, blank, blank, str(exc))], []
        rows += row
        drows += more
    return rows, drows


def _warn_top_of_range(rows, orders) -> None:
    top = [row.d for row in rows if row.k_selected == orders[-1]]
    if len(orders) > 1 and top:
        shown = ", ".join(f"{d:g}" for d in top[:TOP_OF_RANGE_SHOWN])
        more = ", ..." if len(top) > TOP_OF_RANGE_SHOWN else ""
        warnings.warn(
            f"{len(top)} of {len(rows)} decision points selected order {orders[-1]}, the top "
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
    return _header(SweepRow, OrderRange(config.k_min, config.k_max).orders())


def _json_float(value: float):
    """A float as strict JSON: itself if finite, None for NaN, "inf" or "-inf" otherwise."""
    if math.isfinite(value):
        return value
    return None if math.isnan(value) else str(value)


def _read_float(value) -> float:
    return math.nan if value is None else float(value)


def _values(cls, source, get, convert) -> dict:
    """{field: get(source, field)} of `cls`, with `convert` applied to each
    float; a per-order field becomes a tuple (a list in JSON)."""
    values = {}
    for name, per_order, is_float in _FIELDS[cls]:
        value = get(source, name)
        if per_order:
            value = tuple(map(convert, value))
        elif is_float:
            value = convert(value)
        values[name] = value
    return values


def _cell_tuples(rows):
    """The CSV cells of each of `rows`, all of one class, as one flat tuple per
    row: its fields in field order, a per-order tuple spread over one cell per
    order, gathered a field at a time rather than a cell at a time."""
    columns = []
    for name, per_order, _ in _FIELDS[type(rows[0])]:
        column = map(attrgetter(name), rows)
        if per_order:
            columns += zip(*column)
        else:
            columns.append(column)
    return zip(*columns)


def _chunks(rows):
    """`rows` EMIT_CHUNK_ROWS at a time."""
    for start in range(0, len(rows), EMIT_CHUNK_ROWS):
        yield rows[start:start + EMIT_CHUNK_ROWS]


def _csv_text(chunk) -> str:
    """The CSV lines of a chunk of rows, None and NaN as empty cells.

    The chunk is formatted by one template with a %r per cell.  The repr of
    an int or a float is what csv.writer writes for it, and None and NaN
    come out as "None" and "nan", which no number's repr contains, so two
    replacements blank them.  A text cell may need quoting, and its repr has
    a quote mark, so a chunk with one goes through csv.writer instead, with
    each NaN made None, which csv.writer leaves blank."""
    cells = list(_cell_tuples(chunk))
    template = ",".join(["%r"] * len(cells[0])) + "\n"
    text = "".join(map(template.__mod__, cells))
    if "'" not in text and '"' not in text:
        return text.replace("None", "").replace("nan", "")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [None if c != c else c for c in row] for row in cells
    )
    return buf.getvalue()


def _write_csv(fh, header: list[str], rows) -> None:
    """Write `header`, then the _cell_tuples of each row, a chunk at a time."""
    csv.writer(fh, lineterminator="\n").writerow(header)
    for chunk in _chunks(rows):
        fh.write(_csv_text(chunk))


def _json_text(chunk, encode) -> str:
    """The JSON objects of a chunk of rows, one per line.

    A row object is the row's instance dict, which holds its fields in
    _FIELDS order: the frozen dataclass's __init__ sets each field in that
    order and nothing else.  The encoder rejects NaN and infinite floats; a
    chunk that has one is encoded again from _values, with every float
    passed through _json_float.  A chunk is encoded as one list, which puts
    ", " between its objects.  Only there can ', {"' occur, since a row holds
    no nested object and a quote inside a string is escaped, so each one is
    where a line starts."""
    try:
        text = encode(list(map(vars, chunk)))
    except ValueError:
        text = encode([_values(type(row), row, getattr, _json_float) for row in chunk])
    return text[1:-1].replace(', {"', ',\n    {"')


# A detail row as a CSV line and as a JSON object, with a %s per cell.
_DETAIL_LINE = ",".join(["%s"] * len(_FIELDS[DetailRow])) + "\n"
_DETAIL_OBJECT = "{" + ", ".join(f'"{name}": %s' for name, _, _ in _FIELDS[DetailRow]) + "}"
# The repr of an int or a finite float, and the commas and newlines of CSV lines.
_PLAIN_NUMBERS = re.compile(r"[-+.e0-9,\n]*")


def _detail_texts(chunk, encode) -> tuple[str, str]:
    """The detail CSV lines and the JSON detail objects of a chunk of detail
    rows, formatting each cell once.

    The repr of each cell fills both templates.  Where every cell is an int
    or a finite float, its repr is what both writers write for it, and the
    CSV text then holds only digits, signs, "." and "e" between its commas.
    Any other chunk goes through _csv_text and _json_text."""
    cells = tuple(map(repr, chain.from_iterable(_cell_tuples(chunk))))
    lines = (_DETAIL_LINE * len(chunk)) % cells
    if _PLAIN_NUMBERS.fullmatch(lines):
        return lines, ",\n    ".join([_DETAIL_OBJECT] * len(chunk)) % cells
    return _csv_text(chunk), _json_text(chunk, encode)


def _shared_detail(rows, encode, fh):
    """The JSON texts of the detail rows, a chunk at a time, each chunk's
    CSV lines written to `fh` as its text is made, after the CSV header."""
    csv.writer(fh, lineterminator="\n").writerow(_header(DetailRow))
    for chunk in _chunks(rows):
        lines, objects = _detail_texts(chunk, encode)
        fh.write(lines)
        yield objects


def _dump_json(result: SweepResult, fh, detail_fh=None) -> None:
    """The result as strict JSON with one row object per line, written a
    chunk of rows at a time, so the whole document is never held in memory.
    Given `detail_fh`, the detail CSV is written to it in the same pass."""
    encode = json.JSONEncoder(allow_nan=False).encode
    fh.write('{\n  "config": %s,\n  "lyapunov_bits": %s,\n' % (
        encode(_values(SweepConfig, result.config, getattr, _json_float)),
        encode(_json_float(result.lyapunov_bits)),
    ))
    if detail_fh is None:
        detail = (_json_text(chunk, encode) for chunk in _chunks(result.detail))
    else:
        detail = _shared_detail(result.detail, encode, detail_fh)
    rows = (_json_text(chunk, encode) for chunk in _chunks(result.rows))
    for key, texts, empty, end in (("rows", rows, not result.rows, ",\n"),
                                   ("detail", detail, not result.detail, "\n}\n")):
        fh.write(f'  "{key}": [')
        separator = "\n    "
        for text in texts:
            fh.write(separator)
            fh.write(text)
            separator = ",\n    "
        fh.write(("]" if empty else "\n  ]") + end)


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
    at `detail_path` if one is given.  With a JSON summary both files are
    written in one pass, each detail cell formatted once for both."""
    if out_format not in FORMAT_CHOICES:
        raise ConfigError(f"format {out_format!r} must be one of {FORMAT_CHOICES}")
    if out_format == "json":
        paths = [path] if detail_path is None else [path, detail_path]
        _write_files(lambda *files: _dump_json(result, *files), *paths)
        return
    _write_files(lambda fh: _write_csv(fh, csv_header(result.config), result.rows), path)
    if detail_path is not None:
        emit_detail(result, detail_path)


def emit_detail(result: SweepResult, path: str) -> None:
    """Write per-(decision point, order) entropy estimates as CSV at `path`."""
    _write_files(lambda fh: _write_csv(fh, _header(DetailRow), result.detail), path)


def load_sweep_json(path: str) -> SweepResult:
    """Reload a JSON summary written by emit()."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return SweepResult(
        config=SweepConfig(**_values(SweepConfig, obj["config"], getitem, _read_float)),
        lyapunov_bits=_read_float(obj["lyapunov_bits"]),
        rows=tuple(SweepRow(**_values(SweepRow, r, getitem, _read_float)) for r in obj["rows"]),
        detail=tuple(DetailRow(**_values(DetailRow, r, getitem, _read_float))
                     for r in obj["detail"]),
    )
