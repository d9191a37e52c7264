"""End-to-end instrument sweep.

Simulates one noisy trajectory, scans a grid of binary decision points, and
for every point selects a Markov order and estimates entropy rates.  Results
serialize to CSV or JSON; JSON round-trips losslessly back to SweepResult.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .counts import MAX_TABLE_ENTRIES, CountTable, grid_transition_counts, transition_counts
from .dynamics import MAP_FAMILIES, MapSpec, NoiseSpec, generate_trajectory, lyapunov_exponent
from .entropy import expected_info
from .inference import uniform_prior
from .order_select import (
    ORDER_PRIOR_KINDS,
    order_log_evidences,
    order_log_prior,
    posterior_over_orders,
)
from .symbolize import decision_grid, symbolize

FORMAT_CHOICES = ("csv", "json")

# Decision points are counted and scored a block at a time; a block holds at
# most this many order-k_max table entries, which bounds its temporaries.
GRID_BLOCK_ENTRIES = 1 << 16
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
        if not 0 <= self.k_min <= self.k_max:
            raise ConfigError(f"need 0 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if 2 ** (self.k_max + 1) > MAX_TABLE_ENTRIES:
            raise ConfigError(
                f"k_max={self.k_max} needs {2 ** (self.k_max + 1)} table entries per decision "
                f"point, over the limit of {MAX_TABLE_ENTRIES}"
            )
        if self.n <= self.k_max + 1:
            raise ConfigError(f"n={self.n} must exceed k_max + 1 = {self.k_max + 1}")
        if not 0.0 < self.alpha < math.inf:
            raise ConfigError(f"alpha={self.alpha} must be positive and finite")


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
    regenerate_per_d is set (then point i uses seed + 1 + i).  Decision points
    are counted and scored a block at a time.  Rows are independent: a
    failure of the inference at one decision point is recorded on its row and
    does not abort the sweep.  Rows that select the top order of the range
    are reported in one RuntimeWarning.  Fully deterministic given the seed.
    """
    config.validate()
    map_spec = MapSpec(config.family, config.r)
    noise = NoiseSpec(config.sigma)
    orders = tuple(range(config.k_min, config.k_max + 1))
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
    regenerate_per_d, point start + i gets its own series, symbolized and
    counted for that point alone.
    """
    if not config.regenerate_per_d:
        stacked = grid_transition_counts(base.states, [p.decision_point for p in parts], orders)
        return {k: CountTable(k, 2, stacked[k].reshape(len(parts), -1, 2)) for k in orders}
    tables = {k: np.empty((len(parts), 2**k, 2), dtype=np.int64) for k in orders}
    for i, part in enumerate(parts):
        traj = generate_trajectory(
            map_spec, noise, config.n, config.transient, config.seed + 1 + start + i
        )
        seq = symbolize(traj, part)
        for k in orders:
            tables[k][i] = transition_counts(seq, k).table
    return {k: CountTable(k, 2, table) for k, table in tables.items()}


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


def csv_header(config: SweepConfig) -> list[str]:
    ks = range(config.k_min, config.k_max + 1)
    return (
        ["d", "k_selected", "h_expected_bits", "h_rate_q_bits", "kl_correction_bits"]
        + [f"log_evidence_k{k}" for k in ks]
        + [f"p_order_k{k}" for k in ks]
        + ["error"]
    )


def _fmt(value) -> str:
    # repr of a float is the shortest string that parses back exactly.
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def emit(result: SweepResult, out_format: str, path: str) -> None:
    """Write the sweep summary as CSV or JSON at `path`."""
    if out_format not in FORMAT_CHOICES:
        raise ConfigError(f"format {out_format!r} must be one of {FORMAT_CHOICES}")
    try:
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if out_format == "csv":
                _write_csv(result, fh)
            else:
                json.dump(_as_json(result), fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def emit_detail(result: SweepResult, path: str) -> None:
    """Write per-(decision point, order) entropy estimates as CSV at `path`."""
    try:
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["d", "k", "h_expected_bits", "h_rate_q_bits", "kl_correction_bits",
                 "log_evidence", "p_order"]
            )
            for dr in result.detail:
                writer.writerow(
                    [_fmt(dr.d), _fmt(dr.k), _fmt(dr.h_expected_bits), _fmt(dr.h_rate_q_bits),
                     _fmt(dr.kl_correction_bits), _fmt(dr.log_evidence), _fmt(dr.p_order)]
                )
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def _write_csv(result: SweepResult, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(csv_header(result.config))
    for row in result.rows:
        writer.writerow(
            [_fmt(row.d), _fmt(row.k_selected), _fmt(row.h_expected_bits),
             _fmt(row.h_rate_q_bits), _fmt(row.kl_correction_bits)]
            + [_fmt(v) for v in row.log_evidence]
            + [_fmt(v) for v in row.p_order]
            + [row.error or ""]
        )


def _none_if_nan(value: float):
    return None if math.isnan(value) else value


def _nan_if_none(value) -> float:
    return float("nan") if value is None else float(value)


def _as_json(result: SweepResult) -> dict:
    rows = [
        {
            "d": row.d,
            "k_selected": row.k_selected,
            "h_expected_bits": _none_if_nan(row.h_expected_bits),
            "h_rate_q_bits": _none_if_nan(row.h_rate_q_bits),
            "kl_correction_bits": _none_if_nan(row.kl_correction_bits),
            "log_evidence": [_none_if_nan(v) for v in row.log_evidence],
            "p_order": [_none_if_nan(v) for v in row.p_order],
            "error": row.error,
        }
        for row in result.rows
    ]
    names = [field.name for field in dataclasses.fields(DetailRow)]
    return {
        "config": dataclasses.asdict(result.config),
        "lyapunov_bits": result.lyapunov_bits,
        "rows": rows,
        # A shallow dict per row: dataclasses.asdict would deep-copy every field.
        "detail": [{name: getattr(dr, name) for name in names} for dr in result.detail],
    }


def load_sweep_json(path: str) -> SweepResult:
    """Reload a JSON summary written by emit()."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    config = SweepConfig(**obj["config"])
    rows = tuple(
        SweepRow(
            d=float(row["d"]),
            k_selected=row["k_selected"],
            h_expected_bits=_nan_if_none(row["h_expected_bits"]),
            h_rate_q_bits=_nan_if_none(row["h_rate_q_bits"]),
            kl_correction_bits=_nan_if_none(row["kl_correction_bits"]),
            log_evidence=tuple(_nan_if_none(v) for v in row["log_evidence"]),
            p_order=tuple(_nan_if_none(v) for v in row["p_order"]),
            error=row["error"],
        )
        for row in obj["rows"]
    )
    detail = tuple(DetailRow(**dr) for dr in obj["detail"])
    return SweepResult(
        config=config,
        lyapunov_bits=float(obj["lyapunov_bits"]),
        rows=rows,
        detail=detail,
    )
