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
from dataclasses import dataclass

from .counts import MAX_TABLE_ENTRIES, CountTable, grid_transition_counts, transition_counts
from .dynamics import MAP_FAMILIES, MapSpec, NoiseSpec, generate_trajectory, lyapunov_exponent
from .entropy import expected_info
from .inference import log_evidence, uniform_prior
from .order_select import ORDER_PRIOR_KINDS, order_log_prior, rank_orders
from .symbolize import decision_grid, symbolize

FORMAT_CHOICES = ("csv", "json")

# A shared series is counted for blocks of decision points at once; a block
# holds at most this many order-k_max table entries.
GRID_BLOCK_ENTRIES = 1 << 16


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
    regenerate_per_d is set (then point i uses seed + 1 + i).  Rows are
    independent: a failure of the inference at one decision point is recorded
    on its row and does not abort the sweep.  Fully deterministic given the
    seed.
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

    rows: list[SweepRow] = []
    detail: list[DetailRow] = []
    for d, tables in _count_tables(config, map_spec, noise, base, orders):
        try:
            row, drows = _sweep_point(d, tables, orders, log_priors, priors, want_detail)
        except Exception as exc:
            nan = float("nan")
            blank = tuple(nan for _ in orders)
            row = SweepRow(d, None, nan, nan, nan, blank, blank, str(exc))
            drows = []
        rows.append(row)
        detail.extend(drows)
    return SweepResult(config=config, lyapunov_bits=lam, rows=tuple(rows), detail=tuple(detail))


def _count_tables(config, map_spec, noise, base, orders):
    """Yield (decision point, {k: CountTable}) in grid order.

    A fresh series per point is symbolized and counted for its point alone.
    The shared series is counted by grid_transition_counts for a block of
    points at a time, whose rows are handed out before the next block starts.
    """
    parts = decision_grid(config.grid)
    if config.regenerate_per_d:
        for i, part in enumerate(parts):
            traj = generate_trajectory(
                map_spec, noise, config.n, config.transient, config.seed + 1 + i
            )
            seq = symbolize(traj, part)
            yield part.decision_point, {k: transition_counts(seq, k) for k in orders}
        return
    block = max(1, GRID_BLOCK_ENTRIES >> (orders[-1] + 1))
    for start in range(0, len(parts), block):
        ds = [part.decision_point for part in parts[start:start + block]]
        stacked = grid_transition_counts(base.states, ds, orders)
        for i, d in enumerate(ds):
            yield d, {k: CountTable(k, 2, stacked[k][i].reshape(-1, 2)) for k in orders}


def _sweep_point(d, tables, orders, log_priors, priors, want_detail):
    les = [log_evidence(tables[k], priors[k]).value for k in orders]
    ranking = rank_orders(orders, les, log_priors)
    est = expected_info(tables[ranking.selected], priors[ranking.selected])
    row = SweepRow(
        d=d,
        k_selected=ranking.selected,
        h_expected_bits=est.expected_info,
        h_rate_q_bits=est.h_rate_q,
        kl_correction_bits=est.kl_correction,
        log_evidence=ranking.log_evidence,
        p_order=ranking.posterior,
    )
    drows = []
    if want_detail:
        for k, le, p_k in zip(orders, ranking.log_evidence, ranking.posterior):
            e = expected_info(tables[k], priors[k])
            drows.append(
                DetailRow(d, k, e.expected_info, e.h_rate_q, e.kl_correction, le, p_k)
            )
    return row, drows


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
    return {
        "config": dataclasses.asdict(result.config),
        "lyapunov_bits": result.lyapunov_bits,
        "rows": rows,
        "detail": [dataclasses.asdict(dr) for dr in result.detail],
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
