"""Correctness gate: recompute sampled sweep rows through the public per-d functions.

The sweep output is read back from the files `chaosinfer` wrote, with plain
`csv`/`json` parsing.  A seeded sample of decision points, always including
d=0, the grid point nearest 0.5 and d=1, is recomputed with `symbolize`,
`transition_counts`, `log_evidence`, `rank_orders` and `expected_info`.
The selected order must match exactly; floats must match to a relative
tolerance, because summing in another order may move the last bits.  When
the sweep wrote detail rows (one per decision point and order), every one is
checked against its summary row and the sampled ones are recomputed too.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from chaosinfer.counts import transition_counts
from chaosinfer.dynamics import MapSpec, NoiseSpec, generate_trajectory, lyapunov_exponent
from chaosinfer.entropy import expected_info
from chaosinfer.inference import log_evidence, uniform_prior
from chaosinfer.order_select import order_log_prior, rank_orders
from chaosinfer.symbolize import decision_grid, symbolize

# Entropies, log evidences and d: 1e-9 relative, far above the ~3e-12 drift a
# reordered sum can cause and far below the O(1)-nat change of one wrong count.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Posterior mass moves by about p(1-p) times the drift of a score difference;
# at n=1e6 scores reach ~7e5 nats, so a 3e-12 relative drift gives ~1e-6.
P_ORDER_ABS_TOL = 1e-6
P_SUM_TOL = 1e-9
SAMPLE_ROWS = 8

_SCALARS = ("h_expected_bits", "h_rate_q_bits", "kl_correction_bits")
_DETAIL_FLOATS = _SCALARS + ("log_evidence", "p_order")


@dataclass
class GateResult:
    rows: int
    failed_rows: int
    checked: int = 0
    mismatched: int = 0
    problems: list[str] = field(default_factory=list)
    lyapunov_bits: float = math.nan
    peak_d: float = math.nan
    peak_h: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def check_fail_frac(self) -> float:
        return self.mismatched / self.checked if self.checked else 0.0


def _num(text: str):
    return float(text) if text != "" else math.nan


def read_rows(path: str, out_format: str) -> tuple[list[dict], float | None]:
    """Rows of a summary file as dicts, plus lyapunov_bits when the format carries it."""
    if out_format == "json":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        rows = []
        for row in obj["rows"]:
            row = dict(row)
            for key in _SCALARS:
                row[key] = math.nan if row[key] is None else float(row[key])
            row["log_evidence"] = [math.nan if v is None else float(v) for v in row["log_evidence"]]
            row["p_order"] = [math.nan if v is None else float(v) for v in row["p_order"]]
            rows.append(row)
        return rows, float(obj["lyapunov_bits"])
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        le_cols = [i for i, h in enumerate(header) if h.startswith("log_evidence_k")]
        p_cols = [i for i, h in enumerate(header) if h.startswith("p_order_k")]
        rows = []
        for cells in reader:
            rec = dict(zip(header, cells))
            rows.append({
                "d": float(rec["d"]),
                "k_selected": int(rec["k_selected"]) if rec["k_selected"] else None,
                **{key: _num(rec[key]) for key in _SCALARS},
                "log_evidence": [_num(cells[i]) for i in le_cols],
                "p_order": [_num(cells[i]) for i in p_cols],
                "error": rec["error"] or None,
            })
    return rows, None


def read_detail(path: str) -> list[dict]:
    """Detail rows (d, k, entropies, log evidence, p_order) from detail.csv or a JSON summary."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)["detail"]
        return [
            {"d": float(r["d"]), "k": int(r["k"]),
             **{key: math.nan if r[key] is None else float(r[key]) for key in _DETAIL_FLOATS}}
            for r in raw
        ]
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            {"d": float(r["d"]), "k": int(r["k"]), **{key: _num(r[key]) for key in _DETAIL_FLOATS}}
            for r in csv.DictReader(fh)
        ]


def same_detail(a: list[dict], b: list[dict]) -> bool:
    """Whether two readings of the detail rows hold the same values, NaN equal to NaN."""

    def same(x, y):
        return x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))

    return len(a) == len(b) and all(
        ra.keys() == rb.keys() and all(same(ra[key], rb[key]) for key in ra)
        for ra, rb in zip(a, b)
    )


def sample_indices(grid: int, seed: int, size: int = SAMPLE_ROWS) -> list[int]:
    """d=0, the point nearest 0.5 and d=1, plus `size` seeded random grid indices."""
    ds = np.linspace(0.0, 1.0, grid)
    fixed = {0, int(np.argmin(np.abs(ds - 0.5))), grid - 1}
    rng = np.random.default_rng(seed)
    drawn = rng.choice(grid, size=min(size, grid), replace=False)
    return sorted(fixed | {int(i) for i in drawn})


def expected_row(config, traj, part) -> dict:
    """One sweep row recomputed through the public per-d functions."""
    orders = list(range(config.k_min, config.k_max + 1))
    kind = config.order_prior.replace("-", "_")
    seq = symbolize(traj, part)
    tables = {k: transition_counts(seq, k) for k in orders}
    priors = {k: uniform_prior(k, 2, config.alpha) for k in orders}
    les = [log_evidence(tables[k], priors[k]).value for k in orders]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ranking = rank_orders(orders, les, [order_log_prior(k, 2, kind) for k in orders])
    ests = {k: expected_info(tables[k], priors[k]) for k in orders}
    est = ests[ranking.selected]
    return {
        "d": part.decision_point,
        "k_selected": ranking.selected,
        "h_expected_bits": est.expected_info,
        "h_rate_q_bits": est.h_rate_q,
        "kl_correction_bits": est.kl_correction,
        "log_evidence": list(ranking.log_evidence),
        "p_order": list(ranking.posterior),
        "detail": [
            {"d": part.decision_point, "k": k, "h_expected_bits": ests[k].expected_info,
             "h_rate_q_bits": ests[k].h_rate_q, "kl_correction_bits": ests[k].kl_correction,
             "log_evidence": le, "p_order": p}
            for k, le, p in zip(orders, ranking.log_evidence, ranking.posterior)
        ],
    }


def _close(a: float, b: float, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def compare_row(got: dict, want: dict) -> list[str]:
    """Differences between a written row and its recomputation, empty when they agree."""
    diffs = []
    if got.get("error"):
        return [f"row failed: {got['error']}"]
    if got["k_selected"] != want["k_selected"]:
        diffs.append(f"k_selected {got['k_selected']} != {want['k_selected']}")
    for key in ("d",) + _SCALARS:
        if not _close(got[key], want[key]):
            diffs.append(f"{key} {got[key]!r} != {want[key]!r}")
    for key, tol in (("log_evidence", ABS_TOL), ("p_order", P_ORDER_ABS_TOL)):
        if len(got[key]) != len(want[key]) or not all(
            _close(a, b, tol) for a, b in zip(got[key], want[key])
        ):
            diffs.append(f"{key} {got[key]!r} != {want[key]!r}")
    return diffs


def compare_detail(got: list[dict], want: list[dict]) -> list[str]:
    """Differences between a row's detail rows and their recomputation, one per order."""
    if [r["k"] for r in got] != [r["k"] for r in want]:
        return [f"detail orders {[r['k'] for r in got]} != {[r['k'] for r in want]}"]
    diffs = []
    for g, w in zip(got, want):
        for key in ("d",) + _DETAIL_FLOATS:
            tol = P_ORDER_ABS_TOL if key == "p_order" else ABS_TOL
            if not _close(g[key], w[key], tol):
                diffs.append(f"detail k={g['k']} {key} {g[key]!r} != {w[key]!r}")
    return diffs


def _detail_blocks(config, rows: list[dict], detail: list[dict], problems: list[str]) -> dict:
    """Detail rows grouped by summary row index, after checking each against its summary row.

    Rows with an error write no detail; every other row writes one detail row
    per order, whose log evidence and p_order are the summary row's own.
    """
    orders = list(range(config.k_min, config.k_max + 1))
    good = [i for i, row in enumerate(rows) if not row.get("error")]
    if len(detail) != len(good) * len(orders):
        problems.append(f"{len(detail)} detail rows, expected {len(good)} x {len(orders)}")
        return {}
    blocks = {}
    for j, i in enumerate(good):
        block = detail[j * len(orders):(j + 1) * len(orders)]
        row = rows[i]
        own = {"k": orders, "d": [row["d"]] * len(orders),
               "log_evidence": row["log_evidence"], "p_order": row["p_order"]}
        if any([r[key] for r in block] != list(values) for key, values in own.items()):
            problems.append(f"row {i}: detail rows disagree with the summary row")
        elif block[orders.index(row["k_selected"])]["h_expected_bits"] != row["h_expected_bits"]:
            problems.append(f"row {i}: detail h_expected_bits at k_selected differs")
        blocks[i] = block
    return blocks


def check_sweep(
    config, rows: list[dict], seed: int, lyapunov_bits: float | None = None,
    detail: list[dict] | None = None,
) -> GateResult:
    """Structural checks on every row, then recomputation of a seeded sample.

    `detail`, when given, holds the detail rows in the order they were written.
    """
    failed = sum(1 for row in rows if row.get("error"))
    result = GateResult(rows=len(rows), failed_rows=failed)
    if len(rows) != config.grid:
        result.problems.append(f"{len(rows)} rows, expected grid={config.grid}")
    for i, row in enumerate(rows):
        if not row.get("error") and abs(math.fsum(row["p_order"]) - 1.0) > P_SUM_TOL:
            result.problems.append(f"row {i}: p_order sums to {math.fsum(row['p_order'])!r}")
    blocks = None if detail is None else _detail_blocks(config, rows, detail, result.problems)

    map_spec = MapSpec(config.family, config.r)
    noise = NoiseSpec(config.sigma)
    base = generate_trajectory(map_spec, noise, config.n, config.transient, config.seed)
    result.lyapunov_bits = lyapunov_exponent(map_spec, base)
    if lyapunov_bits is not None and not _close(lyapunov_bits, result.lyapunov_bits):
        result.problems.append(f"lyapunov_bits {lyapunov_bits!r} != {result.lyapunov_bits!r}")

    grid = decision_grid(config.grid)
    for i in sample_indices(config.grid, seed):
        if i >= len(rows):
            continue
        traj = base
        if config.regenerate_per_d:
            traj = generate_trajectory(
                map_spec, noise, config.n, config.transient, config.seed + 1 + i
            )
        want = expected_row(config, traj, grid[i])
        diffs = compare_row(rows[i], want)
        if blocks is not None and not rows[i].get("error"):
            diffs += compare_detail(blocks.get(i, []), want["detail"])
        result.checked += 1
        if diffs:
            result.mismatched += 1
            result.problems.append(f"row {i} (d={grid[i].decision_point!r}): " + "; ".join(diffs))

    good = [row for row in rows if not row.get("error")]
    if good:
        best = max(good, key=lambda row: row["h_expected_bits"])
        result.peak_d, result.peak_h = best["d"], best["h_expected_bits"]
    return result
