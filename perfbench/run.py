#!/usr/bin/env python3
"""Benchmark of the chaosinfer decision-point sweep, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fine_grid --seed 1 --seconds 15 --trace 0

Every sweep is one in-process call of `chaosinfer.cli.main(argv)` with one
compute thread; argv is the workload's flags plus `--seed` and output paths
in a temporary directory under `.perfbench_out/`.  Sweeps repeat until
`--seconds` have passed (at least three), and every output is read back and
checked: identical bytes on every sweep, `grid` rows, normalized order
posteriors, and a seeded sample of rows recomputed through the public per-d
functions (see oracle.py).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: median sweep
time, error-free points per second, set-up time (fresh interpreter to
`import chaosinfer` plus `cli.parse_config`, median of several subprocesses)
and the peak RSS of a fresh process running one sweep.  The times are
adjusted for the host's speed while they ran (see hostspeed.py).  `--trace 1`
alternates traced and untraced sweeps and reports the per-layer metrics of
the traced ones (see spans.py), plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(provenance, quality figures, every sample) goes to `.perfbench_out/`.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set before numpy loads, so this process and every process it starts use one thread.
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# name -> (flags, summary format, write --detail).  All use the default map:
# r=4, sigma=1e-3, k 1..8, size-penalty prior, alpha=1.
WORKLOADS = {
    # Per-row layers dominate: counts, inference, order_select, entropy (the
    # detail file runs expected_info for every (d, k) pair) and emit.
    "fine_grid": (["--n", "10000", "--grid", "2000"], "json", True),
    # Counting, symbolization and one long trajectory dominate; highest peak memory.
    "long_series": (["--n", "1000000", "--grid", "50"], "csv", False),
    # 200 short trajectories, one per d: dynamics dominates and no count can be
    # shared across the grid.
    "ensemble": (["--n", "10000", "--grid", "200", "--regenerate-per-d"], "csv", False),
}
MIN_SWEEPS = 3
SETUP_REPS = 9
# Self times and glue derived from the span list must match those the tracer
# added up while the calls ran, within this share of the traced wall time.
ACCOUNTING_TOL = 1e-3
CHILD_TIMEOUT_S = 150

# Child processes get `python -c CODE src perfbench argv...`.
# The set-up child prints the ns it spent importing hostspeed, which the
# parent takes off its wall time, then the durations of the pieces.
SETUP_CODE = (
    "import sys, time; start = time.perf_counter_ns(); sys.path[:0] = sys.argv[1:3]\n"
    "import hostspeed\n"
    "prep = time.perf_counter_ns() - start\n"
    "with hostspeed.Sampler() as host:\n"
    "    from chaosinfer import cli; cli.parse_config(sys.argv[3:])\n"
    "print(prep, *(duration for start, duration in host.samples))\n"
)
# VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over from the
# forked copy of this process, so it would report this process's size.
RSS_CODE = (
    "import contextlib, io, sys; sys.path.insert(0, sys.argv[1])\n"
    "from chaosinfer import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = cli.main(sys.argv[3:])\n"
    "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]\n"
    "print(rc, hwm.split()[1])\n"
)
# String hashing is randomized per process, and on long_series it moved the
# peak RSS between two levels ~8 MB apart; a fixed seed removes that.
RSS_ENV = {"PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Sweep:
    rc: int
    start_ns: int
    end_ns: int
    rows: int = 0
    failed_rows: int = 0
    digest: str | None = None
    bytes_written: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Workload:
    """One workload's argv and output files in a scratch directory."""

    def __init__(self, name: str, seed: int, outdir: Path) -> None:
        flags, self.out_format, detail = WORKLOADS[name]
        self.outdir = outdir
        self.summary = outdir / f"summary.{self.out_format}"
        self.detail = outdir / "detail.csv" if detail else None
        self.outputs = [self.summary]
        self.argv = [*flags, "--format", self.out_format, "--seed", str(seed),
                     "--out", str(self.summary)]
        if self.detail:
            self.outputs.append(self.detail)
            self.argv += ["--detail", str(self.detail)]

    def public_argv(self) -> list[str]:
        return [arg.replace(str(self.outdir), "<tmp>") for arg in self.argv]


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_program():
    """Import chaosinfer from this checkout's src/, never from an installed copy."""
    if not (SRC / "chaosinfer" / "__init__.py").is_file():
        raise BenchError(f"no chaosinfer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chaosinfer
    from chaosinfer import cli

    if Path(chaosinfer.__file__).resolve().parent != (SRC / "chaosinfer").resolve():
        raise BenchError(f"imported chaosinfer from {chaosinfer.__file__}, not {SRC}")
    return cli


def run_sweep(cli, work: Workload) -> Sweep:
    """One timed call of cli.main; cli.main is looked up at call time so a tracer sees it."""
    for path in work.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        rc = cli.main(list(work.argv))
        end = time.perf_counter_ns()
    if rc != 0:
        sys.stderr.write(f"chaosinfer exited {rc}: {err.getvalue()[-2000:]}\n")
    return Sweep(rc=rc, start_ns=start, end_ns=end)


def tally(oracle, sweep: Sweep, work: Workload, grid: int):
    """Read one sweep's outputs back; returns its rows and lyapunov_bits (JSON only)."""
    if sweep.rc != 0:
        sweep.rows = sweep.failed_rows = grid
        return [], None
    digest = hashlib.sha256()
    for path in work.outputs:
        data = path.read_bytes()
        digest.update(data)
        sweep.bytes_written += len(data)
    sweep.digest = digest.hexdigest()
    rows, lyap = oracle.read_rows(str(work.summary), work.out_format)
    sweep.rows = max(len(rows), grid)
    sweep.failed_rows = sum(1 for row in rows if row.get("error")) + sweep.rows - len(rows)
    return rows, lyap


def child(code: str, argv: list[str], env: dict[str, str] | None = None) -> tuple[int, str]:
    """Run `python -c code src perfbench argv...` to completion; wall ns and stdout."""
    start = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(BENCH_DIR), *argv],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, **(env or {})}, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter_ns() - start
    if proc.returncode != 0:
        raise BenchError(f"child process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stdout


def setup_seconds(argv: list[str]) -> tuple[list[float], list[float]]:
    """Host-speed-adjusted and raw seconds of SETUP_REPS fresh interpreters."""
    child(SETUP_CODE, argv)  # warm the bytecode cache; not timed
    adjusted, raw = [], []
    for _ in range(SETUP_REPS):
        wall, out = child(SETUP_CODE, argv)
        prep, *pieces = [int(ns) for ns in out.split()]
        adjusted.append(hostspeed.adjusted_seconds(wall - prep, pieces, hostspeed.STDLIB_REF_S))
        raw.append((wall - prep) / 1e9)
    return adjusted, raw


def peak_rss_mb(work: Workload) -> float:
    rss_dir = work.outdir / "rss"
    rss_dir.mkdir()
    argv = [arg.replace(str(work.outdir), str(rss_dir)) for arg in work.argv]
    _, out = child(RSS_CODE, argv, RSS_ENV)
    rc, kib = out.split()[-2:]
    if rc != "0":
        raise BenchError(f"peak-RSS sweep exited {rc}")
    return int(kib) * 1024 / 1e6


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chaosinfer").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(work: Workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "seed": seed,
        "argv": work.public_argv(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_run(cli, oracle, work: Workload, grid: int, seconds: float):
    """Untraced sweeps for `seconds`, plus set-up time and peak RSS from fresh processes.

    Times are host-speed adjusted (see hostspeed.py); the raw ones are kept
    in the record.
    """
    setups, raw_setups = setup_seconds(work.argv)
    rss = peak_rss_mb(work)
    sweeps, adjusted, rows, lyap = [], [], [], None
    start = time.perf_counter()
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - start < seconds:
        with hostspeed.Sampler(hostspeed.numpy_piece) as host:
            sweep = run_sweep(cli, work)
        pieces = host.pieces(sweep.start_ns, sweep.end_ns)
        adjusted.append(
            hostspeed.adjusted_seconds(sweep.end_ns - sweep.start_ns, pieces, hostspeed.NUMPY_REF_S)
        )
        sweeps.append(sweep)
        rows, lyap = tally(oracle, sweep, work, grid)
    metrics = {
        "sweep_s": statistics.median(adjusted),
        "points_per_s": statistics.median(
            (s.rows - s.failed_rows) / t for s, t in zip(sweeps, adjusted)
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    samples = {"sweep_s": adjusted, "sweep_wall_s": [s.seconds for s in sweeps],
               "setup_s": setups, "setup_wall_s": raw_setups}
    return sweeps, rows, lyap, metrics, samples, []


def traced_run(cli, oracle, spans, work: Workload, grid: int, seconds: float, workload: str):
    """One warm-up sweep, then traced and untraced sweeps in turn for `seconds`."""
    tracer = spans.Tracer()
    sweeps = [run_sweep(cli, work)]
    rows, lyap = tally(oracle, sweeps[0], work, grid)
    traced, plain, per_sweep, problems = [], [], [], []
    start = time.perf_counter()
    while not traced or not plain or time.perf_counter() - start < seconds:
        if len(traced) <= len(plain):
            tracer.reset()
            with tracer:
                sweep = run_sweep(cli, work)
            traced.append(sweep)
            report = spans.layer_report(tracer.spans, tracer.counts, sweep.start_ns, sweep.end_ns)
            gap = spans.accounting_gap_ns(report, tracer.live_self_ns, tracer.live_root_ns)
            if gap > ACCOUNTING_TOL * report["wall_ns"]:
                problems.append(
                    f"trace accounting: span-list and live self times differ by {gap} ns "
                    f"of {report['wall_ns']} ns wall"
                )
            values = spans.layer_metrics(report)
        else:
            sweep = run_sweep(cli, work)
            plain.append(sweep)
            values = None
        sweeps.append(sweep)
        rows, lyap = tally(oracle, sweep, work, grid)
        if values is not None:
            values["sweep.bytes_written"] = sweep.bytes_written
            per_sweep.append(values)
    spans.dump(tracer.spans, OUT_DIR / f"spans-{workload}.json")
    metrics = {}
    for name in per_sweep[0]:
        values = [v[name] for v in per_sweep]
        ints = all(isinstance(v, int) for v in values)
        metrics[name] = statistics.median_low(values) if ints else statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(s.seconds for s in traced) / statistics.median(s.seconds for s in plain)
        - 1.0
    )
    samples = {"traced_s": [s.seconds for s in traced], "untraced_s": [s.seconds for s in plain]}
    return sweeps, rows, lyap, metrics, samples, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    try:
        spec = load_spec()
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        cli = import_program()
        import oracle  # both import chaosinfer, so only after import_program
        import spans

        OUT_DIR.mkdir(exist_ok=True)
        outdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        try:
            work = Workload(args.workload, args.seed, outdir)
            config = cli.parse_config(list(work.argv))
            if args.trace:
                sweeps, rows, lyap, metrics, samples, problems = traced_run(
                    cli, oracle, spans, work, config.grid, args.seconds, args.workload
                )
            else:
                sweeps, rows, lyap, metrics, samples, problems = timed_run(
                    cli, oracle, work, config.grid, args.seconds
                )
            detail = None
            if work.detail and not work.detail.is_file():
                problems.append("the sweep wrote no detail file")
            elif work.detail:
                detail = oracle.read_detail(str(work.detail))
                if work.out_format == "json" and not oracle.same_detail(
                    detail, oracle.read_detail(str(work.summary))
                ):
                    problems.append("detail.csv and the detail array of the JSON summary differ")
            gate = oracle.check_sweep(config, rows, args.seed, lyap, detail)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    problems += gate.problems
    if any(s.rc != 0 for s in sweeps):
        problems.append(f"{sum(s.rc != 0 for s in sweeps)} of {len(sweeps)} sweeps exited non-zero")
    if len({s.digest for s in sweeps}) != 1:
        problems.append("sweep outputs differ between repeated calls")
    attempted = sum(s.rows for s in sweeps)
    failed = sum(s.failed_rows for s in sweeps)
    quality = {
        "failed_rows_frac": failed / attempted if attempted else 1.0,
        "check_fail_frac": gate.check_fail_frac,
        "rows_checked": gate.checked,
        "peak_d_err": abs(gate.peak_d - 0.5),
        "peak_gap_bits": abs(gate.peak_h - gate.lyapunov_bits),
        "lyapunov_bits": gate.lyapunov_bits,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "sweeps": len(sweeps),
        "metrics": metrics,
        "quality": quality,
        "samples": samples,
        "problems": problems,
        "provenance": provenance(work, args.seed),
    }
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, unit in declared.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    quality_units = {"rows_checked": "count", "peak_d_err": "d", "peak_gap_bits": "bits",
                     "lyapunov_bits": "bits/step"}
    for name, value in quality.items():
        print(f"{name:28s} {value:>16.6g} {quality_units.get(name, 'frac')}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
