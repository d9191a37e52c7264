#!/usr/bin/env python3
"""Run the default decision-point sweep and write summary plus detail tables.

Products (under --out-dir, default results/):
  sweep.csv         one row per decision point: selected order, entropy
                    estimates, per-order evidence and posterior
  sweep.json        the same rows plus the config echo and the Lyapunov
                    estimate; reloadable with chaosinfer.load_sweep_json
  sweep_detail.csv  entropy estimates for every (decision point, order) pair
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from chaosinfer.sweep import SweepConfig, emit, emit_detail, run_sweep


def main() -> None:
    defaults = SweepConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--n", type=int, default=defaults.n)
    parser.add_argument("--grid", type=int, default=defaults.grid)
    parser.add_argument("--sigma", type=float, default=defaults.sigma)
    args = parser.parse_args()

    out = Path(args.out_dir)
    config = SweepConfig(
        seed=args.seed,
        n=args.n,
        grid=args.grid,
        sigma=args.sigma,
        out_path=str(out / "sweep.csv"),
        detail_path=str(out / "sweep_detail.csv"),
    )
    result = run_sweep(config)
    emit(result, "csv", config.out_path)
    # The JSON echoes the config, so it names its own format and path.
    json_config = dataclasses.replace(config, out_format="json", out_path=str(out / "sweep.json"))
    emit(dataclasses.replace(result, config=json_config), "json", json_config.out_path)
    emit_detail(result, config.detail_path)

    hs = np.array([row.h_expected_bits for row in result.rows])
    ds = np.array([row.d for row in result.rows])
    ks = np.array([row.k_selected for row in result.rows])
    i = int(np.argmax(hs))
    print(f"wrote {len(result.rows)} rows to {config.out_path}")
    print(f"lyapunov estimate: {result.lyapunov_bits:.4f} bits/step")
    print(f"peak information rate: {hs[i]:.4f} bits/symbol at d={ds[i]:.6f} (k={ks[i]})")
    print(f"selected orders range over {sorted(set(int(k) for k in ks))}")


if __name__ == "__main__":
    main()
