"""Command-line driver for the decision-point sweep.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime errors,
including a sweep in which every row failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from .sweep import ConfigError, SweepConfig, emit, emit_detail, run_sweep


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _flag(field: dataclasses.Field) -> str:
    return field.metadata["flag"] or field.name.replace("_", "-")


def _value_parser(field: dataclasses.Field):
    # A field takes values of its default's type; detail_path defaults to None but holds a path.
    if isinstance(field.default, bool):
        return _parse_bool
    return str if field.default is None else type(field.default)


# config-file key ("-" read as "_") -> SweepConfig field; its flag and its name both work
_FILE_KEYS = {
    key: field
    for field in dataclasses.fields(SweepConfig)
    for key in (_flag(field).replace("-", "_"), field.name)
}


# A config-file comment starts with "#" at the start of a line or after
# whitespace; a "#" inside a value, as in out=run#1.csv, is part of it.
_COMMENT = re.compile(r"(?:^|\s)#")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One flag per SweepConfig field; an unset flag parses to None and leaves the file's value."""
    parser = _Parser(
        prog="chaosinfer",
        description=(
            "Sweep binary decision points over a noisy chaotic map, select a Markov "
            "order per point, and estimate entropy rates."
        ),
    )
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value file; command-line flags override it")
    for field in dataclasses.fields(SweepConfig):
        if isinstance(field.default, bool):
            kind = {"action": "store_true"}
        else:
            kind = {"type": _value_parser(field), "choices": field.metadata["choices"]}
        parser.add_argument(f"--{_flag(field)}", dest=field.name, default=None,
                            help=f"{field.metadata['help']} (default {field.default})", **kind)
    return parser


def _read_config_file(path: str) -> dict[str, object]:
    try:
        # utf-8-sig drops a leading byte-order mark, which editors may write.
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        field = _FILE_KEYS.get(key)
        if field is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[field.name] = _value_parser(field)(text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def parse_config(argv: list[str] | None = None) -> SweepConfig:
    """Build a validated SweepConfig from flags and an optional config file.

    Precedence: command-line flags override config-file values, which
    override the built-in defaults.
    """
    args = vars(build_parser().parse_args(argv))
    path = args.pop("config")
    values = _read_config_file(path) if path is not None else {}
    values.update((name, arg) for name, arg in args.items() if arg is not None)
    config = SweepConfig(**values)
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_sweep(config)
        emit(result, config.out_format, config.out_path)
        if config.detail_path is not None:
            emit_detail(result, config.detail_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    good = [row for row in result.rows if row.error is None]
    print(f"wrote {len(result.rows)} rows to {config.out_path}")
    if config.detail_path is not None:
        print(f"wrote {len(result.detail)} detail rows to {config.detail_path}")
    print(f"lyapunov estimate: {result.lyapunov_bits:.4f} bits/step")
    if good:
        best = max(good, key=lambda row: row.h_expected_bits)
        print(
            f"max expected information rate: {best.h_expected_bits:.4f} bits/symbol "
            f"at d={best.d:.6f} (k={best.k_selected})"
        )
    failed = len(result.rows) - len(good)
    if failed:
        print(f"{failed} rows failed; see the error column", file=sys.stderr)
    return 0 if good else 2


if __name__ == "__main__":
    sys.exit(main())
