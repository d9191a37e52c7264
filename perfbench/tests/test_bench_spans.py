import ast
import contextlib
import importlib
import io
from pathlib import Path

import pytest

import spans
from chaosinfer import cli

SRC = Path(__file__).resolve().parents[2] / "src" / "chaosinfer"


def test_self_time_subtracts_covered_child_time():
    tree = [
        ("cli.main", 0, 100, -1),
        ("sweep.run_sweep", 10, 90, 0),
        ("counts.transition_counts", 20, 30, 1),
        ("counts.transition_counts", 35, 50, 1),
        ("entropy.expected_info", 60, 80, 1),
        ("entropy.digamma", 65, 75, 4),
        ("sweep.emit", 95, 99, 0),
    ]
    assert spans.self_times(tree) == [100 - 80 - 4, 80 - 10 - 15 - 20, 10, 15, 10, 10, 4]


def test_layer_report_accounts_for_the_wall_time():
    tree = [
        ("cli.main", 5, 100, -1),
        ("sweep.run_sweep", 10, 90, 0),
        ("counts.transition_counts", 20, 40, 1),
        ("counts.count_words", 25, 30, 2),
        ("entropy.expected_info", 60, 80, 1),
        ("entropy.digamma", 65, 75, 4),
        ("sweep.emit", 91, 99, 0),
        ("sweep.csv_header", 92, 93, 6),
    ]
    report = spans.layer_report(tree, {}, 0, 110)
    assert report["glue_ns"] == 15 and report["wall_ns"] == 110
    assert sum(report["self_ns"].values()) + report["glue_ns"] == report["wall_ns"]
    assert report["self_ns"]["counts"] == 20
    assert report["self_ns"]["entropy"] == 20
    assert report["self_ns"]["sweep"] == (80 - 20 - 20) + 8
    assert report["self_ns"]["cli"] == 95 - 80 - 8
    # A nested call inside the same layer is not another call into it.
    assert report["calls"]["counts"] == 1
    assert report["calls"]["entropy"] == 1
    assert report["digamma_self_ns"] == 10
    assert report["emit_ns"] == 8
    metrics = spans.layer_metrics(report)
    assert metrics["dynamics.calls"] == 0 and metrics["dynamics.ns_per_step"] == 0.0
    assert metrics["trace.glue_frac"] == pytest.approx(15 / 110)


def _public_defs(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_discovery_finds_every_public_function_of_the_eight_modules():
    expected = {
        f"{layer}.{name}" for layer in spans.LAYERS for name in _public_defs(SRC / f"{layer}.py")
    }
    found = set(spans.Tracer().targets().values())
    assert found == expected
    assert "counts.transition_counts" in found and "cli.main" in found


def test_install_rebinds_every_binding_and_uninstall_restores():
    import chaosinfer
    from chaosinfer import order_select, sweep

    original = chaosinfer.transition_counts
    tracer = spans.Tracer()
    with tracer:
        assert chaosinfer.transition_counts is not original
        assert sweep.transition_counts is chaosinfer.transition_counts
        assert order_select.transition_counts is chaosinfer.transition_counts
        counts_module = importlib.import_module("chaosinfer.counts")
        assert counts_module.transition_counts.__wrapped__ is original
    assert chaosinfer.transition_counts is original
    assert sweep.transition_counts is original


N, TRANSIENT, GRID, K_MAX = 400, 50, 4, 2


@pytest.fixture()
def traced_sweep(tmp_path):
    argv = ["--n", str(N), "--transient", str(TRANSIENT), "--grid", str(GRID),
            "--k-max", str(K_MAX), "--out", str(tmp_path / "s.csv")]
    tracer = spans.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return tracer


def _gap(tracer, span_list) -> int:
    start, end = span_list[0][1], span_list[0][2]
    report = spans.layer_report(span_list, tracer.counts, start, end)
    return spans.accounting_gap_ns(report, tracer.live_self_ns, tracer.live_root_ns)


def test_accounting_check_rejects_a_corrupted_span_list(traced_sweep):
    recorded = list(traced_sweep.spans)
    assert _gap(traced_sweep, recorded) == 0
    parents = {span[3] for span in recorded}
    leaf = max(
        i for i, (name, start, end, parent) in enumerate(recorded)
        if i not in parents and parent > 0 and end > start
        and spans.layer_of(name) != spans.layer_of(recorded[parent][0])
    )
    name, start, end, parent = recorded[leaf]

    def replaced(span):
        return recorded[:leaf] + [span] + recorded[leaf + 1:]

    corrupted = {
        "lost": replaced((name, start, start, parent)),
        "wrong parent": replaced((name, start, end, 0)),
        "recorded twice": recorded + [recorded[leaf]],
        "left open": replaced((name, start, end + 10**6, parent)),
    }
    for case, span_list in corrupted.items():
        assert _gap(traced_sweep, span_list) > 0, case


def test_traced_sweep_records_layers_and_counters(traced_sweep):
    n, transient, grid, k_max = N, TRANSIENT, GRID, K_MAX
    tracer = traced_sweep
    root = tracer.spans[0]
    report = spans.layer_report(tracer.spans, tracer.counts, root[1], root[2])
    metrics = spans.layer_metrics(report)
    assert spans.accounting_gap_ns(report, tracer.live_self_ns, tracer.live_root_ns) == 0
    assert metrics["dynamics.steps"] == n + transient
    assert metrics["symbolize.calls"] == grid + 1  # decision_grid plus one symbolize per d
    assert metrics["symbolize.states"] == grid * n
    assert metrics["counts.calls"] == grid * k_max
    assert metrics["counts.symbols_scanned"] == grid * k_max * n
    assert metrics["inference.cells"] == grid * (4 + 8)
    assert metrics["entropy.calls"] == grid
    assert metrics["entropy.digamma_evals"] > 0
    assert 0.0 < metrics["inference.visited_frac"] <= 1.0
    assert all(value >= 0 for value in metrics.values())
