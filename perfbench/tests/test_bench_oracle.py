import contextlib
import io

import pytest

import oracle
from chaosinfer import cli

SEED = 3


@pytest.fixture(scope="module", params=["csv", "json"])
def written(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / f"s.{request.param}"
    argv = ["--n", "600", "--transient", "50", "--grid", "9", "--k-max", "3",
            "--seed", str(SEED), "--format", request.param, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    rows, lyap = oracle.read_rows(str(out), request.param)
    return cli.parse_config(argv), rows, lyap


@pytest.fixture(scope="module")
def with_detail(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("detail")
    argv = ["--n", "600", "--transient", "50", "--grid", "9", "--k-max", "3",
            "--seed", str(SEED), "--format", "json", "--out", str(outdir / "s.json"),
            "--detail", str(outdir / "detail.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    rows, lyap = oracle.read_rows(str(outdir / "s.json"), "json")
    detail = oracle.read_detail(str(outdir / "detail.csv"))
    assert oracle.same_detail(detail, oracle.read_detail(str(outdir / "s.json")))
    return cli.parse_config(argv), rows, lyap, detail


def test_gate_accepts_the_program_output(written):
    config, rows, lyap = written
    gate = oracle.check_sweep(config, rows, SEED, lyap)
    assert gate.ok, gate.problems
    assert gate.rows == config.grid and gate.failed_rows == 0
    assert gate.checked == len(oracle.sample_indices(config.grid, SEED))
    assert gate.check_fail_frac == 0.0


def test_sample_always_holds_both_ends_and_the_middle():
    picked = oracle.sample_indices(201, seed=11)
    assert {0, 100, 200} <= set(picked)
    assert picked == oracle.sample_indices(201, seed=11)
    assert len(picked) <= oracle.SAMPLE_ROWS + 3


@pytest.mark.parametrize(
    "perturb",
    [
        lambda row: row.update(h_expected_bits=row["h_expected_bits"] * (1 + 1e-7)),
        lambda row: row.update(k_selected=row["k_selected"] % 3 + 1),
        lambda row: row["log_evidence"].__setitem__(0, row["log_evidence"][0] + 1e-3),
        lambda row: row.update(error="boom"),
    ],
    ids=["h_expected", "k_selected", "log_evidence", "error"],
)
def test_gate_rejects_a_perturbed_row(written, perturb):
    config, rows, lyap = written
    rows = [dict(row, log_evidence=list(row["log_evidence"])) for row in rows]
    perturb(rows[4])
    gate = oracle.check_sweep(config, rows, SEED, lyap)
    assert not gate.ok
    assert gate.mismatched == 1
    assert gate.check_fail_frac == pytest.approx(1 / gate.checked)
    assert gate.problems[0].startswith("row 4 ")


def test_gate_rejects_missing_rows_and_unnormalized_posteriors(written):
    config, rows, lyap = written
    gate = oracle.check_sweep(config, rows[:-1], SEED, lyap)
    assert any("expected grid=9" in p for p in gate.problems)
    bad = [dict(row, p_order=[p * 1.01 for p in row["p_order"]]) for row in rows]
    gate = oracle.check_sweep(config, bad, SEED, lyap)
    assert any("p_order sums to" in p for p in gate.problems)


def test_gate_accepts_the_program_detail(with_detail):
    config, rows, lyap, detail = with_detail
    assert len(detail) == config.grid * 3
    gate = oracle.check_sweep(config, rows, SEED, lyap, detail)
    assert gate.ok, gate.problems


def _perturb_unselected(field, scale):
    def perturb(config, rows, detail):
        # Detail rows are written three per decision point; row 4 is in the sample.
        block = detail[4 * 3:5 * 3]
        other = next(r for r in block if r["k"] != rows[4]["k_selected"])
        other[field] *= scale
    return perturb


@pytest.mark.parametrize(
    "perturb",
    [
        _perturb_unselected("h_expected_bits", 1 + 1e-7),
        _perturb_unselected("kl_correction_bits", 1 + 1e-7),
        _perturb_unselected("log_evidence", 1 + 1e-7),
    ],
    ids=["h_expected_unselected_k", "kl_correction_unselected_k", "log_evidence"],
)
def test_gate_rejects_a_perturbed_detail_row(with_detail, perturb):
    config, rows, lyap, detail = with_detail
    detail = [dict(r) for r in detail]
    perturb(config, rows, detail)
    gate = oracle.check_sweep(config, rows, SEED, lyap, detail)
    assert not gate.ok
    assert gate.mismatched == 1
    assert any(p.startswith("row 4 ") for p in gate.problems)


def test_gate_rejects_missing_detail_rows(with_detail):
    config, rows, lyap, detail = with_detail
    gate = oracle.check_sweep(config, rows, SEED, lyap, detail[:-3])
    assert any("detail rows, expected 9 x 3" in p for p in gate.problems)
    assert not oracle.same_detail(detail, detail[:-3])
