from __future__ import annotations

import json

import numpy as np
import pytest
import scipy

import genuslab.cli
from genuslab import component_fraction, cycle_count_limit, genus_per_edge
from genuslab.cli import OUT_DIR_ENV, main
from genuslab.graphs import format_edge_list, load_edge_list, path_graph


def _run_json(capsys, argv: list[str]) -> tuple[int, dict]:
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_genus_exact_reports_genus_and_faces(capsys) -> None:
    rc, doc = _run_json(capsys, ["genus", "exact", "--fixture", "k5"])
    assert rc == 0
    row = doc["rows"][0]
    assert row["genus"] == 1
    assert row["f"] == 5
    assert row["visited"] > 0
    assert doc["config"]["fixture"] == "k5"
    meta = doc["metadata"]
    assert meta["tool"] == "genuslab"
    assert meta["search_backend"] == "python"
    assert meta["numpy"] == np.__version__
    assert meta["scipy"] == scipy.__version__


def test_genus_exact_face_walks_cover_each_edge_twice(capsys) -> None:
    rc, doc = _run_json(capsys, ["genus", "exact", "--fixture", "c5_chord",
                                 "--faces"])
    assert rc == 0
    row = doc["rows"][0]
    assert row["genus"] == 0
    sides = [side for face in row["faces"] for side in face]
    assert len(sides) == 2 * 6
    assert len(row["faces"]) == row["f"]


def test_genus_exact_budget_exhaustion_exits_one(capsys) -> None:
    rc, doc = _run_json(capsys, ["genus", "exact", "--fixture", "k6",
                                 "--budget", "50"])
    assert rc == 1
    row = doc["rows"][0]
    assert row["error"]
    assert row["bounds"]["lower"] <= 1 <= row["bounds"]["upper"]
    assert doc["metadata"]["search_backend"] == "python"


def test_genus_bounds_shape(capsys) -> None:
    rc, doc = _run_json(capsys, ["genus", "bounds", "--fixture", "k6",
                                 "--ell", "3"])
    assert rc == 0
    bounds = doc["summary"]["bounds"]
    assert bounds["lower"] <= 1 <= bounds["upper"]
    assert bounds["density_lower"] <= bounds["upper"]
    assert doc["summary"]["ell"] == 3


def test_genus_bounds_cycle_budget_exits_one(capsys) -> None:
    rc, doc = _run_json(capsys, ["genus", "bounds", "--fixture", "k6",
                                 "--cap", "1"])
    assert rc == 1
    assert doc["summary"] == {"error": "cycle budget exhausted", "cap": 1,
                              "max_length": 4}
    assert doc["config"]["cap"] == 1


@pytest.mark.parametrize("argv", [
    ["genus", "exact", "--fixture", "k6", "--budget", "50"],
    ["genus", "bounds", "--fixture", "k6", "--cap", "1"],
])
def test_budget_failure_is_json_under_csv(capsys, argv) -> None:
    rc, doc = _run_json(capsys, argv + ["--format", "csv"])
    assert rc == 1
    assert doc["config"]["format"] == "csv"
    assert doc["rows"] == [doc["summary"]]
    assert doc["summary"]["error"].endswith("budget exhausted")


@pytest.mark.parametrize("argv, header", [
    (["asym", "--u", "2.0"], "function,argument,value,stderr"),
    (["genus", "bounds", "--fixture", "k6"], "n,m,ell,lower,upper,density_lower"),
    (["predict", "--n", "1000000", "--m", "531623"],
     "n,m,regime,predicted_lo,predicted_hi"),
])
def test_csv_header(capsys, argv, header) -> None:
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == header


def test_generate_then_bounds_round_trip(tmp_path, capsys) -> None:
    target = tmp_path / "g.edgelist"
    rc = main(["generate", "--model", "gnm", "--n", "30", "--m", "40",
               "--seed", "2", "--out", str(target)])
    assert rc == 0
    header = target.read_text().splitlines()[0].split()
    assert header == ["30", "40"]
    rc, doc = _run_json(capsys, ["genus", "bounds", "--input", str(target),
                                 "--ell", "3"])
    assert rc == 0
    assert doc["summary"]["n"] == 30
    assert doc["summary"]["m"] == 40


def test_asym_flag_form_matches_library(capsys) -> None:
    rc, doc = _run_json(capsys, ["asym", "--u", "2.0", "--mu", "3.0",
                                 "--cycle-limit", "1.0"])
    assert rc == 0
    values = {r["function"]: r["value"] for r in doc["rows"]}
    assert values["component_fraction"] == pytest.approx(component_fraction(2.0))
    assert values["genus_per_edge"] == pytest.approx(genus_per_edge(3.0))
    assert values["cycle_count_limit"] == pytest.approx(cycle_count_limit(1.0))


def test_asym_positional_form(capsys) -> None:
    rc, doc = _run_json(capsys, ["asym", "u", "--arg", "1.0", "2.0"])
    assert rc == 0
    assert [r["argument"] for r in doc["rows"]] == [1.0, 2.0]
    assert doc["rows"][0]["value"] == pytest.approx(0.5, abs=1e-9)


def test_asym_with_nothing_to_do_is_a_usage_error(capsys) -> None:
    assert main(["asym"]) == 2
    assert main(["asym", "mu"]) == 2


def test_predict_row_fields(capsys) -> None:
    rc, doc = _run_json(capsys, ["predict", "--n", "1000000",
                                 "--m", "531623", "560000"])
    assert rc == 0
    rows = doc["rows"]
    assert [r["m"] for r in rows] == [531623, 560000]
    assert rows[0]["regime"] == "slightly_supercritical"
    assert rows[0]["predicted_lo"] == pytest.approx(84.329, rel=1e-3)


def test_contiguity_accepts_the_short_flag(capsys) -> None:
    rc, doc = _run_json(capsys, ["contiguity", "--n", "10000", "--m", "30000",
                                 "--g", "10550", "--eps", "0.05"])
    assert rc == 0
    assert doc["summary"]["verdict"] == "contiguous"


def test_census_report_and_determinism(tmp_path) -> None:
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["census", "supercritical", "--n", "3000", "--s", "500",
            "--trials", "2", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("metadata")
    b.pop("metadata")
    for doc in (a, b):
        doc["config"].pop("out")
    assert a == b
    row = json.loads(out1.read_text())["rows"][0]
    assert row["core_excess"] == row["core_edges"] - row["core_vertices"]
    assert row["genus_lower"] <= row["genus_upper"]


def test_census_csv_is_one_summary_row(tmp_path) -> None:
    out = tmp_path / "rep.csv"
    rc = main(["census", "supercritical", "--n", "3000", "--s", "500",
               "--trials", "2", "--seed", "5", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,mean_excess,predicted"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "500"


def test_parallel_trials_match_serial(tmp_path) -> None:
    base = ["mc", "kappa", "--n", "2000", "--lam", "0.5", "1.0",
            "--trials", "3", "--seed", "9", "--format", "csv"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(base + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_text() == parallel.read_text()


@pytest.mark.parametrize("argv", [
    ["fragile", "--n", "20000", "--k", "1000", "--trials", "2"],
    ["supercritical", "--n", "20000", "--trials", "2"],
])
def test_suite_rows_do_not_depend_on_jobs(tmp_path, argv) -> None:
    base = ["suite", *argv, "--seed", "9", "--format", "csv"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    rc = main(base + ["--out", str(serial), "--jobs", "1"])
    assert main(base + ["--out", str(parallel), "--jobs", "2"]) == rc
    assert serial.read_text() == parallel.read_text()


def test_mc_kappa_with_zero_density(capsys) -> None:
    rc, doc = _run_json(capsys, ["mc", "kappa", "--n", "500", "--lam", "0.0",
                                 "--trials", "1", "--seed", "1"])
    assert rc == 0
    row = doc["rows"][0]
    assert row["kappa"] == 500
    assert row["predicted_kappa"] == pytest.approx(500.0)
    assert row["abs_deviation"] == pytest.approx(0.0)


def test_curve_header_is_stable(tmp_path) -> None:
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--n", "300", "--m", "150", "300", "600",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,lower_ratio,upper_ratio,predicted_ratio"
    assert len(lines) == 4


def test_curve_default_grid_fits_small_graphs(capsys) -> None:
    # the built-in grid reaches 30 n edges, past the 66 pairs of 12 vertices
    rc, doc = _run_json(capsys, ["curve", "--n", "12", "--format", "json"])
    assert rc == 0
    ms = [row["m"] for row in doc["rows"]]
    assert max(ms) == 66
    assert all(m <= 66 for m in ms)


def test_fragile_cli_rows(capsys) -> None:
    rc, doc = _run_json(capsys, ["fragile", "--base", "path", "--n", "2000",
                                 "--delta", "2", "--k", "100",
                                 "--trials", "2", "--seed", "4"])
    assert rc == 0
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    assert row["l"] == 120
    assert row["upper_bound"] == 100
    assert row["good_edge_count"] <= 100


def test_fragile_input_is_read_once_per_call(tmp_path, monkeypatch, capsys) -> None:
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_edge_list(path)

    monkeypatch.setattr(genuslab.cli, "load_edge_list", counting_load)
    target = tmp_path / "base.edgelist"
    argv = ["fragile", "--input", str(target), "--delta", "2", "--k", "20",
            "--trials", "3"]
    # the second call must see the rewritten file, not the cached graph
    for n in (300, 400):
        target.write_text(format_edge_list(path_graph(n)))
        rc, doc = _run_json(capsys, argv)
        assert rc == 0
        assert [r["n"] for r in doc["rows"]] == [n] * 3
    assert calls == [str(target)] * 2


def test_fragile_base_needs_n() -> None:
    assert main(["fragile", "--base", "path", "--delta", "2", "--k", "10"]) == 2


def test_missing_input_file_exits_two() -> None:
    assert main(["genus", "exact", "--input", "/nonexistent/g.edgelist"]) == 2


def test_out_dir_env_resolves_relative_paths(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    rc = main(["genus", "exact", "--fixture", "c5", "--out", "nested.json"])
    assert rc == 0
    doc = json.loads((tmp_path / "nested.json").read_text())
    assert doc["rows"][0]["genus"] == 0


def test_suite_asymptotics_passes(capsys) -> None:
    rc, doc = _run_json(capsys, ["suite", "asymptotics"])
    assert rc == 0
    assert doc["summary"]["passed"] is True
    assert doc["summary"]["checks_total"] == doc["summary"]["checks_passed"]
    assert all(r["passed"] for r in doc["rows"])


def test_suite_oracle_passes(capsys) -> None:
    rc, doc = _run_json(capsys, ["suite", "oracle"])
    assert rc == 0
    assert doc["summary"]["passed"] is True


@pytest.mark.parametrize("argv, checks", [
    (["fragile", "--n", "20000", "--k", "1000", "--trials", "2"], 6),
    (["mc-kappa", "--n", "5000", "--trials", "2"], 4),
    (["supercritical", "--n", "20000", "--trials", "2"], 2),
])
def test_suite_report_shape_at_small_scale(capsys, argv, checks) -> None:
    # at this scale some thresholds fail by design; the exit code must say so
    rc, doc = _run_json(capsys, ["suite", *argv])
    rows, summary = doc["rows"], doc["summary"]
    assert len(rows) == summary["checks_total"] == checks
    assert all(set(r) == {"name", "passed", "detail"} for r in rows)
    assert len({r["name"] for r in rows}) == checks
    passed = sum(r["passed"] for r in rows)
    assert summary["checks_passed"] == passed
    assert summary["passed"] is (passed == checks)
    assert rc == (0 if passed == checks else 1)


@pytest.mark.parametrize("argv", [
    ["suite", "supercritical", "--n", "-5"],
    ["mc", "kappa", "--n", "0"],
    ["suite", "mc-kappa", "--trials", "0"],
    ["census", "supercritical", "--n", "3000", "--s", "500", "--trials", "0"],
    ["fragile", "--base", "path", "--n", "100", "--delta", "2", "--k", "10",
     "--trials", "0"],
])
def test_counts_that_are_not_positive_are_usage_errors(argv) -> None:
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_unknown_suite_is_a_usage_error() -> None:
    with pytest.raises(SystemExit) as err:
        main(["suite", "nonsense"])
    assert err.value.code == 2


def test_version_flag() -> None:
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
