from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy

import genuslab.cli
from genuslab import (
    CycleBudgetError,
    component_fraction,
    cycle_count_limit,
    enumerate_cycles,
    genus_lower_bound_density,
    genus_per_edge,
)
from genuslab.cli import OUT_DIR_ENV, _build_parser, _random_tree, main
from genuslab.graphs import (
    complete_graph,
    cycle_graph,
    format_edge_list,
    grid_graph,
    hypercube_graph,
    load_edge_list,
    path_graph,
)
from genuslab.random_models import gnm, gnp, trial_rng


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


def test_genus_bounds_shape(capsys) -> None:
    # K6 has 20 triangles, past the census budget of m/3 = 5 cycles, so the
    # lower bound is the density bound ceil((15 - 18 + 6) / 6) = 1
    rc, doc = _run_json(capsys, ["genus", "bounds", "--fixture", "k6",
                                 "--ell", "3"])
    assert rc == 0
    assert doc["summary"]["bounds"] == {"lower": 1, "upper": 5}
    assert doc["summary"]["ell"] == 3
    assert not {"budget", "faces", "cap"} & set(doc["config"])


_CENSUS_PAST_ITS_CAP = ["census", "supercritical", "--n", "3000", "--s", "1000",
                        "--ell", "10", "--trials", "1", "--cap", "1"]


def test_census_cycle_budget_exits_one(capsys) -> None:
    rc, doc = _run_json(capsys, _CENSUS_PAST_ITS_CAP)
    assert rc == 1
    assert doc["summary"] == {"error": "cycle budget exhausted", "cap": 1,
                              "max_length": 10}
    assert doc["config"]["cap"] == 1


@pytest.mark.parametrize("argv", [
    ["genus", "exact", "--fixture", "k6", "--budget", "50"],
    _CENSUS_PAST_ITS_CAP,
])
def test_budget_failure_is_json_under_csv(capsys, argv) -> None:
    rc, doc = _run_json(capsys, argv + ["--format", "csv"])
    assert rc == 1
    assert doc["config"]["format"] == "csv"
    assert doc["rows"] == [doc["summary"]]
    assert doc["summary"]["error"].endswith("budget exhausted")


@pytest.mark.parametrize("argv, header", [
    (["asym", "--u", "2.0"], "function,argument,value"),
    (["genus", "bounds", "--fixture", "k6"], "n,m,ell,lower,upper"),
    (["predict", "--n", "1000000", "--m", "531623"],
     "n,m,regime,predicted_lo,predicted_hi"),
])
def test_csv_header(capsys, argv, header) -> None:
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == header


def test_generate_then_bounds_round_trip(tmp_path, capsys) -> None:
    target = tmp_path / "g.edgelist"
    rc = main(["generate", "gnm", "--n", "30", "--m", "40", "--seed", "2",
               "--out", str(target)])
    assert rc == 0
    header = target.read_text().splitlines()[0].split()
    assert header == ["30", "40"]
    rc, doc = _run_json(capsys, ["genus", "bounds", "--input", str(target),
                                 "--ell", "3"])
    assert rc == 0
    assert doc["summary"]["n"] == 30
    assert doc["summary"]["m"] == 40


@pytest.mark.parametrize("argv, graph", [
    (["gnm", "--n", "40", "--m", "60", "--seed", "7"],
     lambda: gnm(40, 60, trial_rng(7, 0))),
    (["gnp", "--n", "40", "--p", "0.1", "--seed", "7"],
     lambda: gnp(40, 0.1, trial_rng(7, 0))),
    (["random-tree", "--n", "40", "--delta", "3", "--seed", "7"],
     lambda: _random_tree(40, 3, trial_rng(7, 0))),
    (["random-tree", "--n", "40"], lambda: _random_tree(40, 3, trial_rng(0, 0))),
    (["path", "--n", "7"], lambda: path_graph(7)),
    (["cycle", "--n", "7"], lambda: cycle_graph(7)),
    (["complete", "--n", "6"], lambda: complete_graph(6)),
    (["grid", "--n", "10"], lambda: grid_graph(3, 3)),
    (["grid", "--n", "0"], lambda: path_graph(0)),
    (["hypercube", "--dim", "4"], lambda: hypercube_graph(4)),
])
def test_generate_prints_the_library_graph(capsys, argv, graph) -> None:
    assert main(["generate", *argv]) == 0
    assert capsys.readouterr().out == format_edge_list(graph())


def test_asym_flag_form_matches_library(capsys) -> None:
    rc, doc = _run_json(capsys, ["asym", "--u", "2.0", "--mu", "3.0",
                                 "--cycle-limit", "1.0"])
    assert rc == 0
    values = {r["function"]: r["value"] for r in doc["rows"]}
    assert values["component_fraction"] == pytest.approx(component_fraction(2.0))
    assert values["genus_per_edge"] == pytest.approx(genus_per_edge(3.0))
    assert values["cycle_count_limit"] == pytest.approx(cycle_count_limit(1.0))


def test_asym_with_nothing_to_do_is_a_usage_error(capsys) -> None:
    assert main(["asym"]) == 2


def test_asym_value_that_is_not_finite_is_a_usage_error(capsys) -> None:
    # Shi(800) overflows a double, and strict JSON has no Infinity
    assert main(["asym", "--cycle-limit", "400"]) == 2
    assert capsys.readouterr().out == ""


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


def test_curve_falls_back_to_the_density_bound_past_the_cycle_budget(capsys) -> None:
    # this dense point has more than m/3 short cycles, where the census stops
    g = gnm(300, 20000, trial_rng(0, 0))
    with pytest.raises(CycleBudgetError):
        enumerate_cycles(g, 4, cap=20000 // 3)
    rc, doc = _run_json(capsys, ["curve", "--n", "300", "--m", "20000", "--format", "json"])
    assert rc == 0
    assert genus_lower_bound_density(g) == 3185  # ceil((m - 3n + 6) / 6)
    assert doc["rows"][0]["lower_ratio"] == 3185 / 20000


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
    assert set(doc["config"]) == {"command", "format", "name", "out"}


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
    # options that only the trial commands read, and removed asym syntax
    ["genus", "exact", "--fixture", "k5", "--seed", "1"],
    ["predict", "--n", "1000", "--m", "600", "--jobs", "2"],
    ["contiguity", "--n", "10000", "--m", "30000", "--g", "10", "--seed", "1"],
    ["asym", "--u", "1", "--jobs", "2"],
    ["asym", "u", "--arg", "1"],
    ["asym", "--mc-cycle-limit", "1"],
    # options that only the other genus mode or another suite reads
    ["genus", "exact", "--fixture", "k5", "--ell", "9"],
    ["genus", "exact", "--fixture", "k5", "--cap", "1"],
    ["genus", "bounds", "--fixture", "k5", "--cap", "1"],
    ["genus", "bounds", "--fixture", "k5", "--budget", "5"],
    ["genus", "bounds", "--fixture", "k5", "--faces"],
    ["suite", "oracle", "--n", "5"],
    ["suite", "asymptotics", "--seed", "1"],
    ["suite", "mc-kappa", "--k", "3"],
    ["suite", "supercritical", "--k", "3"],
    ["suite", "fragile", "--s", "3"],
    ["mc", "kappa", "--n", "500", "--trials", "1", "--jobs", "0"],
    # abbreviations of options
    ["mc", "kappa", "--s", "7"],
    ["curve", "--n", "10", "--s", "7"],
    ["fragile", "--base", "path", "--n", "400", "--delta", "2", "--k", "20",
     "--trials", "1", "--s", "7"],
    ["genus", "exact", "--fix", "k5"],
    ["census", "supercritical", "--n", "3000", "--s", "500", "--tri", "2"],
    # options that the model does not read
    ["generate", "path", "--n", "3", "--m", "7"],
    ["generate", "path", "--n", "3", "--seed", "4"],
    ["generate", "gnm", "--n", "5", "--m", "3", "--p", "0.5"],
    # two graph sources, or --n without --base
    ["genus", "exact", "--fixture", "k5", "--input", "base.edgelist"],
    ["fragile", "--input", "base.edgelist", "--base", "path", "--delta", "2",
     "--k", "20", "--trials", "1"],
    ["fragile", "--input", "base.edgelist", "--n", "5", "--delta", "2",
     "--k", "20", "--trials", "1"],
    # a degree cap that no tree on the vertices meets
    ["generate", "random-tree", "--n", "2", "--delta", "0"],
    # budgets and caps are counts too
    ["genus", "exact", "--fixture", "k5", "--budget", "-5"],
    ["census", "supercritical", "--n", "3000", "--s", "500", "--cap", "0"],
])
def test_counts_that_are_not_positive_are_usage_errors(
        argv, tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.edgelist").write_text(format_edge_list(path_graph(400)))
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    assert code == 2


def test_no_parser_takes_abbreviations() -> None:
    parsers = [_build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert "genuslab generate hypercube" in {p.prog for p in parsers}
    assert [p.prog for p in parsers if p.allow_abbrev is not False] == []


def test_unknown_suite_is_a_usage_error() -> None:
    with pytest.raises(SystemExit) as err:
        main(["suite", "nonsense"])
    assert err.value.code == 2


def test_version_flag() -> None:
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_readme_command_lines_parse() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
        for line in block.splitlines()
        if line.startswith("genuslab ")
    ]
    assert lines
    parser = _build_parser()
    rejected = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            rejected.append(line)
    assert rejected == []
