from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import genuslab

_ROOT = Path(__file__).resolve().parent.parent
# Runs in a fresh interpreter, so nothing the test session imported counts.
_PROGRAM = """
import contextlib, io, json, sys
import genuslab
from genuslab import cli, exact_genus
from genuslab.acceptance import named_fixtures

results = {name: exact_genus(g).genus for name, g in named_fixtures().items()}
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["genus", "exact", "--fixture", "petersen", "--faces"])
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy.sparse", "scipy.special", "scipy.linalg")))
# the functions that import scipy when called still work afterwards
g = genuslab.Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3)])
print(json.dumps({
    "rc": rc,
    "petersen": json.loads(out.getvalue())["rows"][0]["genus"],
    "k5": results["k5"],
    "loaded": loaded,
    "component_count": g.component_count,
    "two_core": genuslab.two_core(g).old_labels.tolist(),
    "cycle_count_limit": genuslab.cycle_count_limit(1.0),
}))
"""


# The supercritical trial labels the 2-core from its kernel, so it too
# leaves scipy's graph, special-function and linear-algebra modules unloaded.
_SUPERCRITICAL = """
import contextlib, io, json, sys
from genuslab import cli
from genuslab.census import supercritical_report

report = supercritical_report(3000, 500, seed=17)
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["census", "supercritical", "--n", "3000", "--s", "500", "--trials", "2", "--seed", "3"])
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy.sparse", "scipy.special", "scipy.linalg")))
print(json.dumps({
    "rc": rc,
    "giant": report.giant_vertices,
    "rows": [row["giant_vertices"] for row in json.loads(out.getvalue())["rows"]],
    "loaded": loaded,
}))
"""


# Components are labelled and bases searched on numpy and Python alone, so
# fragile_experiment, genuslab fragile and genuslab genus bounds leave
# those scipy modules unloaded too.  mc kappa loads no scipy.sparse, though
# its prediction loads scipy.special above c = 1.
_FRAGILE = """
import contextlib, io, json, os, sys, tempfile
from genuslab import cli, fragile_experiment, format_edge_list, gnm, path_graph

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, json.loads(out.getvalue())["rows"]

def scipy_loaded(prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))

report = fragile_experiment(path_graph(20000), 2, 1000, seed=5)
rc_fragile, fragile_rows = run(["fragile", "--base", "grid", "--n", "2500", "--delta", "4",
                                "--k", "200", "--trials", "2", "--seed", "3"])
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "g.edgelist")
    with open(path, "w") as fh:
        fh.write(format_edge_list(gnm(300, 600, seed=7)))
    rc_bounds, bounds_rows = run(["genus", "bounds", "--input", path])
loaded = scipy_loaded(("scipy.sparse", "scipy.special", "scipy.linalg"))
rc_kappa, kappa_rows = run(["mc", "kappa", "--n", "2000", "--trials", "1", "--seed", "1"])
print(json.dumps({
    "rc": [rc_fragile, rc_bounds, rc_kappa],
    "t": [report.t] + [row["t"] for row in fragile_rows],
    "bounds": bounds_rows[0]["bounds"],
    "kappa": [row["kappa"] for row in kappa_rows],
    "loaded": loaded,
    "loaded_by_kappa": scipy_loaded("scipy.sparse"),
}))
"""


def _fresh_run(program: str) -> dict:
    src = str(Path(genuslab.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_exact_pipeline_loads_no_scipy_submodule() -> None:
    doc = _fresh_run(_PROGRAM)
    assert doc["loaded"] == []
    assert (doc["rc"], doc["petersen"], doc["k5"]) == (0, 1, 1)
    assert doc["component_count"] == 3
    assert doc["two_core"] == [0, 1, 2]
    assert doc["cycle_count_limit"] == genuslab.cycle_count_limit(1.0)


def test_supercritical_trial_loads_no_scipy_submodule() -> None:
    doc = _fresh_run(_SUPERCRITICAL)
    assert doc["loaded"] == []
    assert doc["rc"] == 0
    assert doc["giant"] > 0 and len(doc["rows"]) == 2 and min(doc["rows"]) > 0


def test_fragile_trial_and_kappa_load_no_scipy_submodule() -> None:
    doc = _fresh_run(_FRAGILE)
    assert doc["loaded"] == []
    assert doc["loaded_by_kappa"] == []
    assert doc["rc"] == [0, 0, 0]
    assert min(doc["t"]) > 0 and len(doc["t"]) == 3
    assert 0 <= doc["bounds"]["lower"] <= doc["bounds"]["upper"]
    assert len(doc["kappa"]) == 4 and min(doc["kappa"]) > 0


def _bench_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_bench_names_resolve() -> None:
    # the bench's tracer wraps these names and its environment record reads
    # HAVE_NUMBA; renaming one away breaks traced runs, not the suite
    spans = _bench_spans()
    for module, name in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"genuslab.{module}"), name)), (module, name)
    assert set(spans.MODULES) >= {module for module, _ in spans.TRACED}
    assert isinstance(importlib.import_module("genuslab._genus_search").HAVE_NUMBA, bool)


def _reads(tree: ast.AST) -> list[str]:
    """The names a tree reads: loaded names, attributes and imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
    return out


def test_every_src_name_has_a_reader_outside_the_tests() -> None:
    # a module-level name of src that only tests/ reads is dead code kept
    # alive by its own test; the bench's tracer reaches TRACED by string
    trees = {path: ast.parse(path.read_text())
             for folder in ("src/genuslab", "perfbench") for path in (_ROOT / folder).glob("*.py")}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    reads.update(name for _, name in _bench_spans().TRACED)
    unread = []
    for path, tree in trees.items():
        if path.parent.name != "genuslab" or path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = Counter(_reads(node))
            unread += [f"{path.name}:{name}" for name in names if reads[name] <= own[name]]
    assert unread == []
