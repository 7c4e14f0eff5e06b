"""Command-line harness for the genus experiments.

Commands compute rows and a summary; one writer, _emit, writes the report.
The JSON report has four blocks: config (the exact parameters used,
round-trippable through JSON), metadata (timestamps, wall times and what
ran: the package, numpy and scipy versions; the only content that varies
between runs), rows (one per trial or grid point,
deterministic given config and seed), and summary.  CSV output emits a flat
table alone, but a search or cycle budget failure is always a JSON report.
Exit codes: 0 on success, 1 when an acceptance suite fails or a budget runs
out, 2 on usage errors, including counts that are not positive.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .acceptance import (
    KAPPA_LAMBDAS,
    ORACLE_EXPECTED,
    core_excess_checks,
    fragile_checks,
    genus_per_edge_checks,
    genus_upper_checks,
    kappa_checks,
    named_fixtures,
    oracle_checks,
    subcritical_identity_checks,
)
from .asymptotics import (
    component_fraction,
    component_fraction_derivative,
    cycle_count_limit,
    genus_per_edge,
)
from .census import SupercriticalReport, predicted_core_excess, supercritical_report
from .embeddings import (
    SearchBudgetError,
    exact_genus,
    genus_lower_bound,
    genus_upper_bound,
    trace_faces,
)
from .fragile import FragileReport, fragile_experiment
from .graphs import (
    CYCLE_CAP,
    CycleBudgetError,
    Graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    grid_graph,
    hypercube_graph,
    load_edge_list,
    path_graph,
)
from .random_models import gnm, gnp, trial_rng
from .regimes import contiguity_verdict, predict_genus

OUT_DIR_ENV = "GENUSLAB_OUT_DIR"


def _write_text(text: str, out: str | None) -> None:
    """Write text to stdout, or to the file out; relative paths land under
    $GENUSLAB_OUT_DIR when it is set."""
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(out):
        os.makedirs(base, exist_ok=True)
        out = os.path.join(base, out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(ns, rows: list[dict], summary: dict, seconds=(), *,
          table: list[dict] | None = None, fields: list[str] | None = None,
          fmt: str | None = None) -> None:
    """Write a command's report to ns.out: the JSON report built from ns,
    rows, summary and the trial seconds, or under csv format the flat table
    (default rows) under fields (default the first table row's keys).  fmt
    overrides ns.format."""
    if (fmt or ns.format) == "json":
        report = {
            "config": _config_of(ns),
            "metadata": {
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "tool": "genuslab",
                "version": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "trial_seconds": [round(t, 6) for t in seconds],
            },
            "rows": rows,
            "summary": summary,
        }
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        _write_text(text + "\n", ns.out)
        return
    table = rows if table is None else table
    if fields is None:
        fields = list(table[0]) if table else []
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(table)
    _write_text(buf.getvalue(), ns.out)


def _timed(trial, index: int) -> tuple:
    t0 = time.perf_counter()
    out = trial(index)
    return out, time.perf_counter() - t0


def _run_trials(trial, count: int, jobs: int) -> tuple[list, list[float]]:
    """Call trial(i) for i in 0..count-1, each timed where it runs; trial is
    picklable for jobs > 1.  Results and seconds come back in index order,
    so they are independent of the job count."""
    timed = functools.partial(_timed, trial)
    if jobs <= 1:
        results = [timed(i) for i in range(count)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(timed, range(count)))
    return [out for out, _ in results], [sec for _, sec in results]


def _mean(rows: list[dict], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


def _load_input_graph(ns) -> Graph:
    if ns.input is not None:
        return load_edge_list(ns.input)
    return named_fixtures()[ns.fixture]


def _random_tree(n: int, max_degree: int, rng: np.random.Generator) -> Graph:
    """Uniform attachment tree with every degree capped at max_degree."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_degree < min(n - 1, 2):
        raise ValueError(f"max_degree {max_degree} cannot span {n} vertices")
    open_slots = [0]
    degree = [0] * n
    edges = []
    for v in range(1, n):
        idx = int(rng.integers(len(open_slots)))
        parent = open_slots[idx]
        edges.append((parent, v))
        degree[parent] += 1
        degree[v] += 1
        if degree[parent] >= max_degree:
            open_slots[idx] = open_slots[-1]
            open_slots.pop()
        if degree[v] < max_degree:
            open_slots.append(v)
    return Graph(n, edges)


# model: (builder, the options it reads, in the builder's argument order)
_MODELS = {
    "gnm": (lambda n, m, seed: gnm(n, m, trial_rng(seed, 0)), ("n", "m", "seed")),
    "gnp": (lambda n, p, seed: gnp(n, p, trial_rng(seed, 0)), ("n", "p", "seed")),
    "random-tree": (lambda n, delta, seed: _random_tree(n, delta, trial_rng(seed, 0)),
                    ("n", "delta", "seed")),
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "grid": (lambda n: grid_graph(math.isqrt(n), n // max(1, math.isqrt(n))), ("n",)),
    "hypercube": (hypercube_graph, ("dim",)),
}
# generate option: its argparse keywords
_MODEL_OPTIONS = {
    "n": {"type": int, "required": True},
    "m": {"type": int, "required": True},
    "p": {"type": float, "required": True},
    "delta": {"type": int, "default": 3, "help": "degree cap"},
    "seed": {"type": int, "default": 0},
    "dim": {"type": int, "required": True, "help": "hypercube dimension"},
}
_BASES = ("path", "cycle", "grid", "random-tree")
_GRID_N_HELP = "grid builds isqrt(n) * (n // isqrt(n)) vertices, so n = 10 gives 9"


def _build(model: str, values: dict) -> Graph:
    build, options = _MODELS[model]
    return build(*(values[option] for option in options))


# the trials of one fragile run share their base graph
@functools.lru_cache(maxsize=1)
def _fragile_base(path: str | None, kind: str, n: int, delta: int, seed) -> Graph:
    """The edge list at path, or else the built-in base graph kind on n vertices."""
    if path is not None:
        return load_edge_list(path)
    return _build(kind, {"n": n, "delta": delta, "seed": seed})


# workers are module level so process pools can pickle their partials;
# each takes the trial index last

def _kappa_trial(n: int, lams, trials: int, master, index: int) -> dict:
    # trial t of the li-th density draws stream li * trials + t
    li, trial = divmod(index, trials)
    lam = lams[li]
    m = int(math.floor(lam * n))
    G = gnm(n, m, trial_rng(master, index))
    kappa = int(G.component_count)
    predicted = component_fraction(2.0 * lam) * n
    return {
        "lambda": lam,
        "trial_index": trial,
        "seed": f"{master}:{index}",
        "m": m,
        "kappa": kappa,
        "predicted_kappa": predicted,
        "abs_deviation": abs(kappa - predicted) / n,
    }


def _census_trial(n: int, s: int, master, index: int, **options) -> SupercriticalReport:
    return supercritical_report(n, s, trial_rng(master, index), **options)


def _fragile_trial(path, kind, n, delta: int, k: int, ell: int, master,
                   index: int) -> FragileReport:
    H = _fragile_base(path, kind, n, delta, master)
    return fragile_experiment(H, delta, k, trial_rng(master, index + 1), ell=ell)


def _curve_point(n: int, grid: list[int], ell: int, master, index: int) -> dict:
    m = grid[index]
    G = gnm(n, m, trial_rng(master, index))
    lower = genus_lower_bound(G, ell)
    upper = genus_upper_bound(G)
    pred = predict_genus(n, m)
    mid = 0.5 * (pred.predicted_genus[0] + pred.predicted_genus[1])
    return {
        "m": m,
        "lower_ratio": lower / m if m else 0.0,
        "upper_ratio": upper / m if m else 0.0,
        "predicted_ratio": mid / m if m else 0.0,
        "regime": pred.regime,
        "seed": f"{master}:{index}",
    }


def _cmd_generate(ns) -> int:
    _write_text(format_edge_list(_build(ns.model, vars(ns))), ns.out)
    return 0


def _cmd_genus_bounds(ns) -> int:
    G = _load_input_graph(ns)
    bounds = {
        "lower": genus_lower_bound(G, ns.ell),
        "upper": genus_upper_bound(G),
    }
    payload = {"bounds": bounds, "ell": ns.ell, "n": G.n, "m": G.m}
    _emit(ns, [payload], payload,
          table=[{"n": G.n, "m": G.m, "ell": ns.ell, **bounds}])
    return 0


def _cmd_genus_exact(ns) -> int:
    G = _load_input_graph(ns)
    result = exact_genus(G, node_budget=ns.budget)
    payload = {
        "genus": result.genus,
        "f": result.face_count,
        "visited": result.nodes_explored,
    }
    if ns.faces:
        trace = trace_faces(G, result.rotation)
        payload["faces"] = [list(face) for face in trace.faces]
    _emit(ns, [payload], payload)
    return 0


# asym flag: (row name, function)
_ASYM_FUNCTIONS = {
    "u": ("component_fraction", component_fraction),
    "du": ("component_fraction_derivative", component_fraction_derivative),
    "mu": ("genus_per_edge", genus_per_edge),
    "cycle_limit": ("cycle_count_limit", cycle_count_limit),
}


def _cmd_asym(ns) -> int:
    rows = [
        {"function": name, "argument": x, "value": function(x)}
        for flag, (name, function) in _ASYM_FUNCTIONS.items()
        for x in getattr(ns, flag) or []
    ]
    if not rows:
        raise ValueError("nothing to evaluate; pass --u, --du, --mu or --cycle-limit")
    _emit(ns, rows, {"evaluations": len(rows)})
    return 0


def _cmd_predict(ns) -> int:
    rows = []
    for m in ns.m:
        pred = predict_genus(ns.n, m)
        rows.append({
            "n": ns.n,
            "m": m,
            "regime": pred.regime,
            "predicted_lo": pred.predicted_genus[0],
            "predicted_hi": pred.predicted_genus[1],
            "parameters": pred.parameters,
        })
    _emit(ns, rows, {"points": len(rows)},
          fields=["n", "m", "regime", "predicted_lo", "predicted_hi"])
    return 0


def _cmd_contiguity(ns) -> int:
    verdict = contiguity_verdict(ns.n, ns.m, ns.genus, ns.eps)
    row = {"n": ns.n, "m": ns.m, "genus": ns.genus, "eps": ns.eps,
           "verdict": verdict.value}
    _emit(ns, [row], row)
    return 0


def _cmd_census(ns) -> int:
    trial = functools.partial(_census_trial, ns.n, ns.s, ns.seed,
                              ell=ns.ell, cap=ns.cap)
    reports, seconds = _run_trials(trial, ns.trials, ns.jobs)
    rows = [
        {"trial_index": i, "seed": f"{ns.seed}:{i}", **asdict(rep)}
        for i, rep in enumerate(reports)
    ]
    summary = {
        "s": ns.s,
        "mean_excess": _mean(rows, "core_excess"),
        "predicted": predicted_core_excess(ns.n, ns.s),
        "mean_genus_lower": _mean(rows, "genus_lower"),
        "mean_genus_upper": _mean(rows, "genus_upper"),
        "mean_census_cycle_count": _mean(rows, "census_cycle_count"),
        "predicted_genus": rows[0]["predicted"],
    }
    _emit(ns, rows, summary, seconds, table=[summary],
          fields=["s", "mean_excess", "predicted"])
    return 0


def _cmd_mc_kappa(ns) -> int:
    trial = functools.partial(_kappa_trial, ns.n, ns.lam, ns.trials, ns.seed)
    rows, seconds = _run_trials(trial, len(ns.lam) * ns.trials, ns.jobs)
    summary = {
        "mean_deviation": _mean(rows, "abs_deviation"),
        "max_deviation": float(max(r["abs_deviation"] for r in rows)),
        "trials": len(rows),
    }
    _emit(ns, rows, summary, seconds)
    return 0


def _cmd_curve(ns) -> int:
    if ns.m:
        grid = list(ns.m)
    else:
        fractions = [0.25, 0.4, 0.45, 0.49, 0.5, 0.51, 0.55, 0.6, 0.75,
                     1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0]
        pairs = ns.n * (ns.n - 1) // 2
        grid = sorted({min(pairs, max(1, int(round(f * ns.n)))) for f in fractions})
    trial = functools.partial(_curve_point, ns.n, grid, ns.ell, ns.seed)
    rows, seconds = _run_trials(trial, len(grid), ns.jobs)
    summary = {
        "points": len(rows),
        "max_upper_ratio": float(max(r["upper_ratio"] for r in rows)),
    }
    _emit(ns, rows, summary, seconds,
          fields=["m", "lower_ratio", "upper_ratio", "predicted_ratio"])
    return 0


def _cmd_fragile(ns) -> int:
    # the file may have been rewritten since an earlier call in this process
    _fragile_base.cache_clear()
    if (ns.base is None) != (ns.n is None):
        raise ValueError("--n goes with --base, and --base needs it")
    trial = functools.partial(_fragile_trial, ns.input, ns.base, ns.n,
                              ns.delta, ns.k, ns.ell, ns.seed)
    reports, seconds = _run_trials(trial, ns.trials, ns.jobs)
    rows = [
        {"trial_index": i, **asdict(rep), "seed": f"{ns.seed}:{i + 1}"}
        for i, rep in enumerate(reports)
    ]
    summary = {
        "trials": len(rows),
        "mean_t": _mean(rows, "t"),
        "mean_gamma_edges": _mean(rows, "gamma_edges"),
        "mean_genus_lower_gamma": _mean(rows, "genus_lower_gamma"),
        "positive_lower_fraction":
            sum(r["genus_lower_gamma"] > 0 for r in rows) / len(rows),
        "max_upper_bound": max(r["upper_bound"] for r in rows),
    }
    _emit(ns, rows, summary, seconds)
    return 0


def _suite_asymptotics(ns) -> list[dict]:
    return subcritical_identity_checks() + genus_per_edge_checks()


def _suite_mc_kappa(ns) -> list[dict]:
    trial = functools.partial(_kappa_trial, ns.n, KAPPA_LAMBDAS, ns.trials, ns.seed)
    rows, _ = _run_trials(trial, len(KAPPA_LAMBDAS) * ns.trials, ns.jobs)
    deviations = {
        lam: [r["abs_deviation"] for r in rows[li * ns.trials:(li + 1) * ns.trials]]
        for li, lam in enumerate(KAPPA_LAMBDAS)
    }
    return kappa_checks(deviations)


def _suite_supercritical(ns) -> list[dict]:
    s = int(round(ns.n**0.75)) if ns.s is None else ns.s
    trial = functools.partial(_census_trial, ns.n, s, ns.seed)
    reports, _ = _run_trials(trial, ns.trials, ns.jobs)
    return core_excess_checks(reports) + genus_upper_checks(reports)


def _suite_fragile(ns) -> list[dict]:
    trial = functools.partial(_fragile_trial, None, "path", ns.n, 2, ns.k, 3, ns.seed)
    reports, _ = _run_trials(trial, ns.trials, ns.jobs)
    return fragile_checks(reports, ns.n, ns.k, 2)


def _suite_oracle(ns) -> list[dict]:
    fixtures = named_fixtures()
    return oracle_checks({name: exact_genus(fixtures[name]) for name in ORACLE_EXPECTED})


# suite: (function, its count options with their defaults; s=None is n^(3/4))
_SUITES = {
    "asymptotics": (_suite_asymptotics, {}),
    "mc-kappa": (_suite_mc_kappa, {"n": 100_000, "trials": 10}),
    "supercritical": (_suite_supercritical, {"n": 1_000_000, "s": None, "trials": 10}),
    "fragile": (_suite_fragile, {"n": 100_000, "k": 5000, "trials": 10}),
    "oracle": (_suite_oracle, {}),
}


def _cmd_suite(ns) -> int:
    t0 = time.perf_counter()
    suite, _ = _SUITES[ns.name]
    checks = suite(ns)
    passed = all(c["passed"] for c in checks)
    summary = {
        "suite": ns.name,
        "passed": passed,
        "checks_passed": sum(1 for c in checks if c["passed"]),
        "checks_total": len(checks),
    }
    _emit(ns, checks, summary, [time.perf_counter() - t0],
          fields=["name", "passed", "detail"])
    return 0 if passed else 1


def _config_of(ns) -> dict:
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in sorted(vars(ns).items())
        if not callable(value)
    }


def _positive_int(text: str) -> int:
    """argparse type of the count arguments: trials, sample sizes, jobs,
    search budgets and cycle caps."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_output(p, default_format="json") -> None:
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--out", default=None, help="output path (default stdout); "
                   f"relative paths resolve under ${OUT_DIR_ENV} when set")


def _add_trials(p) -> None:
    """The options of the commands that draw random trials."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for trial fan-out (default 1)")


class _Parser(argparse.ArgumentParser):
    """No abbreviated options (--s is never --seed), here or in its sub-parsers."""
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genuslab",
        description="Genus bounds and sparse random graph experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as an edge list")
    model_sub = p.add_subparsers(dest="model", required=True)
    for model, (_, options) in _MODELS.items():
        q = model_sub.add_parser(model)
        for option in options:
            spec = _MODEL_OPTIONS[option]
            if model == "grid":
                spec = {**spec, "help": f"vertex count; {_GRID_N_HELP}"}
            q.add_argument(f"--{option}", **spec)
        q.add_argument("--out", default=None)
        q.set_defaults(func=_cmd_generate)

    p = sub.add_parser("genus", help="exact genus or bounds of a graph")
    genus_sub = p.add_subparsers(dest="mode", required=True)
    q = genus_sub.add_parser("exact", help="minimum genus by rotation search")
    q.add_argument("--budget", type=_positive_int, default=50_000_000,
                   help="search node budget, one dart placed per node")
    q.add_argument("--faces", action="store_true",
                   help="include the face walks of a minimum-genus rotation")
    q.set_defaults(func=_cmd_genus_exact)
    q = genus_sub.add_parser("bounds", help="Euler lower and upper bounds")
    q.add_argument("--ell", type=int, default=4,
                   help="cycle census length for the lower bound")
    q.set_defaults(func=_cmd_genus_bounds)
    for q in genus_sub.choices.values():
        source = q.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", default=None, help="edge list file")
        source.add_argument("--fixture", choices=sorted(named_fixtures()),
                            help="named bundled fixture")
        _add_output(q)

    p = sub.add_parser("asym", help="evaluate the asymptotic functions")
    p.add_argument("--u", type=float, nargs="+", default=None,
                   help="component fraction u at these arguments")
    p.add_argument("--du", type=float, nargs="+", default=None,
                   help="derivative of u at these arguments")
    p.add_argument("--mu", type=float, nargs="+", default=None,
                   help="genus per edge at these edge densities")
    p.add_argument("--cycle-limit", type=float, nargs="+", default=None,
                   help="limiting census cycle count at these lengths")
    _add_output(p)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("predict", help="regime classification and genus prediction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, nargs="+", required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("contiguity", help="contiguity verdict for (n, m, genus)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="edge count; omit for the all-graphs model")
    p.add_argument("--genus", "--g", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.05)
    _add_output(p)
    p.set_defaults(func=_cmd_contiguity)

    p = sub.add_parser("census", help="structural census experiments")
    census_sub = p.add_subparsers(dest="census_command", required=True)
    q = census_sub.add_parser("supercritical",
                              help="slightly supercritical core statistics")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--trials", type=_positive_int, default=10)
    q.add_argument("--ell", type=int, default=None,
                   help="short cycle length (default floor(n/s))")
    q.add_argument("--cap", type=_positive_int, default=CYCLE_CAP)
    _add_output(q)
    _add_trials(q)
    q.set_defaults(func=_cmd_census)

    p = sub.add_parser("mc", help="Monte Carlo experiments")
    mc_sub = p.add_subparsers(dest="mc_command", required=True)
    q = mc_sub.add_parser("kappa", help="component count concentration")
    q.add_argument("--n", type=_positive_int, default=100_000)
    q.add_argument("--lam", type=float, nargs="+",
                   default=KAPPA_LAMBDAS,
                   help="edge densities m = floor(lam*n)")
    q.add_argument("--trials", type=_positive_int, default=10)
    _add_output(q)
    _add_trials(q)
    q.set_defaults(func=_cmd_mc_kappa)

    p = sub.add_parser("curve", help="genus per edge across an edge-count grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, nargs="+", default=None,
                   help="edge counts (default: a built-in grid)")
    p.add_argument("--ell", type=int, default=4)
    _add_output(p, default_format="csv")
    _add_trials(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("fragile", help="random perturbation genus experiment")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None, help="base graph edge list")
    source.add_argument("--base", default=None, choices=_BASES,
                        help="built-in base graph")
    p.add_argument("--n", type=int, default=None,
                   help=f"vertex count for --base; {_GRID_N_HELP}")
    p.add_argument("--delta", type=int, required=True,
                   help="maximum degree of the base graph")
    p.add_argument("--k", type=int, required=True,
                   help="number of random edges to add")
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--ell", type=int, default=3,
                   help="cycle census length for the quotient lower bound")
    _add_output(p)
    _add_trials(p)
    p.set_defaults(func=_cmd_fragile)

    p = sub.add_parser("suite", help="run a named acceptance suite")
    suite_sub = p.add_subparsers(dest="name", required=True)
    for name, (_, counts) in sorted(_SUITES.items()):
        q = suite_sub.add_parser(name)
        for option, default in counts.items():
            q.add_argument(f"--{option}", type=_positive_int, default=default)
        _add_output(q)
        if counts:
            _add_trials(q)
        q.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except SearchBudgetError as exc:
        payload = {"error": "search budget exhausted", "visited": exc.nodes_explored,
                   "bounds": {"lower": exc.lower_bound, "upper": exc.upper_bound}}
    except CycleBudgetError as exc:
        payload = {"error": "cycle budget exhausted",
                   "cap": exc.cap, "max_length": exc.max_length}
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(ns, [payload], payload, fmt="json")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
