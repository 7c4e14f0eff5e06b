"""Benchmark of genuslab's three pipelines, timed from outside the program.

    python3 perfbench/run.py --workload {exact,supercritical,fragile,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ and nowhere else.  One process runs one workload as a
closed loop with a single caller: whole rounds of trials, as many as end
closest to S seconds.  It prints each metric with its unit and,
as the last line, a JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
trial runs once untraced and once traced, and the metrics are the per-layer
ones plus the tracing overhead.  Times are scaled to the host's reference
speed by speed.py; the unscaled wall times are printed and recorded next
to them.  Exit code 1 means a check failed, 2 that
the program could not be imported.  A record of the run, with the spans of
a traced run, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

# per-layer metric -> (unit, span name, field of spans.summarize)
PER_LAYER = {
    "random_models.gnm_s": ("s", "random_models.gnm", "self_s"),
    "graphs.giant_component_s": ("s", "graphs.giant_component", "self_s"),
    "graphs.two_core_s": ("s", "graphs.two_core", "self_s"),
    "graphs.two_core_calls": ("count", "graphs.two_core", "calls"),
    "census.count_census_cycles.self_s": ("s", "census.count_census_cycles", "self_s"),
    "census.classify_cycle_neighborhood_s": ("s", "census.classify_cycle_neighborhood", "self_s"),
    "census.cycles_classified": ("count", "census.classify_cycle_neighborhood", "calls"),
    "census.cycles_passed": ("count", "census.count_census_cycles", "count"),
    "graphs.enumerate_cycles_s": ("s", "graphs.enumerate_cycles", "self_s"),
    "graphs.enumerate_cycles_calls": ("count", "graphs.enumerate_cycles", "calls"),
    "graphs.cycles_enumerated": ("count", "graphs.enumerate_cycles", "count"),
    "embeddings.genus_lower_bound_short_cycles.self_s": ("s", "embeddings.genus_lower_bound_short_cycles", "self_s"),
    "random_models.add_uniform_edges_s": ("s", "random_models.add_uniform_edges", "self_s"),
    "fragile.decompose_into_pieces_s": ("s", "fragile.decompose_into_pieces", "self_s"),
    "fragile.select_cores_s": ("s", "fragile.select_cores", "self_s"),
    "fragile.count_good_edges_s": ("s", "fragile.count_good_edges", "self_s"),
    "fragile.build_quotient_s": ("s", "fragile.build_quotient", "self_s"),
    "fragile.quotient_edges": ("count", "fragile.build_quotient", "count"),
    "embeddings.exact_genus_s": ("s", "embeddings.exact_genus", "self_s"),
    "embeddings.search_nodes": ("count", "embeddings.exact_genus", "count"),
}
LAYER_UNITS = {name: unit for name, (unit, _, _) in PER_LAYER.items()} | {
    "embeddings.search_nodes.planar": "count",
    "embeddings.search_nodes.attained": "count",
    "embeddings.search_nodes.exhaustive": "count",
    "embeddings.search_nodes_per_s": "1/s",
    "trace.overhead_s": "s",
}


def import_program():
    """Import genuslab from this checkout's src/, or exit with code 2."""
    if not (SRC / "genuslab" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import genuslab

    if Path(genuslab.__file__).resolve().parent != SRC / "genuslab":
        print(f"perfbench: imported genuslab from {genuslab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return genuslab


def environment(nproc: int, cpu: int) -> dict:
    from genuslab import _genus_search

    return {
        "search_backend": "numba" if _genus_search.HAVE_NUMBA else "python",
        "python": platform.python_version(),
        **{dist: metadata.version(dist) for dist in ("numpy", "scipy", "networkx")},
        "nproc": nproc,
        "pinned_cpu": cpu,
    }


def setup_seconds(workload: str, seed: int, clock: speed.Clock) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until it has imported genuslab
    and built the workload's inputs, once per setup probe: (scaled to
    reference speed by the loop readings just before and just after it,
    wall)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    scaled, walls = [], []
    before = clock.read()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = perf_counter() - t0
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed with code {proc.returncode}")
        after = clock.read()
        scaled.append(wall * clock.scale(before, after))
        walls.append(wall)
        before = after
    return scaled, walls


def run_trial(workload, i: int, clock: speed.Clock):
    """Run trial i's operations; returns (the clock's indices of them,
    outputs, errors), with None in outputs where an operation raised."""
    ops, outputs, errors = [], [], []
    for op in workload.operations(i):
        out, k = clock.timed(op)
        ops.append(k)
        if isinstance(out, Exception):  # a failed operation is counted, the run goes on
            errors.append("".join(traceback.format_exception(out, limit=3)))
            out = None
        outputs.append(out)
    return ops, outputs, errors


def measure(workload, seconds: float, traced: bool, clock: speed.Clock) -> dict:
    """Whole rounds of trials, as many as end closest to `seconds`."""
    from spans import Tracer, summarize

    tracer = Tracer()
    ops = {False: [], True: []}
    trials, errors, span_log = [], [], []
    start = perf_counter()
    rounds = 0
    while True:
        for i in range(workload.round_size):
            # a traced trial runs next to the untraced one on the same input,
            # first on every other trial, so warm-up does not bias the overhead
            modes = ((False, True) if (rounds + i) % 2 == 0 else (True, False)) if traced else (False,)
            for mode in modes:
                if mode:
                    with tracer.installed():
                        trial_ops, outputs, errs = run_trial(workload, i, clock)
                    spans = tracer.take()
                    summary = summarize(spans)
                    span_log.append({"round": rounds, "trial": i, "spans": spans})
                else:
                    trial_ops, outputs, errs = run_trial(workload, i, clock)
                    summary = None
                ops[mode].append(trial_ops)
                trials.append((i, outputs, summary))
                errors += errs
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = {mode: [sum(clock.seconds(k) for k in trial) for trial in trials_ops]
             for mode, trials_ops in ops.items()}
    walls = {mode: [sum(clock.wall(k) for k in trial) for trial in trials_ops]
             for mode, trials_ops in ops.items()}
    return {"times": times, "walls": walls, "trials": trials, "errors": errors, "spans": span_log,
            "rounds": rounds, "peak_rss_mb": peak_kb / 1024.0}


def layer_metrics(workload, trials, times) -> dict[str, float]:
    """Per-layer metrics over the traced trials: seconds are medians of a
    trial's self time, counts are means per trial (every round has the same
    inputs, so they repeat exactly)."""
    per_trial = []
    for _, outputs, summary in trials:
        if summary is None:
            continue
        row = dict.fromkeys(LAYER_UNITS, 0)
        row.update({name: summary.get(span, {}).get(field, 0) for name, (_, span, field) in PER_LAYER.items()})
        row.update(workload.layer_extras(outputs))
        exact_s = row["embeddings.exact_genus_s"]
        row["embeddings.search_nodes_per_s"] = row["embeddings.search_nodes"] / exact_s if exact_s else 0.0
        per_trial.append(row)
    out = {}
    for name in per_trial[0]:
        values = [row[name] for row in per_trial]
        out[name] = statistics.median(values) if LAYER_UNITS[name] != "count" else sum(values) / len(values)
    out["trace.overhead_s"] = statistics.median(times[True]) - statistics.median(times[False])
    return out


def run_one(args) -> int:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    clock = speed.Clock()
    setup, setup_wall = ([], []) if args.trace else setup_seconds(args.workload, args.seed, clock)
    workload = cls(args.seed)
    env = environment(args.nproc, args.cpu)
    result = measure(workload, args.seconds, bool(args.trace), clock)
    failures = workload.check(result["trials"])
    attempted = sum(len(outputs) for _, outputs, _ in result["trials"])
    failed = sum(out is None for _, outputs, _ in result["trials"] for out in outputs)

    if args.trace:
        values = layer_metrics(workload, result["trials"], result["times"])
        units = LAYER_UNITS
    else:
        values = {
            "trial_s.p50": statistics.median(result["times"][False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"trial_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("ran " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"rounds {result['rounds']}  trials {len(result['trials'])}  attempted {attempted}  failed {failed}")
    walls = result["walls"][False]
    print(f"wall time, unscaled: trial p50 {statistics.median(walls):.6g} s"
          + (f"  setup p50 {statistics.median(setup_wall):.6g} s" if setup_wall else "")
          + f"  speed loop p50 {statistics.median(clock.readings) * 1000:.4g} ms"
          + f" (reference {speed.REF_LOOP_S * 1000:.4g} ms)")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    for line in failures:
        print(f"CHECK FAILED {line}")
    for err in result["errors"][:3]:
        print(f"OPERATION FAILED {err}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_s": setup, "setup_wall_s": setup_wall,
        "trial_s": result["times"][False], "traced_trial_s": result["times"][True],
        "trial_wall_s": result["walls"][False], "traced_trial_wall_s": result["walls"][True],
        "speed_loop_s": clock.readings, "ref_loop_s": speed.REF_LOOP_S,
        "attempted": attempted, "failed": failed, "check_failures": failures,
        "errors": result["errors"], "metrics": metrics, "spans": result["spans"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record) + "\n")

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return max(code, 1)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["exact", "supercritical", "fragile", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # pin before anything is imported or started, so that the program, the
    # speed loop and every setup probe run on the same CPU
    args.nproc = len(os.sched_getaffinity(0))
    args.cpu = speed.pin_to_one_cpu()
    import_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
