#!/usr/bin/env python3
"""The spancomplex benchmark: three closed-loop workloads, one operation in flight.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each
    python3 perfbench/run.py compare A.json B.json       # two result files

The benchmark imports ``spancomplex`` from ``src/`` of the checkout,
generates its inputs from ``--seed`` (see ``gen.py``) and writes them as
graph files under ``.perfbench/``.  A run then makes one untraced
warm-up pass over the inputs, checks every output against ``oracle.py``
and keeps the sha256 digest of each; timed passes follow for about
``--seconds`` (at least three), and each operation's latency is its
fastest over them.  An operation fails if it raises, exits non-zero, gives
output a check rejects, or gives output whose digest differs from its
warm-up digest.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` timed passes alternate between untraced and traced
(``spans.py``) and the last line holds the per-layer metrics, each the
median over traced passes.  Every run also writes a result file under
``.perfbench/results/`` recording the kernel backend, whether the
compiled extension imported, the Python version and the CPU count.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import gen
import oracle
from spans import Tracer, forests_under, layer_totals

WORKLOADS = ("suite", "enum", "ladder")
WORK_DIR = Path(".perfbench")
MIN_PASSES = 3  # untraced timed passes; each operation keeps its fastest
MAX_PROBED_CPUS = 8

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span name, field); see README.md for what each should move.
LAYER_FIELDS = (
    ("kernels.matrix_rank.s", "s", "kernels.matrix_rank", "s"),
    ("kernels.matrix_rank.self_s", "s", "kernels.matrix_rank", "self_s"),
    ("kernels.matrix_rank.calls", "count", "kernels.matrix_rank", "calls"),
    ("kernels.matrix_rank.cells", "count", "kernels.matrix_rank", "cells"),
    ("kernels.matrix_rank.rank_sum", "count", "kernels.matrix_rank", "rank_sum"),
    ("kernels.forest_masks.s", "s", "kernels.forest_masks", "s"),
    ("kernels.forest_masks.self_s", "s", "kernels.forest_masks", "self_s"),
    ("kernels.forest_masks.calls", "count", "kernels.forest_masks", "calls"),
    ("kernels.forest_masks.forests", "count", "kernels.forest_masks", "forests"),
    ("homology.graded_faces.s", "s", "homology.graded_faces", "s"),
    ("homology.graded_faces.faces", "count", "homology.graded_faces", "faces"),
    ("homology.boundary_matrix.s", "s", "homology.boundary_matrix", "s"),
    ("homology.boundary_matrix.cells", "count", "homology.boundary_matrix", "cells"),
    ("homology.boundary_matrix.nonzeros", "count", "homology.boundary_matrix", "nonzeros"),
    ("homology.betti_from_faces.self_s", "s", "homology.betti_from_faces", "self_s"),
    ("fvector.f_vector_closed_form.s", "s", "fvector.f_vector_closed_form", "s"),
    ("fvector.closed_form_tail.s", "s", "fvector.closed_form_tail", "s"),
    ("fvector.f_vector_bruteforce.s", "s", "fvector.f_vector_bruteforce", "s"),
    ("spanning.enumerate_spanning_trees_generic.s", "s", "spanning.enumerate_spanning_trees_generic", "s"),
    ("spanning.enumerate_spanning_trees_generic.facets", "count", "spanning.enumerate_spanning_trees_generic", "facets"),
    ("spanning.enumerate_spanning_trees_layout.s", "s", "spanning.enumerate_spanning_trees_layout", "s"),
    ("ideal.minimal_vertex_covers_generic.s", "s", "ideal.minimal_vertex_covers_generic", "s"),
    ("ideal.minimal_vertex_covers_generic.covers", "count", "ideal.minimal_vertex_covers_generic", "covers"),
    ("ideal.minimal_vertex_covers_closed_form.s", "s", "ideal.minimal_vertex_covers_closed_form", "s"),
    ("ideal.facet_ideal.s", "s", "ideal.facet_ideal", "s"),
    ("multigraph.load_graph_file.s", "s", "multigraph.load_graph_file", "s"),
    ("multigraph.multigraph_from_json.s", "s", "multigraph.multigraph_from_json", "s"),
    ("multigraph.recognize_unicyclic.s", "s", "multigraph.recognize_unicyclic", "s"),
    ("analysis.run_analyze.self_s", "s", "analysis.run_analyze", "self_s"),
    ("analysis.to_json_dict.s", "s", "analysis.to_json_dict", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)
DERIVED_LAYER_METRICS = (
    ("fvector.self_s", "s"),
    ("kernels.rank_fallbacks", "count"),
    ("spanning.useful_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)


class OpError(Exception):
    """An operation exited non-zero."""


class Op(NamedTuple):
    """One operation: a graph file and the program call made on it."""

    label: str
    run: Callable[[], str]  # returns the output text
    check: Callable[[str], list]  # output text -> problems found


def import_program(root: Path):
    """Import ``spancomplex`` from ``src/`` of the checkout, or return None."""
    src = root / "src"
    if not (src / "spancomplex" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import spancomplex
    import spancomplex.cli  # noqa: F401  (not imported by the package itself)

    if Path(spancomplex.__file__).resolve().parent != (src / "spancomplex").resolve():
        return None
    return spancomplex


def call_cli(sc, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sc.cli.main(argv)
    if code != 0:
        raise OpError(f"exit code {code}: {err.getvalue().strip()[:300]}")
    return out.getvalue()


def ladder_route(sc, path) -> str:
    """The closed-form counting route, its results as canonical JSON text."""
    mg, fv, sp = sc.multigraph, sc.fvector, sc.spanning
    layout = mg.recognize_unicyclic(mg.load_graph_file(path))
    f = fv.f_vector_closed_form(layout)
    result = {
        "layout": {
            "n": layout.n,
            "m": layout.m,
            "r_prime": layout.r_prime,
            "r_dprime": layout.r_dprime,
            "v": layout.v,
        },
        "dimension": fv.dimension(layout),
        "count": sp.count_spanning_trees_layout(layout),
        "f_vector": list(f.counts),
        "tail": fv.closed_form_tail(layout),
        "euler": fv.euler_characteristic(f),
    }
    return json.dumps(result, sort_keys=True)


def make_ops(sc, workload: str, graphs, input_dir: Path) -> list[Op]:
    ops = []
    for g in graphs:
        path = str(input_dir / g.name)
        if workload == "suite":
            ops.append(Op(f"analyze {g.name}",
                          lambda p=path: call_cli(sc, ["analyze", p, "--json"]),
                          lambda out, g=g: oracle.check_analyze(g.shape, g.text, out)))
        elif workload == "enum":
            ops.append(Op(f"facets {g.name}",
                          lambda p=path: call_cli(sc, ["facets", p, "--json"]),
                          lambda out, g=g: oracle.check_facets(g.shape, g.text, out)))
            ops.append(Op(f"covers {g.name}",
                          lambda p=path: call_cli(sc, ["covers", p, "--json"]),
                          lambda out, g=g: oracle.check_covers(g.shape, g.text, out)))
        else:
            ops.append(Op(f"ladder {g.name}",
                          lambda p=path: ladder_route(sc, p),
                          lambda out, g=g: oracle.check_ladder(g.shape, json.loads(out))))
    return ops


def write_inputs(workload: str, seed: int, input_dir: Path):
    graphs = gen.GENERATORS[workload](seed)
    shutil.rmtree(input_dir, ignore_errors=True)
    input_dir.mkdir(parents=True)
    for g in graphs:
        (input_dir / g.name).write_text(g.text, encoding="utf-8")
    return graphs


class Pass(NamedTuple):
    latencies: list[float]  # one per operation, in order
    wall: float  # the whole pass, checks left out


def run_pass(ops, digests, failures, tracer=None) -> Pass:
    """Run every operation once; record latencies and failures.

    The first pass checks each output and stores its digest; later passes
    compare digests.
    """
    latencies = []
    check_s = 0.0
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op += 1
        t = time.perf_counter()
        try:
            out = op.run()
            problem = None
        except (Exception, SystemExit) as exc:
            out, problem = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        if out is not None:
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if k not in digests:
                digests[k] = digest
                t = time.perf_counter()
                try:
                    problems = op.check(out)
                except Exception as exc:  # a malformed output is a failed check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                check_s += time.perf_counter() - t
                problem = "; ".join(problems) or None
            elif digests[k] != digest:
                problem = "stdout digest differs from the warm-up pass"
        if problem is not None:
            failures.append(f"{op.label}: {problem}"[:500])
    return Pass(latencies, time.perf_counter() - start - check_s)


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)], len(sorted_values) - int(k) - 1


def environment(sc) -> dict:
    compiled = sc.kernels._corex is not None
    return {
        "backend": sc.kernels.BACKEND,
        "corex_imported": compiled,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "note": "" if compiled else "pure Python kernels: the compiled extension is not importable",
    }


def setup_once(workload: str, seed: int, input_dir: Path) -> tuple[float, list]:
    """Import the program in a fresh interpreter, then generate and write the inputs.

    A run sets up once before its warm-up pass and again after every
    timed pass, so the samples of ``setup_s`` spread over the run the way
    the pass samples do.
    """
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import spancomplex, spancomplex.cli"],
                   env={**os.environ, "PYTHONPATH": str(Path.cwd() / "src")},
                   check=True, timeout=120)
    graphs = write_inputs(workload, seed, input_dir)
    return time.perf_counter() - t, graphs


def run_workload(args, sc) -> int:
    input_dir = WORK_DIR / f"inputs-{args.workload}-{os.getpid()}"
    try:
        setup_time, graphs = setup_once(args.workload, args.seed, input_dir)
        setups = [setup_time]
        ops = make_ops(sc, args.workload, graphs, input_dir)
        digests: dict[int, str] = {}
        failures: list[str] = []
        warmup = run_pass(ops, digests, failures)
        passes = {False: [], True: []}  # traced? -> passes
        tracer = Tracer() if args.trace else None
        cpus = sorted(os.sched_getaffinity(0))[:MAX_PROBED_CPUS]
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes[False]) > len(passes[True])
            os.sched_setaffinity(0, {quietest_cpu(cpus)})
            if traced:
                tracer.install()
                try:
                    passes[True].append(run_pass(ops, digests, failures, tracer))
                finally:
                    tracer.uninstall()
            else:
                passes[False].append(run_pass(ops, digests, failures))
            setups.append(setup_once(args.workload, args.seed, input_dir)[0])
            # stop before a pass like the last one would overrun --seconds
            next_end = time.perf_counter() - start + passes[traced][-1].wall
            if (next_end > args.seconds
                    and len(passes[False]) >= (2 if args.trace else MIN_PASSES)
                    and (passes[True] or not args.trace)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    untraced = passes[False]
    attempted = len(ops) * (1 + len(untraced) + len(passes[True]))
    best_by_op = dict(zip((op.label for op in ops), best_latencies(untraced)))
    best = sorted(best_by_op.values())
    setup_s = statistics.median(setups)
    p95, beyond95 = percentile(best, 95)
    report = [
        ("setup_s", setup_s, "s", f"fresh-interpreter import + inputs, median of {len(setups)}"),
        ("wall_s", sum(best), "s", f"{len(ops)} operations, best of {len(untraced)} passes each"),
        ("op_p50_ms", statistics.median(best) * 1e3, "ms", f"n={len(best)}"),
        ("op_p95_ms", p95 * 1e3 if beyond95 >= 10 else None, "ms",
         f"n={len(best)}" + ("" if beyond95 >= 10 else f": {beyond95} beyond it, not reported")),
        ("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory of this process"),
        ("failed_ratio", len(failures) / attempted, "ratio", f"{len(failures)} of {attempted} operations"),
        ("warmup_s", warmup.wall, "s", "untraced warm-up pass that checks every output"),
    ]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(sc),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {name: {"value": v, "unit": u} for name, v, u, _ in report if v is not None},
        "samples": {
            "setup_s": setups,
            "pass_wall_s": [p.wall for p in untraced],
            "traced_pass_wall_s": [p.wall for p in passes[True]],
            "best_latency_s": best_by_op,
        },
    }

    env = result["environment"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"environment: backend={env['backend']} corex_imported={env['corex_imported']} "
          f"python={env['python']} nproc={env['nproc']} {env['note']}")
    for name, value, unit, note in report:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>12} {unit:<5} {note}")
    for message in failures[:5]:
        print(f"  FAILED {message}")

    if args.trace:
        metrics, layers, top = layer_metrics(tracer, passes)
        result["layers"] = layers
        result["largest_self_time"] = top
        trace_path = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
        print(f"per-layer metrics (median over {len(tracer.passes)} traced passes; "
              f"spans in {trace_path}):")
        for name, m in metrics.items():
            print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
        print("largest self times: " + ", ".join(f"{n} {s:.4g} s" for n, s in top))
    else:
        metrics = {name: result["end_to_end"][name] for name, _ in END_TO_END}
    result["metrics"] = metrics

    results_path = WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"result file: {results_path}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def quietest_cpu(cpus) -> int:
    """The CPU on which a short reference loop runs fastest right now."""
    best = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t = time.perf_counter()
            total = 0
            for i in range(20_000):
                total += i
            best[cpu] = min(best.get(cpu, float("inf")), time.perf_counter() - t)
    return min(cpus, key=best.__getitem__)


def best_latencies(passes) -> list[float]:
    """Each operation's fastest latency over the given passes.

    On a shared 2-vCPU virtual machine the same pure Python loop was
    measured to run up to 1.65x slower for stretches of seconds to
    minutes, often on one vCPU at a time, as other tenants load the host.
    Each timed pass runs on the CPU that is quietest when it starts, and
    passes are seconds apart, so an operation's fastest pass is one that
    ran at full speed; a median of a few passes keeps the slow stretches.
    """
    return [min(lat) for lat in zip(*(p.latencies for p in passes))]


def layer_metrics(tracer, passes):
    """Per-layer metrics: each the median over traced passes."""
    per_pass = []
    for spans in tracer.passes:
        totals = layer_totals(spans)
        values = {}
        for metric, unit, name, field in LAYER_FIELDS:
            values[metric] = totals.get(name, {}).get(field, 0)
        values["fvector.self_s"] = sum(t["self_s"] for n, t in totals.items() if n.startswith("fvector."))
        forests = forests_under(spans, "spanning.enumerate_spanning_trees_generic")
        trees = totals.get("spanning.enumerate_spanning_trees_generic", {}).get("facets", 0)
        values["spanning.useful_ratio"] = trees / forests if forests else 0.0
        per_pass.append((values, totals))
    units = {m: u for m, u, _, _ in LAYER_FIELDS} | dict(DERIVED_LAYER_METRICS)
    metrics = {}
    for metric in units:
        if metric == "kernels.rank_fallbacks":
            value = tracer.rank_fallbacks / len(tracer.passes)
        elif metric == "trace_overhead_ratio":
            value = sum(best_latencies(passes[True])) / sum(best_latencies(passes[False]))
        else:
            value = statistics.median(v[metric] for v, _ in per_pass)
        metrics[metric] = {"value": value, "unit": units[metric]}
    layers = per_pass[0][1]
    top = sorted(((n, t["self_s"]) for n, t in layers.items()), key=lambda x: -x[1])[:5]
    return metrics, layers, top


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def compare(paths) -> int:
    """Print the end-to-end metrics of two result files side by side."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    pairs = {
        "kernel backend": (a["environment"]["backend"], b["environment"]["backend"]),
        "workload": (a["workload"], b["workload"]),
    }
    for what, (va, vb) in pairs.items():
        if va != vb:
            print(f"refusing to compare: {what} {va!r} vs {vb!r}", file=sys.stderr)
            return 2
    print(f"{'metric':<14} {'A':>12} {'B':>12} {'B/A':>8}   ({a['workload']} vs {b['workload']})")
    for name, ma in a["end_to_end"].items():
        mb = b["end_to_end"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:<14} {ma['value']:>12.6g} {mb['value']:>12.6g} {ratio:>8.3f}   {ma['unit']}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sc = import_program(Path.cwd())
    if sc is None:
        print("error: run from the root of a spancomplex checkout (src/spancomplex not found)",
              file=sys.stderr)
        return 2
    return run_workload(args, sc)


if __name__ == "__main__":
    sys.exit(main())
