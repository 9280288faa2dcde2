"""approxk benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload matrix_corpus --seed 3 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` of this checkout.
Every time below is scaled to a nominal machine speed by the reference
kernel of `reference.py`, timed next to the work; raw wall times are
printed in the text lines above the JSON line.

With `--trace 0` the workload runs whole rounds until `--seconds` have
passed and the end-to-end metrics are printed:

- setup_s: importing approxk and building the first round's inputs; the
  median of this process and `SETUP_PROBES` fresh processes doing the same.
- ops_per_s: certified operations per second of call time.
- op_p50_ms, op_p90_ms: per-operation latency.  The p90 is interpolated; it
  is a measured tail only when at least ten operations lie beyond it, and
  the text lines say which, with the sample count.
- peak_rss_mb: the process's peak resident memory.
- ok_frac: 1 - failed/attempted.  A metric that can read 0 cannot carry a
  relative bound, so the failure share is reported inverted.

With `--trace 1` the rounds run untraced for a quarter of `--seconds`, then
the same rounds run under the span recorder (`spans.py`) and once more
untraced, and the kernel ladder (`ladder.py`) runs; the per-layer metrics
are per round.  Spans go to `perfbench/out/`, as does a result record with
the environment for every run.

Every operation's integer outputs and certificates are checked; a failure
prints `"correct": false` and the process exits 1.  Without `src/approxk` in
the checkout it exits 2 before printing a result.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# one BLAS thread: never more than nproc, and steadier next to other load
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_PROBES = 2

# (name, unit, better, bound); BENCHMARK.json mirrors these lists
# timing bounds are wide because scaled spreads still reach 8-10% on the
# workloads with few operations per run (see reference.py)
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
]

LAYERS = ("matcore", "subalg", "wedderburn", "funcalc", "loops", "ops",
          "boundary", "kprod", "cli", "scenarios")
CONSTRUCTIONS = ("iota_lift", "build_lift_v", "certify_lift", "boundary_class",
                 "boxplus", "sigma_witness", "whitehead_split",
                 "discretize_homotopy", "sigma_reconstruct", "uniformity_probe",
                 "check_delta_ideal_structure", "tensor_scale_ideal_structure")
# per-layer metric -> (span name, field); fields are summed per round
SPAN_METRICS = {
    "matcore.as_matrix.calls": ("matcore.as_matrix", "calls"),
    "matcore.op_norm.calls": ("matcore.op_norm", "calls"),
    "matcore.kron.self_s": ("matcore.kron", "self_s"),
    "subalg.nearest.calls": ("subalg.Subspace.nearest", "calls"),
    "subalg.intersect.self_s": ("subalg.intersect", "self_s"),
    "subalg.intersect.calls": ("subalg.intersect", "calls"),
    "subalg.amplify.calls": ("subalg.amplify", "calls"),
    "wedderburn.decompose.calls": ("wedderburn.decompose", "calls"),
    "wedderburn.k0_class.calls": ("wedderburn.k0_class", "calls"),
    "funcalc.riesz_idempotent.calls": ("funcalc.riesz_idempotent", "calls"),
    "loops.LoopElem.norm.self_s": ("loops.LoopElem.norm", "self_s"),
    "loops.LoopElem.norm.calls": ("loops.LoopElem.norm", "calls"),
    "loops.LoopElem.matmul.self_s": ("loops.LoopElem.matmul", "self_s"),
    "loops.LoopElem.inv.self_s": ("loops.LoopElem.inv", "self_s"),
    "loops.LoopElem.init.calls": ("loops.LoopElem.init", "calls"),
    "ops.block2.self_s": ("ops.block2", "self_s"),
    "kprod.boundary_product_check.total_s": ("kprod.boundary_product_check",
                                             "total_s"),
}
for _c in CONSTRUCTIONS:
    SPAN_METRICS[f"boundary.{_c}.total_s"] = (f"boundary.{_c}", "total_s")
    SPAN_METRICS[f"boundary.{_c}.calls"] = (f"boundary.{_c}", "calls")

UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_spec(kernel_names) -> list[tuple[str, str]]:
    spec = [(f"{layer}.self_s", "s") for layer in LAYERS]
    spec += [(f"{layer}.share", "%") for layer in LAYERS]
    spec += [(name, UNITS[field]) for name, (_, field) in SPAN_METRICS.items()]
    spec += [
        ("subalg.intersect.distinct_ratio", "ratio"),
        ("wedderburn.decompose.distinct_ratio", "ratio"),
        ("boundary.span_cache.hit_ratio", "ratio"),
        ("funcalc.riesz.schur_frac", "ratio"),
        ("boundary.whitehead_split.t_steps", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
    spec += [(name, "ms") for name in kernel_names]
    return spec


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{mod.__name__}_blas"] = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError):
            env[f"{mod.__name__}_blas"] = "unknown"
    return env


def run_rounds(wl, first, tally, seconds: float) -> int:
    """Whole rounds until `seconds` of wall time have passed."""
    start = time.perf_counter()
    inp, rounds = first, 0
    while True:
        wl.run(inp, tally)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds
        inp = wl.inputs(rounds)


def probe_setup(workload: str, seed: int) -> float:
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
    return float(res.stdout.split()[-1])


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(tally, scaled: list[float], setups: list[float]) -> dict:
    return {
        "ops_per_s": (tally.attempted - tally.failed) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": p90(scaled) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "setup_s": statistics.median(setups),
    }


def per_layer(rec, rounds: int, speed: float, overhead: float,
              kernels: dict) -> dict:
    """Span aggregates per round; span times are scaled by `speed`, the
    traced pass's ratio of scaled to wall time."""
    agg = rec.aggregate()
    per_round_s = speed / 1e9 / rounds

    def field(name: str, key: str) -> float:
        a = agg.get(name)
        if a is None:
            return 0.0
        if key == "calls":
            return a["calls"] / rounds
        return a[key.replace("_s", "_ns")] * per_round_s

    def distinct(name: str) -> float:
        a = agg.get(name)
        return len(set(a["attrs"])) / a["calls"] if a and a["calls"] else 0.0

    out = {}
    layer_self = {layer: 0 for layer in LAYERS}
    for name, a in agg.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += a["self_ns"]
    total = sum(layer_self.values()) or 1
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * per_round_s
    for layer in LAYERS:
        out[f"{layer}.share"] = 100.0 * layer_self[layer] / total
    for metric, (name, key) in SPAN_METRICS.items():
        out[metric] = field(name, key)
    out["subalg.intersect.distinct_ratio"] = distinct("subalg.intersect")
    out["wedderburn.decompose.distinct_ratio"] = distinct("wedderburn.decompose")
    calls, built = rec.span_cache_builds()
    out["boundary.span_cache.hit_ratio"] = (calls - built) / calls if calls else 0.0
    methods = agg.get("funcalc.riesz_idempotent", {"attrs": []})["attrs"]
    out["funcalc.riesz.schur_frac"] = (
        methods.count("schur") / len(methods) if methods else 0.0)
    steps = agg.get("boundary.whitehead_split", {"attrs": []})["attrs"]
    out["boundary.whitehead_split.t_steps"] = statistics.mean(steps) if steps else 0.0
    out["trace.spans"] = len(rec.spans) / rounds
    out["trace.overhead_frac"] = overhead
    out.update(kernels)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's setup time and exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "approxk")):
        print(f"error: no approxk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import reference
    import workloads  # imports numpy, scipy and approxk: part of set-up

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        first = wl.inputs(0)
        setup_wall = time.perf_counter() - t0
        setup_s = setup_wall * reference.factor("calls")
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            result = traced_run(wl, first, args)
        else:
            result = untraced_run(wl, first, args, setup_s)
    finally:
        wl.close()
    return report(args, *result)


def untraced_run(wl, first, args, setup_s: float):
    import workloads

    tally = workloads.Tally(wl.speed_kind)
    rounds = run_rounds(wl, first, tally, args.seconds)
    scaled = tally.finish()
    setups = [setup_s] + [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    metrics = end_to_end(tally, scaled, setups)
    units = {name: unit for name, unit, _, _ in END_TO_END}
    lat = tally.latencies
    notes = [
        f"setup_s samples {[round(x, 4) for x in setups]}",
        f"wall (unscaled): ops_per_s {(tally.attempted - tally.failed) / sum(lat):.6g}"
        f" op_p50_ms {statistics.median(lat) * 1e3:.6g}"
        f" op_p90_ms {p90(lat) * 1e3:.6g}",
    ]
    return tally, rounds, metrics, units, notes


def traced_run(wl, first, args):
    import ladder
    import spans
    import workloads

    # the first pass fixes the round count and warms lazy imports; the
    # traced pass is compared with the untraced pass that follows it
    tally = workloads.Tally(wl.speed_kind)
    rounds = run_rounds(wl, first, tally, args.seconds / 4)
    tally.finish()
    rec = spans.Recorder()
    traced = workloads.Tally(wl.speed_kind)
    inputs = [wl.inputs(r) for r in range(rounds)]
    rec.install()
    try:
        for inp in inputs:
            wl.run(inp, traced)
    finally:
        rec.uninstall()
    traced_s = sum(traced.finish())
    untraced = workloads.Tally(wl.speed_kind)
    for r in range(rounds):
        wl.run(wl.inputs(r), untraced)
    overhead = traced_s / sum(untraced.finish()) - 1.0
    kernels = ladder.kernels(args.seed)
    metrics = per_layer(rec, rounds, traced_s / sum(traced.latencies),
                        overhead, kernels)
    units = dict(per_layer_spec(ladder.NAMES))
    rec.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"),
              {"workload": args.workload, "seed": args.seed, "rounds": rounds})
    tally.absorb(traced)
    tally.absorb(untraced)
    return tally, rounds, metrics, units, []


def report(args, tally, rounds, metrics, units, notes) -> int:
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set drifted: {sorted(set(metrics) ^ set(units))}")
    import reference

    env = environment()
    env["reference_kernel"] = tally.speed.kind
    env["reference_kernel_ms"] = tally.speed.median_s() * 1e3
    env["reference_nominal_ms"] = tally.speed.nominal * 1e3
    lat = tally.latencies
    tail = p90(lat)
    beyond = sum(1 for x in lat if x > tail)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds, {tally.attempted} operations, {tally.failed} failed")
    if not args.trace:
        print(f"op_p90_ms rests on {len(lat)} operations, {beyond} beyond it"
              + ("" if beyond >= 10 else ": fewer than 10, so it is an estimate"))
    for label, xs in sorted(tally.by_label.items()):
        print(f"  op {label}: n={len(xs)} wall median "
              f"{statistics.median(xs) * 1e3:.3f} ms")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    correct = tally.failed == 0
    payload = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(payload, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=rounds,
                  env=env, notes=notes, failures=tally.failures)
    path = os.path.join(OUT, f"result-{args.workload}-trace{args.trace}"
                        f"-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(payload))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
