"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gnmf_sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with nothing wrapped.  ``--trace 1`` runs half the time untraced and half
with every layer entry point wrapped (see ``tracing.py``) and reports the
per-layer metrics, including the tracing overhead.  Either way the outputs
are checked against the reference interpreter, a report with the host
fingerprint is written under ``perfbench/out/``, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: exit codes besides 0
EXIT_NO_PROGRAM = 2
EXIT_UNSTABLE = 3
EXIT_UNTRACED_LAYER = 4
EXIT_INCOMPLETE = 5


def p50(values):
    return statistics.median(values)


def p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def host_fingerprint() -> dict:
    import numpy
    import scipy

    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def src_lines() -> dict:
    """Lines of Python per top-level package under src/repro, and in all."""
    base = ROOT / "src" / "repro"
    counts = {}
    total = 0
    for path in sorted(base.rglob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        rel = path.relative_to(base).parts
        if len(rel) > 1:
            counts[f"{rel[0]}.src_lines"] = counts.get(f"{rel[0]}.src_lines", 0) + lines
    counts["repro.src_lines"] = total
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- end-to-end ---------------------------------------------------------------


def timed_setups(workload, seed: int, count: int, keep: bool = False):
    """Time *count* set-ups; close each state except, with *keep*, the last,
    which is returned with the times."""
    times, state = [], None
    for i in range(count):
        start = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - start)
        if not (keep and i == count - 1):
            workload.close(state)
    return state, times


def setups_before(spec) -> int:
    """Set-ups timed before the timed phase (the last one is kept for it);
    the rest of ``setup_repeats`` follow it, so the median of the set-up
    times samples the host at two moments of the run, not one."""
    return spec["setup_repeats"] // 2 + 1


def batch_end_to_end(workload, args, spec):
    state, setup_times = timed_setups(workload, args.seed, setups_before(spec), keep=True)
    phase = workload.run(state, args.seconds)
    rss = peak_rss_mb()
    check = workload.check(state)
    workload.close(state)
    setup_times += timed_setups(
        workload, args.seed, spec["setup_repeats"] - setups_before(spec)
    )[1]
    walls = [op.wall_seconds * 1e3 for op in phase.ops]
    quiet = [op.wall_seconds * 1e3 for op in phase.quiet_ops()]
    n = len(phase.ops)
    metrics = {
        # The median lies between the host's fast and slow speeds, so it
        # follows the share of the run the host was slow unless it is taken
        # over quiet ops; the 95th percentile lies in the slow tail either way.
        "op_p50_ms": p50(quiet),
        "op_p95_ms": p95(walls),
        "ops_per_s": n / phase.seconds,
        "modeled_s_per_op": sum(op.modeled_seconds for op in phase.ops) / n,
        "comm_bytes_per_op": sum(op.comm_bytes for op in phase.ops) / n,
        "setup_s": p50(setup_times),
        "peak_rss_mb": rss,
    }
    failed = 0 if check.correct else n
    extra = {"op_samples": n, "op_p50_samples": len(quiet),
             "op_p50_ms_all_ops": p50(walls), "setup_times_s": setup_times,
             "error_rate": failed / n}
    return metrics, check, n, failed, extra


def serve_outcomes(requests, check) -> dict:
    """Failed ops by kind; together they make the error rate."""
    counts = {"shed": 0, "timed_out": 0, "failed": 0}
    for request in requests:
        if request.outcome in counts:
            counts[request.outcome] += 1
    counts["wrong_answers"] = check.wrong
    return counts


def open_loop_unstable(phase) -> bool:
    """True when the service did not keep up with the open loop: requests
    in flight kept growing (the last quarter's mean backlog exceeds twice
    the first quarter's plus five), or the admission queue overflowed into
    shed or timed-out requests."""
    if any(r.outcome in ("shed", "timed_out") for r in phase.requests):
        return True
    if len(phase.backlog) < 8:
        return False
    end = phase.backlog[-1][0]
    first = [b for t, b in phase.backlog if t < end / 4]
    last = [b for t, b in phase.backlog if t >= 3 * end / 4]
    if not first or not last:
        return False
    return statistics.fmean(last) > 2 * statistics.fmean(first) + 5


def serve_timed(workload, state, seconds, spec):
    """``rounds`` rounds of an open loop followed by a saturation phase;
    returns the open-loop phases and the saturation phases.  Alternating
    spreads each phase over the whole run, so a burst of host noise does
    not fall on one phase alone.  Exits on an unstable open loop."""
    rounds = spec["rounds"]
    open_seconds = seconds * spec["open_loop_share"] / rounds
    sat_seconds = seconds / rounds - open_seconds
    opens, sats = [], []
    for _ in range(rounds):
        open_phase = workload.open_loop(state, open_seconds)
        if open_loop_unstable(open_phase):
            print(
                "perfbench: invalid run: the service did not keep up with the "
                f"open loop at {spec['arrival_rate_per_s']} requests/s (backlog "
                "kept growing or requests were shed); latencies not reported",
                file=sys.stderr,
            )
            workload.close(state)
            sys.exit(EXIT_UNSTABLE)
        opens.append(open_phase)
        sats.append(workload.saturate(state, sat_seconds, spec["saturation_clients"]))
    return opens, sats


def requests_of(phases):
    return [r for phase in phases for r in phase.requests]


def serve_latencies(requests):
    return [(r.done_at - r.due) * 1e3 for r in requests if r.outcome == "ok"]


def open_loop_health(opens) -> dict:
    requests = requests_of(opens)
    return {
        "loadgen.late_p95_ms": p95([r.late * 1e3 for r in requests]),
        "loadgen.backlog_max": max(b for phase in opens for _, b in phase.backlog),
    }


def serve_end_to_end(workload, args, spec):
    state, setup_times = timed_setups(workload, args.seed, setups_before(spec), keep=True)
    workload.warm_up(state)
    opens, sats = serve_timed(workload, state, args.seconds, spec["serve_mixed"])
    rss = peak_rss_mb()
    workload.close(state)
    setup_times += timed_setups(
        workload, args.seed, spec["setup_repeats"] - setups_before(spec)
    )[1]
    open_requests, sat_requests = requests_of(opens), requests_of(sats)
    requests = open_requests + sat_requests
    check = workload.check(state, requests)
    rounds = [serve_latencies(phase.requests) for phase in opens]
    latencies = [x for round_latencies in rounds for x in round_latencies]
    n_open = len(open_requests)
    outcomes = serve_outcomes(requests, check)
    failed = sum(outcomes.values())
    metrics = {
        "op_p50_ms": p50(latencies),
        "op_p95_ms": p95(latencies),
        "ops_per_s": sum(r.outcome == "ok" for r in sat_requests)
        / sum(phase.seconds for phase in sats),
        "modeled_s_per_op": sum(r.modeled_seconds for r in open_requests) / n_open,
        "comm_bytes_per_op": sum(r.comm_bytes for r in open_requests) / n_open,
        "setup_s": p50(setup_times),
        "peak_rss_mb": rss,
    }
    extra = {
        "op_samples": len(latencies),
        "op_samples_per_round": [len(r) for r in rounds],
        "saturation_requests": len(sat_requests),
        "setup_times_s": setup_times,
        "outcomes": outcomes,
        "error_rate": failed / len(requests),
        "result_cache_hit_share": sum(
            r.outcome == "ok" and r.from_cache for r in open_requests
        ) / n_open,
        **open_loop_health(opens),
    }
    return metrics, check, len(requests), failed, extra


# -- per-layer ----------------------------------------------------------------


def layer_metrics(tracer, n, cache_before, cache_after, results):
    """Per-layer metrics from the traced spans and the ops' results.

    *n* is the number of ops the spans cover, *results* the
    ExecutionResults those ops executed (cache hits excluded), and
    *cache_before/after* the slice-cache stats around the traced phase.
    """
    summary = tracer.summary()

    def total(prefix, field="seconds", exact=False):
        return sum(
            entry[field] for name, entry in summary.items()
            if (name == prefix if exact else name.startswith(prefix))
        )

    misses = tracer.plan_cache_misses
    lookups = tracer.plan_cache_hits + misses
    per_miss = (lambda seconds: seconds * 1e3 / misses) if misses else (lambda s: 0.0)
    kernel_seconds = total("blocks.kernels.")
    kernel_flops = sum(tracer.kernel_flops.values())
    errors = [
        abs(r.profile.seconds_error) for r in results
        if r.profile is not None and r.profile.seconds_error is not None
    ]
    stages = [s for r in results for s in r.metrics.stages]
    hits = cache_after["hits"] - cache_before["hits"]
    slice_lookups = hits + cache_after["misses"] - cache_before["misses"]
    return {
        "core.plan_cache.hit_ratio": tracer.plan_cache_hits / lookups if lookups else 0.0,
        "core.plan_cache.lookup_ms_per_op": (
            total("core.plan_cache.fingerprint") + total("core.plan_cache.get")
        ) * 1e3 / n,
        "core.cfg.plan_ms_per_miss": per_miss(total("core.cfg.plan", "self_seconds")),
        "core.optimizer.search_ms_per_miss": per_miss(total("core.optimizer.search")),
        "core.physical.lower_ms_per_miss": per_miss(total("core.physical.lower", "self_seconds")),
        "core.passes.ms_per_miss": per_miss(total("core.passes.run", "self_seconds")),
        "core.cost.pred_rel_err": p50(errors) if errors else 0.0,
        "core.physical.units_per_op": sum(len(r.physical_plan.ops) for r in results) / n,
        "core.physical.waves_per_op": sum(len(r.physical_plan.waves()) for r in results) / n,
        "core.physical.dispatch_self_ms_per_op": total("core.physical.run", "self_seconds") * 1e3 / n,
        "cluster.slice_cache.get_ms_per_op": total("cluster.slice_cache.get") * 1e3 / n,
        "cluster.slice_cache.hit_ratio": hits / slice_lookups if slice_lookups else 0.0,
        "cluster.slice_cache.mb": cache_after["bytes"] / 2**20,
        "matrix.as_single_block_ms_per_op": total("matrix.as_single_block") * 1e3 / n,
        "matrix.as_single_block_calls_per_op": total("matrix.as_single_block", "calls") / n,
        "matrix.to_scipy_ms_per_op": total("matrix.to_scipy") * 1e3 / n,
        "core.cfo.self_ms_per_op": total("core.cfo.execute", "self_seconds") * 1e3 / n,
        "operators.self_ms_per_op": total("operators.", "self_seconds") * 1e3 / n,
        "core.fused_eval.self_ms_per_op": total("core.fused_eval.", "self_seconds") * 1e3 / n,
        "blocks.kernels.ms_per_op": kernel_seconds * 1e3 / n,
        "blocks.kernels.calls_per_op": total("blocks.kernels.", "calls") / n,
        "blocks.kernels.matmul_ms_per_op": total("blocks.kernels.matmul") * 1e3 / n,
        "blocks.kernels.sddmm_ms_per_op": total("blocks.kernels.sddmm") * 1e3 / n,
        "blocks.kernels.elementwise_ms_per_op": (
            total("blocks.kernels.unary") + total("blocks.kernels.binary")
        ) * 1e3 / n,
        # aggregate, aggregate_combine and the CFO's partial-product sums
        "blocks.kernels.aggregate_ms_per_op": total("blocks.kernels.aggregate") * 1e3 / n,
        "blocks.kernels.modeled_gflop_per_op": kernel_flops / 1e9 / n,
        "blocks.kernels.achieved_gflops": (
            kernel_flops / 1e9 / kernel_seconds if kernel_seconds else 0.0
        ),
        "cluster.stages_per_op": len(stages) / n,
        "cluster.tasks_per_op": sum(s.num_tasks for s in stages) / n,
        "cluster.compute_stage_wall_ms_per_op": sum(
            s.wall_seconds for s in stages if s.name.endswith(":compute")
        ) * 1e3 / n,
        "cluster.aggregate_stage_wall_ms_per_op": sum(
            s.wall_seconds for s in stages
            if s.name.endswith((":aggregate", ":final-agg"))
        ) * 1e3 / n,
        "cluster.metrics_ms_per_op": total("cluster.metrics.") * 1e3 / n,
        "execution.self_ms_per_op": total("execution.execute", "self_seconds", exact=True) * 1e3 / n,
        "execution.lock_wait_ms_per_op": total("execution.lock_wait") * 1e3 / n,
        "obs.ms_per_op": (
            total("obs.build_profile") + total("obs.attach_unit_spans")
            + total("obs.emit_telemetry")
        ) * 1e3 / n,
    }


def self_check(tracer, required) -> list:
    """Wrapped functions the workload must reach that recorded no call."""
    return sorted(set(required) - set(tracer.summary()))


def batch_traced(workload, args, spec, tracer):
    half = args.seconds / 2
    state = workload.setup(args.seed)
    untraced = workload.run(state, half)
    untraced_check = workload.check(state)
    workload.close(state)

    tracer.install()
    tracer.op = "setup"
    state = workload.setup(args.seed)
    tracer.watch_lock(state.engine)
    phase = workload.run(state, half, tracer=tracer)
    tracer.uninstall()
    check = workload.check(state)
    cache = state.engine.slice_cache.stats()
    workload.close(state)

    results = [state.first_result] + [op.result for op in phase.ops]
    n = len(results)
    metrics = layer_metrics(tracer, n, {"hits": 0, "misses": 0}, cache, results)
    metrics["trace.overhead_ratio"] = (
        p50([op.wall_seconds for op in phase.ops])
        / p50([op.wall_seconds for op in untraced.ops])
    )
    correct = check.correct and untraced_check.correct
    failed = 0 if correct else n
    metrics["error_rate"] = failed / n
    check.correct = correct
    extra = {"traced_ops": n, "untraced_ops": len(untraced.ops)}
    return metrics, check, n, failed, extra


def serve_traced(workload, args, spec, tracer):
    serve_spec = spec["serve_mixed"]
    half = args.seconds / 2
    state = workload.setup(args.seed)
    workload.warm_up(state)
    untraced_opens, untraced_sats = serve_timed(workload, state, half, serve_spec)

    engine = state.service.engine
    before = engine.slice_cache.stats()
    tracer.install()
    tracer.watch_lock(engine)
    state.tracer = tracer
    opens, sats = serve_timed(workload, state, half, serve_spec)
    tracer.uninstall()
    state.tracer = None
    after = engine.slice_cache.stats()
    workload.close(state)

    requests = requests_of(opens) + requests_of(sats)
    check = workload.check(state, requests)
    untraced_check = workload.check(
        state, requests_of(untraced_opens) + requests_of(untraced_sats)
    )
    n = len(requests)
    ok = [r for r in requests if r.outcome == "ok"]
    executed = [r for r in ok if not r.from_cache]
    metrics = layer_metrics(
        tracer, n, before, after, [r.served.result for r in executed]
    )
    # engine time per executed query: execute minus its wait for the lock
    waits = tracer.seconds_by_op("execution.lock_wait")
    execute_seconds = {
        op: seconds - waits.get(op, 0.0)
        for op, seconds in tracer.seconds_by_op("execution.execute").items()
    }
    overheads = [
        r.service_seconds - execute_seconds[r.query_id]
        for r in executed if r.query_id in execute_seconds
    ]
    outcomes = serve_outcomes(requests, check)
    failed = sum(outcomes.values())
    metrics.update({
        "serving.submit_ms_p50": p50([d * 1e3 for d in tracer.durations("serving.submit")]),
        "serving.queue_wait_ms_p95": p95([r.queue_seconds * 1e3 for r in ok]),
        "serving.result_cache.hit_ratio": (len(ok) - len(executed)) / len(ok),
        "serving.engine_ms_per_miss": (
            sum(execute_seconds.values()) * 1e3 / len(executed) if executed else 0.0
        ),
        "serving.overhead_ms_per_miss": (
            statistics.fmean(overheads) * 1e3 if overheads else 0.0
        ),
        "obs.accounting_ms_per_op": sum(
            tracer.durations("obs.accounting.charge_query")
        ) * 1e3 / n,
        "serving.shed": outcomes["shed"],
        "serving.timed_out": outcomes["timed_out"],
        "serving.wrong_answers": outcomes["wrong_answers"],
        **open_loop_health(opens),
        "trace.overhead_ratio": p50(serve_latencies(requests_of(opens))) / p50(
            serve_latencies(requests_of(untraced_opens))
        ),
        "error_rate": failed / n,
    })
    check.correct = check.correct and untraced_check.correct
    tracer.op_aliases = {r.query_id: f"r{r.index}" for r in requests if r.query_id}
    extra = {"traced_requests": n, "outcomes": outcomes}
    return metrics, check, n, failed, extra


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    # One CPU, chosen before numpy loads (so OpenBLAS starts one thread):
    # the engine is GIL-bound, and on a 2-vCPU host threads handing the GIL
    # across vCPUs made serving runs vary by up to 40% between runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["exercised"]:
        parser.error(f"unknown workload {args.workload!r}")

    from serve import ServeMixed
    from tracing import Tracer
    from workloads import AutoencoderDense, GnmfSparse

    workload = {
        "gnmf_sparse": GnmfSparse,
        "autoencoder_dense": AutoencoderDense,
        "serve_mixed": lambda: ServeMixed(spec["serve_mixed"]),
    }[args.workload]()
    serving = args.workload == "serve_mixed"

    if args.trace:
        tracer = Tracer()
        runner = serve_traced if serving else batch_traced
        metrics, check, attempted, failed, extra = runner(workload, args, spec, tracer)
        missing = self_check(tracer, spec["exercised"][args.workload])
        if missing:
            print("perfbench: traced run reached no call of: " + ", ".join(missing),
                  file=sys.stderr)
            return EXIT_UNTRACED_LAYER
        metrics.update(src_lines())
        declared = bench["per_layer"]
    else:
        tracer = None
        runner = serve_end_to_end if serving else batch_end_to_end
        metrics, check, attempted, failed, extra = runner(workload, args, spec)
        declared = bench["end_to_end"]

    # A layer the workload never reaches (spec.json "not_applicable") has no
    # measurement.  The result line must still carry every declared metric
    # as a number, so it holds 0 there; the report and the printed lines
    # mark it n/a.  Every other declared metric must have been measured.
    not_applicable = spec["not_applicable"].get(args.workload, []) if args.trace else []
    absent = [
        m["name"] for m in declared
        if m["name"] not in metrics and m["name"] not in not_applicable
    ]
    if absent:
        print("perfbench: metrics not measured: " + ", ".join(absent), file=sys.stderr)
        return EXIT_INCOMPLETE
    output = {
        m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_fingerprint(), "src_lines": src_lines(),
        "correct": check.correct, "check": check.detail,
        "attempted": attempted, "failed": failed, "metrics": output,
        "not_applicable": not_applicable, "details": extra,
    }
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.json")
        report["spans"] = len(tracer.spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"host: {json.dumps(report['host'])}")
    print(f"check: {check.detail}")
    for name, entry in output.items():
        if name in not_applicable:
            print(f"{name} = n/a (no layer call on this workload)")
        else:
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"details: {json.dumps(extra)}")
    print(json.dumps({
        "correct": check.correct, "attempted": attempted, "failed": failed,
        "metrics": output,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
