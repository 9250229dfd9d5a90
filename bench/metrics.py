"""The metrics the benchmark reports, and the per-layer ones computed from
the traced passes of one run.

End-to-end metrics (`--trace 0`) have one meaning per workload; see
bench/README.md.  Per-layer counts are per pass of the workload's CLI commands, so they repeat exactly.
Times ending in `.us` or `.ms` are inclusive time per call of that function;
names with `self_` are self time per call (the span minus the spans of the
wrapped calls inside it).  A layer that does not run in a workload reads 0.
"""

from __future__ import annotations

import math
import statistics

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rate_per_s": "1/s",
    "commands_s": "s",
    "op_us_p50": "us",
    "op_us_p90": "us",
}

# name: (unit, better)
PER_LAYER = {
    "simulate.plant_derivative.calls": ("count", "lower"),
    "simulate.plant_derivative.us": ("us", "lower"),
    "simulate.open_loop.self_ms": ("ms", "lower"),
    "simulate.closed_loop.self_ms": ("ms", "lower"),
    "model.predict_ydot.n1_us": ("us", "lower"),
    "model.predict_ydot.batch_us_per_row": ("us", "lower"),
    "model.x_from_y.us": ("us", "lower"),
    "model.y_from_x.us": ("us", "lower"),
    "model.u_from_v_with_jac.us": ("us", "lower"),
    "model.state_jacobians.us": ("us", "lower"),
    "model.v_from_u.us": ("us", "lower"),
    "model.linear_core.us": ("us", "lower"),
    "model.loss_graph.ms": ("ms", "lower"),
    "networks.cond_mlp.calls": ("count", "lower"),
    "networks.cond_mlp.self_us": ("us", "lower"),
    "networks.cond_mlp.repeat_share": ("frac", "higher"),
    "autodiff.graph_nodes": ("count", "lower"),
    "autodiff.evaluate.ms": ("ms", "lower"),
    "autodiff.gradient.ms": ("ms", "lower"),
    "autodiff.backward.calls": ("count", "lower"),
    "autodiff.backward.us": ("us", "lower"),
    "control.barrier_values.calls": ("count", "lower"),
    "control.barrier_values.us": ("us", "lower"),
    "control.icbf_step.us": ("us", "lower"),
    "control.design_for.calls": ("count", "lower"),
    "control.design_lqr.calls": ("count", "lower"),
    "control.design_cache.hit_ratio": ("frac", "higher"),
    "qpsolver.solve.calls": ("count", "lower"),
    "qpsolver.solve.us": ("us", "lower"),
    "qpsolver.iterations": ("count", "lower"),
    "qpsolver.active_rows": ("count", "lower"),
    "qpsolver.warm_started_share": ("frac", "higher"),
    "liecheck.ms_per_sample": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.io.write_csv.ms": ("ms", "lower"),
    "cli.io.read_csv.ms": ("ms", "lower"),
    "cli.io.write_trace_csv.ms": ("ms", "lower"),
    "cli.io.save_model.ms": ("ms", "lower"),
    "cli.io.load_model.ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "replay.op_us_p99": ("us", "lower"),
    "replay.op_samples": ("count", "higher"),
    "replay.lqr_tick_us_p50": ("us", "lower"),
}


def nearest_rank(values, q):
    """The q-quantile of a nonempty sample by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes, ops, lqr_ops):
    """Every PER_LAYER metric as {name: {"value", "unit"}}.

    `passes` maps "plain" and "traced" to the pass results of the run, and
    `ops` and `lqr_ops` hold the seconds of the replayed steps of the plain
    passes.
    """
    s = tracer.summary()
    calls, total, self_time = s["calls"], s["total"], s["self"]
    c = tracer.counters
    traced = len(passes["traced"])

    def per_pass(name):
        return calls[name] / traced

    def per_call(name, scale, times=total):
        return _ratio(scale * times[name], calls[name])

    design_calls = calls["control.design_for"]
    qp_calls = calls["qpsolver.solve"]
    plain_s, traced_s = (
        statistics.median(sum(i[2] for i in p["intervals"]) for p in passes[kind])
        for kind in ("plain", "traced"))
    values = {
        "simulate.plant_derivative.calls": per_pass("simulate.plant_derivative"),
        "simulate.plant_derivative.us": per_call("simulate.plant_derivative", 1e6),
        "simulate.open_loop.self_ms": per_call("simulate.open_loop", 1e3, self_time),
        "simulate.closed_loop.self_ms": per_call("simulate.closed_loop", 1e3, self_time),
        "model.predict_ydot.n1_us": per_call("model.predict_ydot.n1", 1e6),
        "model.predict_ydot.batch_us_per_row": _ratio(
            1e6 * total["model.predict_ydot.batch"], c["predict_ydot.batch_rows"]),
        "model.loss_graph.ms": per_call("model.loss_graph", 1e3),
        "networks.cond_mlp.calls": per_pass("networks.cond_mlp"),
        "networks.cond_mlp.self_us": per_call("networks.cond_mlp", 1e6, self_time),
        "networks.cond_mlp.repeat_share": _ratio(c["cond_mlp.repeats"],
                                                 c["cond_mlp.compared"]),
        "autodiff.graph_nodes": float(tracer.graph_nodes),
        "autodiff.evaluate.ms": per_call("autodiff.evaluate", 1e3),
        "autodiff.gradient.ms": per_call("autodiff.gradient", 1e3),
        "autodiff.backward.calls": per_pass("autodiff.backward"),
        "autodiff.backward.us": per_call("autodiff.backward", 1e6),
        "control.barrier_values.calls": per_pass("control.barrier_values"),
        "control.barrier_values.us": per_call("control.barrier_values", 1e6),
        "control.icbf_step.us": per_call("control.icbf_step", 1e6),
        "control.design_for.calls": per_pass("control.design_for"),
        "control.design_lqr.calls": per_pass("control.design_lqr"),
        "control.design_cache.hit_ratio": _ratio(design_calls - s["design_misses"],
                                                 design_calls),
        "qpsolver.solve.calls": per_pass("qpsolver.solve"),
        "qpsolver.solve.us": per_call("qpsolver.solve", 1e6),
        "qpsolver.iterations": _ratio(c["qp.iterations"], qp_calls),
        "qpsolver.active_rows": _ratio(c["qp.active_rows"], qp_calls),
        "qpsolver.warm_started_share": _ratio(c["qp.warm"], qp_calls),
        "liecheck.ms_per_sample": _ratio(1e3 * total["liecheck.check_linearizable"],
                                         c["liecheck.samples"]),
        "cli.self_ms": per_call("cli.main", 1e3, self_time),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "replay.op_us_p99": 1e6 * nearest_rank(ops, 0.99) if ops else 0.0,
        "replay.op_samples": float(len(ops)),
        "replay.lqr_tick_us_p50": 1e6 * statistics.median(lqr_ops) if lqr_ops else 0.0,
    }
    for attr in ("x_from_y", "y_from_x", "u_from_v_with_jac", "state_jacobians",
                 "v_from_u", "linear_core"):
        values[f"model.{attr}.us"] = per_call(f"model.{attr}", 1e6)
    for name in ("write_csv", "read_csv", "write_trace_csv", "save_model", "load_model"):
        values[f"cli.io.{name}.ms"] = per_call(f"cli.io.{name}", 1e3)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
