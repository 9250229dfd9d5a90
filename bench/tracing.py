"""Span tracing of elcontrol from outside the program.

`Tracer.install()` wraps the public functions the benchmark reports on.
Class methods are replaced on their class; module functions are replaced
under every name an elcontrol module binds them to (so `icbf_step` records
when called from elcontrol.control or from elcontrol.simulate), and calls
that go through a module attribute (`qpsolver.solve`, `ad.backward`) are
caught by replacing that attribute.  `uninstall()` puts every original
back.

Each wrapped call appends one span (name, start, end, parent span index,
run id) to an in-memory list; nothing is written until `write()` at the end
of the run.  A few wrappers also record counters taken from the call's
arguments or result (QP iterations, rows per prediction, repeated
conditioning inputs), so ratios are measured where the work happens.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, run id)
        self.stack = []
        self.run_id = 0
        self.counters = defaultdict(float)
        self.graph_nodes = 0
        self._patched = []
        self._last_cond = {}

    # -- recording ---------------------------------------------------------

    def new_run(self):
        """Start a new top-level operation; its spans share one run id."""
        self.run_id += 1

    def _wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run_id)
            if after is not None:
                after(tracer, index, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, after))

    def _patch_function(self, fn, name, after=None):
        traced = self._wrap(name, fn, after)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("elcontrol") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, traced)

    def install(self):
        from elcontrol import autodiff, cli, control, liecheck, model, networks
        from elcontrol import qpsolver, simulate

        m = self._patch_method
        f = self._patch_function
        m(simulate.TeacherPlant, "derivative", "simulate.plant_derivative")
        f(simulate.simulate_open_loop, "simulate.open_loop")
        f(simulate.simulate_closed_loop, "simulate.closed_loop")

        m(model.ELModel, "predict_ydot", "model.predict_ydot", _count_rows)
        for attr in ("x_from_y", "y_from_x", "u_from_v_with_jac",
                     "state_jacobians", "v_from_u", "linear_core", "loss_graph"):
            m(model.ELModel, attr, f"model.{attr}")

        m(networks.ParamMlp, "forward_np", "networks.cond_mlp", _count_repeat)
        m(networks.ParamMlp, "forward_and_input_jacobian_np", "networks.cond_mlp",
          _count_repeat)

        f(autodiff.evaluate, "autodiff.evaluate", _count_graph_nodes)
        f(autodiff.gradient, "autodiff.gradient")
        f(autodiff.backward, "autodiff.backward")

        f(control.barrier_values, "control.barrier_values")
        f(control.icbf_step, "control.icbf_step")
        f(control.design_lqr, "control.design_lqr")
        m(control.DesignCache, "design_for", "control.design_for")
        f(qpsolver.solve, "qpsolver.solve", _count_qp)

        f(liecheck.check_linearizable, "liecheck.check_linearizable", _count_samples)

        f(cli.main, "cli.main")
        for name in ("write_csv", "read_csv", "save_model", "load_model"):
            f(getattr(model, name), f"cli.io.{name}")
        f(simulate.write_trace_csv, "cli.io.write_trace_csv")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as CSV: name, start and end in seconds, parent index, run id."""
        lines = ["name,start,end,parent,run\n"]
        lines.extend(f"{n},{s:.9f},{e:.9f},{p},{r}\n" for n, s, e, p, r in self.spans)
        with open(path, "w") as fh:
            fh.write("".join(lines))

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        # design_for calls that had to run a design are the cache misses
        misses = sum(1 for name, _, _, parent, _ in self.spans
                     if name == "control.design_lqr" and parent >= 0
                     and self.spans[parent][0] == "control.design_for")
        return {"calls": calls, "total": total, "self": self_time,
                "design_misses": misses}


# -- counters taken from arguments and results ----------------------------

def _count_rows(tracer, index, args, kwargs, result):
    """Split predictions into single-row calls and batches, by rows returned."""
    rows = 1 if result.ndim == 1 else result.shape[0]
    name, start, end, parent, run = tracer.spans[index]
    if rows == 1:
        tracer.spans[index] = (name + ".n1", start, end, parent, run)
    else:
        tracer.spans[index] = (name + ".batch", start, end, parent, run)
        tracer.counters["predict_ydot.batch_rows"] += rows


def _count_repeat(tracer, index, args, kwargs, result):
    net, x = args[0], args[2]
    key = x.tobytes()
    previous = tracer._last_cond.get(id(net))
    tracer._last_cond[id(net)] = key
    tracer.counters["cond_mlp.compared"] += previous is not None
    tracer.counters["cond_mlp.repeats"] += previous == key


def _count_graph_nodes(tracer, index, args, kwargs, result):
    inputs = args[1] if len(args) > 1 else kwargs.get("inputs")
    if tracer.graph_nodes or not inputs or len(inputs.get("y", ())) != 512:
        return
    seen = set()
    todo = [result]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(node.parents)
    tracer.graph_nodes = len(seen)


def _count_qp(tracer, index, args, kwargs, result):
    warm = args[1] if len(args) > 1 else kwargs.get("warm_start")
    tracer.counters["qp.iterations"] += result.iterations
    tracer.counters["qp.active_rows"] += len(result.active_set)
    tracer.counters["qp.warm"] += bool(warm)


def _count_samples(tracer, index, args, kwargs, result):
    tracer.counters["liecheck.samples"] += len(result.points)
