"""Span recording around the public functions of each layer.

A traced run wraps the layer entry points listed in :data:`LAYER_TARGETS`
with a recorder that keeps one span per call: name, wall start, wall end,
parent span, op id and the time its children covered.  Two more hooks give
context: the serving dispatcher's ``_run_one`` tags its thread with the query
id, and :meth:`Tracer.watch_lock` times the wait for an engine's execute
lock.  Nothing inside ``src/`` is edited: module-level
functions are replaced in every ``repro`` module that holds a reference to
them (callers import most of them by name), methods are replaced on their
class.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

# span record fields (plain lists keep the recorder cheap)
NAME, START, END, PARENT, OP, CHILD = range(6)

#: (span name, kind, owner, attribute).  ``kind`` is "func" for a module
#: function (patched wherever a ``repro`` module refers to it) or "method"
#: for a method patched on its class.  ``owner`` is the defining module or
#: ``module:Class``.
LAYER_TARGETS = [
    # planning
    ("core.plan_cache.fingerprint", "func", "repro.core.plan_cache", "dag_fingerprint"),
    ("core.plan_cache.get", "method", "repro.core.plan_cache:PlanCache", "get"),
    ("core.cfg.plan", "method", "repro.core.engine:FuseMEEngine", "plan_query"),
    ("core.optimizer.search", "func", "repro.core.optimizer", "optimize_parameters"),
    ("core.physical.lower", "func", "repro.core.physical", "lower_plan"),
    ("core.passes.run", "func", "repro.core.passes", "run_graph_passes"),
    # dispatch
    ("core.physical.run", "func", "repro.core.physical", "run_physical_plan"),
    ("execution.run_unit", "method", "repro.core.engine:FuseMEEngine", "run_unit"),
    # consolidation
    ("cluster.slice_cache.get", "method", "repro.cluster.slice_cache:SliceCache", "get"),
    ("matrix.as_single_block", "method", "repro.matrix.distributed:BlockedMatrix", "as_single_block"),
    ("matrix.to_scipy", "method", "repro.matrix.distributed:BlockedMatrix", "to_scipy"),
    # operators (RFO inherits CuboidFusedOperator.execute; see _cfo_name)
    ("core.cfo.execute", "method", "repro.core.cfo:CuboidFusedOperator", "execute"),
    ("operators.cell.execute", "method", "repro.operators.cell:FusedCellOperator", "execute"),
    ("operators.multi_agg.execute", "method", "repro.operators.multi_agg:MultiAggregationOperator", "execute"),
    ("operators.bfo.execute", "method", "repro.operators.bfo:BroadcastFusedOperator", "execute"),
    # fused evaluation
    ("core.fused_eval.evaluate_slice", "func", "repro.core.fused_eval", "evaluate_slice"),
    ("core.fused_eval.evaluate_masked_slice", "func", "repro.core.fused_eval", "evaluate_masked_slice"),
    ("core.fused_eval.mask_positions", "func", "repro.core.fused_eval", "mask_positions"),
    ("core.fused_eval.masked_product", "func", "repro.core.fused_eval", "masked_product"),
    ("core.fused_eval.finish_masked", "func", "repro.core.fused_eval", "finish_masked"),
    # kernels
    ("blocks.kernels.matmul", "func", "repro.blocks.kernels", "matmul"),
    ("blocks.kernels.sddmm", "func", "repro.blocks.kernels", "sddmm"),
    ("blocks.kernels.unary", "func", "repro.blocks.kernels", "unary"),
    ("blocks.kernels.binary", "func", "repro.blocks.kernels", "binary"),
    ("blocks.kernels.aggregate", "func", "repro.blocks.kernels", "aggregate"),
    ("blocks.kernels.aggregate_combine", "func", "repro.blocks.kernels", "aggregate_combine"),
    # the CFO's sum of partial products (R>1 aggregate stages, tile scatter)
    ("blocks.kernels.aggregate_add", "func", "repro.core.cfo", "_add_blocks"),
    # cluster bookkeeping
    ("cluster.metrics.copy", "method", "repro.cluster.metrics:MetricsCollector", "copy"),
    ("cluster.metrics.diff_since", "method", "repro.cluster.metrics:MetricsCollector", "diff_since"),
    ("cluster.metrics.record", "method", "repro.cluster.metrics:MetricsCollector", "record"),
    # per-query fixed cost
    ("execution.execute", "method", "repro.execution:Engine", "execute"),
    ("obs.build_profile", "method", "repro.execution:Engine", "_build_profile"),
    ("obs.attach_unit_spans", "func", "repro.execution", "_attach_unit_spans"),
    ("obs.emit_telemetry", "func", "repro.execution", "emit_profile_telemetry"),
    # serving
    ("serving.submit", "method", "repro.serving.service:MatrixService", "submit"),
    ("obs.accounting.charge_query", "method", "repro.obs.accounting:ResourceAccountant", "charge_query"),
]

#: Modules whose reference to a patched function is left alone: the result
#: cache fingerprints DAGs for its own key (serving cost, not plan-cache
#: lookup), and the reference interpreter is the correctness oracle.
_SKIP_MODULES = {
    "dag_fingerprint": {"repro.serving.result_cache"},
}

_KERNEL_FLOPS = {
    "matmul": "matmul_flops",
    "sddmm": "sddmm_flops",
    "unary": "unary_flops",
    "binary": "binary_flops",
    "aggregate": "aggregate_flops",
}


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        __import__(module_name)
        module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: object = None
        #: modeled flops of every traced kernel call, by kernel name
        self.kernel_flops: Dict[str, float] = defaultdict(float)
        #: plan-cache lookups that returned an entry / returned nothing
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: op ids that name the same op (serving: query id -> request id)
        self.op_aliases: Dict[object, object] = {}
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def set_thread_op(self, op: object) -> None:
        """Op id for spans opened on the calling thread (serving threads)."""
        self._local.op = op

    def wrap(
        self,
        name: str,
        fn: Callable,
        name_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        tracer = self
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            op = getattr(local, "op", None)
            span = [
                name_of(args) if name_of is not None else name,
                0.0, 0.0, parent, tracer.op if op is None else op, 0.0,
            ]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[END] = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += end - span[START]
                spans.append(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _patch_function(self, name: str, module_name: str, attr: str, **hooks):
        original = getattr(_resolve(module_name), attr)
        wrapper = self.wrap(name, original, **hooks)
        skip = _SKIP_MODULES.get(attr, set())
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod_name in skip:
                continue
            namespace = getattr(module, "__dict__", {})
            if namespace.get(attr) is original:
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, original))

    def _patch_method(self, name: str, owner: str, attr: str, **hooks):
        cls = _resolve(owner)
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        """Wrap every layer target; also tag serving dispatcher threads with
        the query id of the ticket they run."""
        from repro.blocks import kernels
        from repro.operators.rfo import ReplicationFusedOperator

        def cfo_name(args):
            if isinstance(args[0], ReplicationFusedOperator):
                return "operators.rfo.execute"
            return "core.cfo.execute"

        def plan_cache_after(args, entry):
            if entry is not None and entry.physical is not None:
                self.plan_cache_hits += 1
            else:
                self.plan_cache_misses += 1

        def kernel_after(kernel):
            # every kernel's flop counter takes the kernel's own arguments
            flops_fn = getattr(kernels, _KERNEL_FLOPS[kernel])

            def count(args, result):
                self.kernel_flops[kernel] += flops_fn(*args)

            return count

        for name, kind, owner, attr in LAYER_TARGETS:
            hooks = {}
            if name == "core.cfo.execute":
                hooks["name_of"] = cfo_name
            elif name == "core.plan_cache.get":
                hooks["after"] = plan_cache_after
            elif name.startswith("blocks.kernels.") and attr in _KERNEL_FLOPS:
                hooks["after"] = kernel_after(attr)
            if kind == "func":
                self._patch_function(name, owner, attr, **hooks)
            else:
                self._patch_method(name, owner, attr, **hooks)

        from repro.serving.pool import EngineReplica

        original = EngineReplica.__dict__["_run_one"]
        tracer = self

        @functools.wraps(original)
        def run_one(replica, ticket):
            tracer.set_thread_op(ticket.query_id)
            try:
                return original(replica, ticket)
            finally:
                tracer.set_thread_op(None)

        EngineReplica._run_one = run_one
        self._patches.append((EngineReplica, "_run_one", original))

    def watch_lock(self, engine) -> None:
        """Record the wait for *engine*'s execute lock as a span of its own
        (concurrent serving queries queue on it inside ``execute``)."""
        lock = engine._execute_lock
        acquire = self.wrap("execution.lock_wait", lock.acquire)

        class TimedLock:
            def __enter__(self):
                acquire()
                return self

            def __exit__(self, *exc):
                lock.release()

        engine._execute_lock = TimedLock()
        self._patches.append((engine, "_execute_lock", lock))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for span in self.spans:
            entry = out[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["seconds"] += duration
            entry["self_seconds"] += duration - span[CHILD]
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def seconds_by_op(self, name: str) -> Dict[object, float]:
        """Inclusive seconds of the spans called *name*, summed per op id."""
        out: Dict[object, float] = defaultdict(float)
        for span in self.spans:
            if span[NAME] == name:
                out[span[OP]] += span[END] - span[START]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON document: a name table and rows of
        ``[name, start, end, parent, op]`` (parent is a row index or -1)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        names: Dict[str, int] = {}
        rows = []
        for span in self.spans:
            name_id = names.setdefault(span[NAME], len(names))
            parent = span[PARENT]
            rows.append([
                name_id,
                round(span[START], 7),
                round(span[END], 7),
                index.get(id(parent), -1) if parent is not None else -1,
                span[OP],
            ])
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"],
                 "names": list(names), "op_aliases": self.op_aliases,
                 "spans": rows},
                handle, separators=(",", ":"), default=str,
            )
