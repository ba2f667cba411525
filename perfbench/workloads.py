"""The two batch workloads: GNMF on sparse X and AutoEncoder SGD steps.

Both run a closed loop with one caller through ``FuseMEEngine.execute`` with
the default ``EngineConfig`` on the Figure 14 cluster shape, each op feeding
the next, and check the final factors / weights against the reference
interpreter replaying the same number of steps.

Between ops the loop times a fixed reference computation that uses none of
the program's code (:func:`host_reading`).  On a shared host the same op runs
up to 1.6x slower for seconds at a time; the readings tell which ops ran
while the host was at full speed (:meth:`Phase.quiet_ops`).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import ClusterConfig, EngineConfig
from repro.core import FuseMEEngine
from repro.lang.interpreter import evaluate_many
from repro.matrix import rand_dense, rand_sparse
from repro.workloads import GNMF, AutoEncoder, AutoEncoderShapes

BLOCK_SIZE = 25


def engine_config() -> EngineConfig:
    """The Figure 14 cluster shape (4 nodes x 6 tasks, 6 MiB per task,
    36 KiB input splits) with every engine knob at its default."""
    cluster = ClusterConfig(
        num_nodes=4,
        tasks_per_node=6,
        task_memory_budget=6 * 1024 * 1024,
        input_split_bytes=36 * 1024,
    )
    return EngineConfig(cluster=cluster, block_size=BLOCK_SIZE)


@dataclass
class OpRecord:
    """One op of a timed phase: host wall time and the paper's clock."""

    wall_seconds: float
    modeled_seconds: float
    comm_bytes: int
    #: the ExecutionResult, kept only in traced runs (per-layer counts)
    result: object = None


_REFERENCE = np.random.default_rng(0).random((160, 160))

#: an op is quiet when the host readings on both sides of it are within
#: this factor of the run's 10th-percentile reading
QUIET_FACTOR = 1.2


def host_reading() -> float:
    """Seconds a fixed interpreter loop plus four 160x160 matmuls take
    (about 1.3 ms on the reference host)."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i
    for _ in range(4):
        _REFERENCE @ _REFERENCE
    return time.perf_counter() - start


@dataclass
class Phase:
    ops: List[OpRecord] = field(default_factory=list)
    #: wall seconds spent in ops (host readings between ops excluded)
    seconds: float = 0.0
    #: host readings (seconds): one before the first op and one after each
    host_readings: List[float] = field(default_factory=list)

    def quiet_ops(self) -> List[OpRecord]:
        """The ops both of whose neighbouring host readings are within
        ``QUIET_FACTOR`` of the run's 10th-percentile reading; all ops when
        fewer than 20 are."""
        limit = QUIET_FACTOR * statistics.quantiles(self.host_readings, n=10)[0]
        quiet = [
            op for i, op in enumerate(self.ops)
            if max(self.host_readings[i], self.host_readings[i + 1]) <= limit
        ]
        return quiet if len(quiet) >= 20 else self.ops


@dataclass
class Check:
    correct: bool
    detail: str
    #: wrong answers among the checked results (serving only)
    wrong: int = 0


class BatchWorkload:
    """Closed loop, one caller: run :meth:`step` until the time is up."""

    def setup(self, seed: int):
        """Inputs, engine and the first (cold-plan) op."""
        state = self.make_state(seed)
        state.engine = FuseMEEngine(engine_config())
        state.first_result = self.step(state)
        return state

    def make_state(self, seed: int):
        raise NotImplementedError

    def step(self, state):
        raise NotImplementedError

    def run(self, state, seconds: float, tracer=None) -> Phase:
        """Closed loop for *seconds*; a *tracer* gets each op's index as its
        op id, and the op's ExecutionResult is kept for per-layer counts."""
        phase = Phase(host_readings=[host_reading()])
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.op = len(phase.ops)
            start = time.perf_counter()
            result = self.step(state)
            wall = time.perf_counter() - start
            metrics = result.metrics
            phase.ops.append(OpRecord(
                wall, metrics.elapsed_seconds, metrics.comm_bytes,
                result if tracer is not None else None,
            ))
            phase.seconds += wall
            phase.host_readings.append(host_reading())
        return phase

    def close(self, state) -> None:
        state.engine.close()


def _compare(label: str, got: np.ndarray, want: np.ndarray, rtol: float) -> Optional[str]:
    """None when *got* matches *want* within *rtol* of want's largest entry."""
    scale = float(np.max(np.abs(want))) or 1.0
    error = float(np.max(np.abs(got - want))) / scale
    if not np.all(np.isfinite(got)) or error > rtol:
        return f"{label}: max error {error:.3g} of max |value| (tolerance {rtol})"
    return None


class GnmfState:
    def __init__(self, seed: int):
        self.gnmf = GNMF(975, 600, 50, density=0.05, block_size=BLOCK_SIZE)
        self.x = rand_sparse(975, 600, 0.05, BLOCK_SIZE, seed=seed)
        self.u0, self.v0 = self.gnmf.initial_factors(seed)
        self.u, self.v = self.u0, self.v0
        self.steps = 0
        self.engine = None


class GnmfSparse(BatchWorkload):
    """FuseME GNMF multiplicative updates: one two-root DAG per iteration."""

    #: max |engine - interpreter| over max |interpreter|, per factor
    tolerance = 1e-9

    def make_state(self, seed: int) -> GnmfState:
        return GnmfState(seed)

    def step(self, state: GnmfState):
        query = state.gnmf.query
        result = state.engine.execute(
            [query.u_update, query.v_update],
            {"X": state.x, "U": state.u, "V": state.v},
        )
        roots = list(result.dag.roots)
        state.u = result.outputs[roots[0]]
        state.v = result.outputs[roots[1]]
        state.steps += 1
        return result

    def check(self, state: GnmfState) -> Check:
        query = state.gnmf.query
        roots = [query.u_update.node, query.v_update.node]
        x = state.x.to_numpy()
        u, v = state.u0.to_numpy(), state.v0.to_numpy()
        for _ in range(state.steps):
            u, v = evaluate_many(roots, {"X": x, "U": u, "V": v})
        errors = [
            e for e in (
                _compare("U", state.u.to_numpy(), u, self.tolerance),
                _compare("V", state.v.to_numpy(), v, self.tolerance),
            ) if e
        ]
        return Check(
            not errors,
            "; ".join(errors) or f"U, V match the interpreter after {state.steps} iterations",
        )


class AutoencoderState:
    def __init__(self, seed: int):
        shapes = AutoEncoderShapes(features=400, hidden1=125, hidden2=25)
        self.ae = AutoEncoder(shapes, batch_size=200, block_size=BLOCK_SIZE)
        self.data = rand_dense(2000, 400, BLOCK_SIZE, seed=seed)
        blocks_per_batch = 200 // BLOCK_SIZE
        grid_cols = self.data.block_grid[1]
        self.batches = [
            self.data.block_slice(
                (b * blocks_per_batch, (b + 1) * blocks_per_batch), (0, grid_cols)
            )
            for b in range(2000 // 200)
        ]
        self.w0 = self.ae.initial_weights(seed + 1)
        self.weights = dict(self.w0)
        self.steps = 0
        self.engine = None


class AutoencoderDense(BatchWorkload):
    """2-layer AutoEncoder SGD steps over 2000 rows cycled in batches of 200."""

    tolerance = 1e-9

    def make_state(self, seed: int) -> AutoencoderState:
        return AutoencoderState(seed)

    def step(self, state: AutoencoderState):
        batch = state.batches[state.steps % len(state.batches)]
        result = state.engine.execute(
            state.ae.step_exprs, {"B": batch, **state.weights}
        )
        for name, root in zip(("W1", "W2", "W3", "W4"), result.dag.roots):
            state.weights[name] = result.outputs[root]
        state.steps += 1
        return result

    def check(self, state: AutoencoderState) -> Check:
        roots = [expr.node for expr in state.ae.step_exprs]
        batches = [b.to_numpy() for b in state.batches]
        weights = {name: w.to_numpy() for name, w in state.w0.items()}
        for step in range(state.steps):
            new = evaluate_many(
                roots, {"B": batches[step % len(batches)], **weights}
            )
            weights = dict(zip(("W1", "W2", "W3", "W4"), new))
        errors = [
            e for e in (
                _compare(name, state.weights[name].to_numpy(), weights[name],
                         self.tolerance)
                for name in ("W1", "W2", "W3", "W4")
            ) if e
        ]
        return Check(
            not errors,
            "; ".join(errors) or f"W1..W4 match the interpreter after {state.steps} steps",
        )
