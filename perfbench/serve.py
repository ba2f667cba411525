"""The serving workload: two tenants on one ``MatrixService``.

Requests are drawn Zipf-skewed from a fixed pool of small query shapes (the
NMF micro-query ``X*log(U@V.T+eps)`` and a PageRank step).  Each tenant has
one session binding the inputs of its half of the pool.  About 30% of
requests first write one stored block of one of their own inputs with new
values: the write copies the bound matrix, replaces the block with
``set_block`` and re-binds the copy, so queries already submitted keep
reading the matrix they were bound to.  The timed phase alternates rounds of
an open loop (Poisson arrivals from one generator thread, ``submit`` plus
``add_done_callback``, latency counted from each request's due time) and a
closed-loop saturation phase with two client threads.

Every matrix a write creates is kept, so the gate can check a seeded sample
of served results against the reference interpreter on the inputs bound when
the request was submitted (sessions snapshot their bindings at submit).  Any
wrong result fails the gate.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.blocks import Block
from repro.config import ServiceConfig
from repro.core import FuseMEEngine
from repro.errors import QueryTimeoutError, ServiceOverloadedError
from repro.lang import log, matrix_input
from repro.lang.interpreter import evaluate
from repro.matrix import rand_dense, rand_sparse
from repro.matrix.distributed import BlockedMatrix
from repro.serving import MatrixService

from workloads import BLOCK_SIZE, Check, engine_config

EPS = 1e-8
TENANTS = ("tenant-a", "tenant-b")


@dataclass(frozen=True)
class Shape:
    index: int
    kind: str            # "nmf" or "pagerank"
    dims: Tuple[int, ...]

    @property
    def tenant(self) -> str:
        return TENANTS[self.index % len(TENANTS)]

    def input_names(self) -> Tuple[str, ...]:
        if self.kind == "nmf":
            return tuple(f"{n}{self.index}" for n in ("X", "U", "V"))
        return tuple(f"{n}{self.index}" for n in ("A", "R"))

    def expr(self):
        if self.kind == "nmf":
            rows, cols, common = self.dims
            x, u, v = self.input_names()
            return (
                matrix_input(x, rows, cols, BLOCK_SIZE, density=0.05)
                * log(matrix_input(u, rows, common, BLOCK_SIZE)
                      @ matrix_input(v, cols, common, BLOCK_SIZE).T + EPS)
            )
        (n,) = self.dims
        a, r = self.input_names()
        return (
            matrix_input(a, n, n, BLOCK_SIZE, density=0.01)
            @ matrix_input(r, n, 1, BLOCK_SIZE)
        ) * 0.85 + 0.15 / n

    def inputs(self, seed: int) -> Dict[str, BlockedMatrix]:
        base = seed * 1000 + self.index * 10
        if self.kind == "nmf":
            rows, cols, common = self.dims
            x, u, v = self.input_names()
            return {
                x: rand_sparse(rows, cols, 0.05, BLOCK_SIZE, seed=base),
                u: rand_dense(rows, common, BLOCK_SIZE, seed=base + 1),
                v: rand_dense(cols, common, BLOCK_SIZE, seed=base + 2),
            }
        (n,) = self.dims
        a, r = self.input_names()
        return {
            a: rand_sparse(n, n, 0.01, BLOCK_SIZE, seed=base),
            r: rand_dense(n, 1, BLOCK_SIZE, seed=base + 1),
        }


def shape_pool() -> List[Shape]:
    """54 NMF shapes and 41 PageRank shapes, rows 100-300 (fixed, not
    seeded: the seed picks popularity ranks, values and the request stream)."""
    dims = [
        ("nmf", (rows, cols, common))
        for rows in range(100, 301, 25)
        for cols in (100, 175, 250)
        for common in (25, 50)
    ]
    dims += [("pagerank", (n,)) for n in range(100, 301, 5)]
    return [Shape(i, kind, d) for i, (kind, d) in enumerate(dims)]


@dataclass
class Request:
    index: int
    shape: Shape
    #: offset of the due time from the start of the open loop (seconds)
    arrival: float = 0.0
    #: (input name, block pick) written first, or None
    write: Optional[Tuple[str, int]] = None
    sampled: bool = False
    # filled in while serving
    due: float = 0.0
    late: float = 0.0
    done_at: float = 0.0
    #: per input, bounds on the version the session's snapshot at submit
    #: bound (another client may re-bind it meanwhile)
    versions_before: Tuple[int, ...] = ()
    versions_after: Tuple[int, ...] = ()
    outcome: str = "pending"     # ok | shed | timed_out | failed
    from_cache: bool = False
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    modeled_seconds: float = 0.0
    comm_bytes: int = 0
    #: the ServedResult, kept for sampled requests and in traced runs
    served: object = None
    query_id: str = ""
    done: threading.Event = field(default_factory=threading.Event)


@dataclass
class ServePhase:
    requests: List[Request] = field(default_factory=list)
    seconds: float = 0.0
    #: (time since start, requests in flight) at each open-loop submit
    backlog: List[Tuple[float, int]] = field(default_factory=list)


class ServeState:
    def __init__(self, seed: int, spec: dict):
        self.seed = seed
        self.spec = spec
        self.shapes = shape_pool()
        self.exprs = {s.index: s.expr() for s in self.shapes}
        #: per input: every matrix bound to it, in order; the version of an
        #: input is the index of its current matrix here
        self.versions: Dict[str, List[BlockedMatrix]] = {}
        for shape in self.shapes:
            for name, matrix in shape.inputs(seed).items():
                self.versions[name] = [matrix]
        #: per input: the index of the matrix its session binds
        self.bound = {name: 0 for name in self.versions}
        self.write_lock = threading.Lock()
        self.service = MatrixService(FuseMEEngine(engine_config()), ServiceConfig())
        self.sessions = {
            tenant: self.service.open_session(tenant) for tenant in TENANTS
        }
        for shape in self.shapes:
            session = self.sessions[shape.tenant]
            for name in shape.input_names():
                session.bind(name, self.versions[name][0])
        self.stream = self._stream()
        self.next_index = itertools.count()
        self.index_lock = threading.Lock()
        #: requests finished so far (any outcome)
        self.completed = 0
        #: set by traced runs: submit-side spans get the request index, and
        #: every request keeps its ServedResult for per-layer counts
        self.tracer = None

    def _stream(self) -> List[Request]:
        """The seeded request stream: shape, write and sample draws.

        Shapes, writes and samples are dealt from shuffled decks of
        ``deck_size`` requests that hold each outcome in its exact share, so
        the seed orders the mix but every stretch of the stream has the same
        mix (independent draws made the share of large and cold shapes, and
        with it the open-loop p95, vary from seed to seed).
        """
        cfg = self.spec
        total = cfg["stream_length"]
        # popularity ranks are part of the workload, not of the seed: every
        # seed draws from the same hot shapes
        ranks = np.random.default_rng(0).permutation(len(self.shapes))
        rng = np.random.default_rng([self.seed, 0])
        weights = 1.0 / np.arange(1, len(self.shapes) + 1) ** cfg["zipf_exponent"]
        deck = cfg["deck_size"]
        picks = _dealt(rng, weights, total, deck)
        writes = _dealt(rng, [1 - cfg["write_fraction"], cfg["write_fraction"]], total, deck) == 1
        targets = rng.integers(0, 1 << 30, size=(total, 2))
        sampled = _dealt(rng, [1 - cfg["check_fraction"], cfg["check_fraction"]], total, deck) == 1
        gaps = rng.exponential(1.0 / cfg["arrival_rate_per_s"], size=total)
        requests = []
        for i in range(total):
            shape = self.shapes[ranks[picks[i]]]
            write = None
            if writes[i]:
                names = shape.input_names()
                write = (names[targets[i, 0] % len(names)], int(targets[i, 1]))
            requests.append(Request(i, shape, float(gaps[i]), write, bool(sampled[i])))
        return requests

    def take(self) -> Request:
        with self.index_lock:
            index = next(self.next_index)
        if index >= len(self.stream):
            raise RuntimeError("request stream exhausted; raise stream_length")
        return self.stream[index]

    # -- one request --------------------------------------------------------

    def _write(self, request: Request) -> None:
        name, pick = request.write
        rng = np.random.default_rng([self.seed, 1, request.index])
        with self.write_lock:
            old_matrix = self.versions[name][-1]
            keys = sorted(old_matrix.blocks)
            key = keys[pick % len(keys)]
            old = old_matrix.blocks[key]
            if old.is_sparse:
                data = old.data.copy()
                data.data = rng.uniform(0.1, 1.0, size=data.nnz)
            else:
                data = rng.uniform(0.1, 1.0, size=old.shape)
            matrix = BlockedMatrix(old_matrix.meta, old_matrix.blocks)
            matrix.set_block(key[0], key[1], Block(data))
            # listed before it is bound, counted as bound after: a reader of
            # both without the lock brackets the version a submit binds
            self.versions[name].append(matrix)
            self.sessions[request.shape.tenant].bind(name, matrix)
            self.bound[name] = len(self.versions[name]) - 1

    def submit(self, request: Request, due: float) -> None:
        """Write (if drawn), submit, and record completion via callback."""
        request.due = due
        if request.write is not None:
            self._write(request)
        names = request.shape.input_names()
        request.versions_before = tuple(self.bound[n] for n in names)
        if self.tracer is not None:
            self.tracer.set_thread_op(f"r{request.index}")
        session = self.sessions[request.shape.tenant]
        try:
            ticket = session.submit(self.exprs[request.shape.index])
        except ServiceOverloadedError:
            self._finish(request, "shed")
            return
        request.versions_after = tuple(len(self.versions[n]) - 1 for n in names)
        request.query_id = ticket.query_id
        ticket.add_done_callback(lambda t: self._on_done(request, t))

    def _on_done(self, request: Request, ticket) -> None:
        error = ticket.exception()
        if error is None:
            served = ticket.result()
            request.from_cache = served.from_cache
            request.queue_seconds = served.queue_seconds
            request.service_seconds = served.service_seconds
            if not served.from_cache:
                request.modeled_seconds = served.metrics.elapsed_seconds
                request.comm_bytes = served.metrics.comm_bytes
            if request.sampled or self.tracer is not None:
                request.served = served
            self._finish(request, "ok")
        elif isinstance(error, QueryTimeoutError):
            self._finish(request, "timed_out")
        else:
            self._finish(request, "failed")

    def _finish(self, request: Request, outcome: str) -> None:
        request.done_at = time.perf_counter()
        request.outcome = outcome
        with self.index_lock:
            self.completed += 1
        request.done.set()

    def run_sync(self, request: Request) -> Request:
        self.submit(request, time.perf_counter())
        if not request.done.wait(120.0):
            raise RuntimeError(f"request {request.index} did not complete")
        return request


class ServeMixed:
    def __init__(self, spec: dict):
        self.spec = spec

    def setup(self, seed: int) -> ServeState:
        state = ServeState(seed, self.spec)
        state.run_sync(state.take())
        return state

    def warm_up(self, state: ServeState) -> None:
        """Fill the plan, slice and result caches to their steady state."""
        for _ in range(self.spec["warmup_requests"]):
            state.run_sync(state.take())

    def open_loop(self, state: ServeState, seconds: float) -> ServePhase:
        phase = ServePhase()
        completed0 = state.completed
        start = time.perf_counter() + 0.005
        offset = 0.0
        while True:
            request = state.take()
            offset += request.arrival
            if offset >= seconds:
                break
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request.late = time.perf_counter() - due
            in_flight = len(phase.requests) - (state.completed - completed0)
            phase.backlog.append((offset, in_flight))
            state.submit(request, due)
            phase.requests.append(request)
        _wait_all(phase.requests)
        phase.seconds = time.perf_counter() - start
        return phase

    def saturate(self, state: ServeState, seconds: float, clients: int) -> ServePhase:
        phase = ServePhase()
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds

        def client() -> None:
            while time.perf_counter() < deadline:
                request = state.take()
                state.submit(request, time.perf_counter())
                with lock:
                    phase.requests.append(request)
                request.done.wait(120.0)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180.0)
        _wait_all(phase.requests)
        phase.seconds = time.perf_counter() - start
        return phase

    def close(self, state: ServeState) -> None:
        state.service.close()

    # -- correctness --------------------------------------------------------

    def check(self, state: ServeState, requests: List[Request]) -> Check:
        """Check every sampled served result against the interpreter on the
        inputs bound at its submit; any wrong result fails the gate."""
        dense_cache: Dict[Tuple[str, int], np.ndarray] = {}
        reference_cache: Dict[tuple, np.ndarray] = {}

        def dense_at(name: str, version: int) -> np.ndarray:
            key = (name, version)
            if key not in dense_cache:
                dense_cache[key] = state.versions[name][version].to_numpy()
            return dense_cache[key]

        def reference(shape: Shape, versions: Tuple[int, ...]) -> np.ndarray:
            key = (shape.index, versions)
            if key not in reference_cache:
                env = {
                    name: dense_at(name, v)
                    for name, v in zip(shape.input_names(), versions)
                }
                reference_cache[key] = evaluate(state.exprs[shape.index].node, env)
            return reference_cache[key]

        checked = wrong = 0
        for request in requests:
            if not request.sampled or request.outcome != "ok":
                continue
            got = request.served.output().to_numpy()
            # each input's versions bound while the session took its snapshot
            ranges = [
                range(lo, hi + 1)
                for lo, hi in zip(request.versions_before, request.versions_after)
            ]
            checked += 1
            if not any(
                np.allclose(got, reference(request.shape, combo),
                            rtol=1e-9, atol=1e-12)
                for combo in itertools.product(*ranges)
            ):
                wrong += 1
        request_count = sum(1 for r in requests if r.outcome == "ok")
        detail = f"{checked} of {request_count} served results checked, {wrong} wrong"
        return Check(checked > 0 and wrong == 0, detail, wrong)


def _dealt(rng, weights, total: int, deck: int) -> np.ndarray:
    """*total* outcome indices dealt from shuffled decks of *deck* cards, in
    which outcome i appears in proportion to ``weights[i]`` (largest
    remainders round the counts to the deck size)."""
    share = np.asarray(weights, dtype=float) / np.sum(weights) * deck
    counts = np.floor(share).astype(int)
    short = deck - counts.sum()
    counts[np.argsort(counts - share)[:short]] += 1
    cards = np.repeat(np.arange(len(counts)), counts)
    decks = -(-total // deck)
    return np.concatenate([rng.permutation(cards) for _ in range(decks)])[:total]


def _wait_all(requests: List[Request]) -> None:
    for request in requests:
        if not request.done.wait(120.0):
            raise RuntimeError(f"request {request.index} never completed")
