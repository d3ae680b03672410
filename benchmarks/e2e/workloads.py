"""The four seeded workloads: set-up, inputs, the timed loop, the oracle.

Every workload is a closed loop with one caller: the driver replays a
pre-generated, time-ordered event stream as fast as calls return.  Event
timestamps drive only the modelled clock (``t_delta`` expiry, front-door
admission), never wall pacing.  Every workload keeps ``1/f <= t_delta``
(60 s), so no object expires and the brute-force oracle stays exact.

Sizes are given at a nominal 20 s run; ``seconds`` scales each modelled
duration, and with it every update and query count, by ``seconds / 20``.
The work is fixed by ``(seed, seconds)``, so two commits measured with
the same arguments replay identical events.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, replace

from repro import GGridConfig, GGridIndex, Message
from repro.baselines.naive import NaiveKnnIndex
from repro.cluster.router import ShardRouter
from repro.errors import ReproError, ShedError
from repro.mobility.workload import Query, Workload, make_workload, random_locations
from repro.plan.planner import QueryPlanner
from repro.roadnet import datasets
from repro.serve.frontdoor import FrontDoor
from repro.serve.loadgen import TenantSpec, diurnal_profile, make_serve_workload
from repro.serve.tenancy import TenantPolicy
from repro.server.metrics import ReplayReport
from repro.server.server import QueryServer

from benchmarks.e2e import ROOT

NOMINAL_SECONDS = 20.0

#: one query in this many is compared against the oracle
SAMPLE_EVERY = 20

#: planner_repeat's hot locations are drawn once, independent of --seed
HOT_POOL_SEED = 0

#: serve_stack: four tenants, paid 10 + 5 q/s and free 10 + 5 q/s
TENANTS = (
    TenantSpec(TenantPolicy("acme", "paid", rate=200.0, burst=50.0, deadline_s=2.0), rate=10.0),
    TenantSpec(TenantPolicy("globex", "paid", rate=200.0, burst=50.0, deadline_s=2.0), rate=5.0),
    TenantSpec(TenantPolicy("hobby", "free", rate=50.0, burst=10.0, deadline_s=4.0), rate=10.0),
    TenantSpec(TenantPolicy("trial", "free", rate=50.0, burst=10.0, deadline_s=4.0), rate=5.0),
)


@dataclass(frozen=True)
class Size:
    """Input size at the nominal run length.

    Attributes:
        scale: fraction of the paper's NY network (264,346 vertices).
        objects: moving objects.
        frequency: location updates per object per modelled second.
        duration: modelled seconds of the event stream.
        queries: kNN queries spread evenly over the stream (the serve
            workload draws Poisson arrivals from its tenants instead).
    """

    scale: float
    objects: int
    frequency: float
    duration: float
    queries: int = 0

    def scaled(self, seconds: float) -> "Size":
        factor = seconds / NOMINAL_SECONDS
        return replace(
            self,
            duration=self.duration * factor,
            queries=max(1, round(self.queries * factor)) if self.queries else 0,
        )


@dataclass(frozen=True)
class Spec:
    """One workload: its sizes and the stack it drives (why each workload
    exists is recorded in BENCHMARK.json and README.md)."""

    name: str
    full: Size
    smoke: Size
    k: int = 16
    partitioner: str = "multilevel"
    #: > 0: queries repeat over this many fixed locations
    hot_pool: int = 0
    planner: bool = False
    serve: bool = False


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "fleet_ingest",
            full=Size(1 / 8, 10_000, 1.0, 50.0, 1000),
            smoke=Size(1 / 400, 200, 1.0, 10.0, 200),
            k=16,
            partitioner="geometric",
        ),
        Spec(
            "sparse_knn",
            full=Size(1 / 50, 500, 0.05, 75.0, 1500),
            smoke=Size(1 / 400, 100, 0.05, 40.0, 200),
            k=32,
        ),
        Spec(
            "serve_stack",
            full=Size(1 / 50, 2000, 0.1, 60.0),
            smoke=Size(1 / 400, 200, 0.1, 8.0),
            k=8,
            serve=True,
        ),
        # queries (40/s) far outnumber updates (2/s) and the fleet is too
        # sparse for cheap G-Grid queries, so the planner unparks TEN at
        # the first query on every seed and routes nearly every cache miss
        # to it, paying one full TEN rebuild per update.  Denser fleets sit
        # at the crossover: TEN unparked on some seeds only, and its few
        # rebuilds moved query_rate by 35% between seeds.
        Spec(
            "planner_repeat",
            full=Size(1 / 200, 100, 0.02, 280.0, 11_200),
            smoke=Size(1 / 400, 30, 0.02, 40.0, 400),
            k=8,
            hot_pool=64,
            planner=True,
        ),
    )
}


@dataclass
class StreamResult:
    """What the timed loop measured.

    ``update_lat`` holds one wall time per update call; ``query_lat`` one
    latency per answered query (per call, or for the front door from
    ``submit_nowait`` start to the end of the call that resolved the
    ticket).  ``query_wall`` is the wall inside every query-side call.
    """

    update_lat: array
    query_lat: array
    query_wall: float
    arrivals: int
    shed: int
    raised: int
    start: float
    end: float
    #: (query position, answer) for every SAMPLE_EVERY-th query
    sampled: list

    @property
    def answered(self) -> int:
        return len(self.query_lat)

    @property
    def attempted(self) -> int:
        return len(self.update_lat) + self.arrivals


def same_answer(got, want) -> bool:
    """Distances equal to 9 decimals, tie groups equal as id sets."""
    got_d = [round(e.distance, 9) for e in got.entries]
    if got_d != [round(e.distance, 9) for e in want.entries]:
        return False
    return _tie_groups(got) == _tie_groups(want)


def _tie_groups(answer) -> dict[float, set[int]]:
    groups: dict[float, set[int]] = {}
    for e in answer.entries:
        groups.setdefault(round(e.distance, 9), set()).add(e.obj)
    return groups


def _load_graph(size: Size):
    # looked up through the module so a traced run sees its wrapper
    return datasets.load_dataset("NY", size.scale)


class ServerStack:
    """``QueryServer`` over one ``GGridIndex`` (optionally planned)."""

    def __init__(self, spec: Spec, size: Size) -> None:
        self.spec = spec
        self.size = size
        self.graph = _load_graph(size)
        config = GGridConfig(partitioner=spec.partitioner)
        # TEN's label lists hold exactly the k every query asks for
        self.planner = QueryPlanner(k_max=spec.k) if spec.planner else None
        self.server = QueryServer(GGridIndex(self.graph, config), planner=self.planner)
        self.report = ReplayReport(index_name=spec.name, timing=self.server.timing)

    def inputs(self, seed: int) -> tuple[dict, list]:
        size = self.size
        w = make_workload(
            self.graph,
            size.objects,
            size.duration,
            size.queries,
            k=self.spec.k,
            update_frequency=size.frequency,
            seed=seed,
        )
        if self.spec.hot_pool:
            # the hot junctions are a property of the map, like the graph;
            # the seed picks which of them each query asks about
            pool = random_locations(self.graph, self.spec.hot_pool, seed=HOT_POOL_SEED)
            rng = random.Random(seed + 3)
            queries = [Query(q.t, pool[rng.randrange(len(pool))], q.k) for q in w.queries]
            w = Workload(initial=w.initial, updates=w.updates, queries=queries)
        return w.initial, list(w.events())

    def bulk_load(self, initial: dict) -> None:
        for obj, loc in initial.items():
            self.server.update(Message(obj, loc.edge_id, loc.offset, 0.0), self.report)

    def stream(self, events: list) -> StreamResult:
        server, report = self.server, self.report
        pc = time.perf_counter
        update_lat = array("d")
        query_lat = array("d")
        query_wall = 0.0
        sampled = []
        raised = 0
        position = 0
        start = pc()
        for kind, event in events:
            if kind == "update":
                t0 = pc()
                try:
                    server.update(event, report)
                except ReproError:
                    raised += 1
                update_lat.append(pc() - t0)
            else:
                t0 = pc()
                try:
                    answer = server.query(event, report)
                except ReproError:
                    raised += 1
                    answer = None
                t1 = pc()
                query_wall += t1 - t0
                if answer is not None:
                    query_lat.append(t1 - t0)
                    if position % SAMPLE_EVERY == 0:
                        sampled.append((position, answer))
                position += 1
        end = pc()
        return StreamResult(
            update_lat,
            query_lat,
            query_wall=query_wall,
            arrivals=position,
            shed=0,
            raised=raised,
            start=start,
            end=end,
            sampled=sampled,
        )

    def check(self, initial: dict, events: list, result: StreamResult) -> tuple[int, int]:
        """Replay the same events into the oracle; returns (compared, mismatches)."""
        oracle = NaiveKnnIndex(self.graph)
        for obj, loc in initial.items():
            oracle.ingest(Message(obj, loc.edge_id, loc.offset, 0.0))
        wanted = dict(result.sampled)
        mismatches = 0
        position = 0
        for kind, event in events:
            if kind == "update":
                oracle.ingest(event)
                continue
            got = wanted.get(position)
            if got is not None and not same_answer(
                got, oracle.knn(event.location, event.k, t_now=event.t)
            ):
                mismatches += 1
            position += 1
        return len(wanted), mismatches

    def gpus(self) -> list:
        return [self.server.index.gpu]

    def counters(self) -> dict[str, float]:
        records = self.report.query_records
        planner = self.planner
        out = {
            "fallbacks": sum(r.used_fallback for r in records),
            "answers": len(records),
            "fanout": 0.0,
            "epochs": 0,
            "cache_hits": 0,
            "cache_lookups": 0,
            "ten_rebuilds": 0,
        }
        if planner is not None:
            out["cache_hits"] = planner.cache.hits
            out["cache_lookups"] = planner.cache.hits + planner.cache.misses
            out["ten_rebuilds"] = planner.ten.rebuilds_full
        return out

    def close(self) -> None:
        pass


class ServeStack:
    """``FrontDoor`` → 4-shard ``ShardRouter`` → ``QueryServer`` → ``GGridIndex``."""

    def __init__(self, spec: Spec, size: Size) -> None:
        self.spec = spec
        self.size = size
        self.graph = _load_graph(size)
        # router defaults (standby replicas, fsync_every=64) with the WAL
        # in a fresh directory of the checkout, removed by close()
        self.workdir = tempfile.mkdtemp(prefix=".e2e-wal-", dir=ROOT)
        self.router = ShardRouter(self.graph, num_shards=4, directory=self.workdir)
        self.front = FrontDoor(self.router, [t.policy for t in TENANTS], batch_size=8)

    def inputs(self, seed: int) -> tuple[dict, list]:
        size = self.size
        tenants = [replace(t, k=self.spec.k) for t in TENANTS]
        w = make_serve_workload(
            self.graph,
            tenants,
            num_objects=size.objects,
            profile=diurnal_profile(size.duration, peak=2.0),
            update_frequency=size.frequency,
            seed=seed,
        )
        return w.initial, list(w.events())

    def bulk_load(self, initial: dict) -> None:
        for obj in sorted(initial):
            loc = initial[obj]
            self.front.update(Message(obj, loc.edge_id, loc.offset, 0.0))
        self.front.flush()

    def stream(self, events: list) -> StreamResult:
        front = self.front
        pc = time.perf_counter
        update_lat = array("d")
        query_lat = array("d")
        query_wall = 0.0
        pending: list = []  # (ticket, submit start)
        arrivals = shed = raised = 0

        def settle(t_end: float) -> None:
            nonlocal shed
            still = []
            for ticket, t_start in pending:
                if not ticket.done:
                    still.append((ticket, t_start))
                    continue
                try:
                    ticket.result()
                except ShedError:  # deadline expired in its lane
                    shed += 1
                    continue
                query_lat.append(t_end - t_start)
            pending[:] = still

        start = pc()
        for kind, event in events:
            if kind == "update":
                t0 = pc()
                try:
                    front.flush()
                except ReproError:
                    raised += 1
                t1 = pc()
                try:
                    front.update(event)
                except ReproError:
                    raised += 1
                t2 = pc()
                query_wall += t1 - t0
                update_lat.append(t2 - t1)
                if pending:
                    settle(t1)
            else:
                arrivals += 1
                t0 = pc()
                try:
                    ticket = front.submit_nowait(event.tenant, event.query)
                except ShedError:
                    ticket = None
                    shed += 1
                except ReproError:
                    ticket = None
                    raised += 1
                t1 = pc()
                query_wall += t1 - t0
                if ticket is not None:
                    pending.append((ticket, t0))
                settle(t1)
        t0 = pc()
        try:
            front.drain()
        except ReproError:
            raised += 1
        t1 = pc()
        query_wall += t1 - t0
        settle(t1)
        end = pc()
        return StreamResult(
            update_lat,
            query_lat,
            query_wall=query_wall,
            arrivals=arrivals,
            shed=shed,
            raised=raised,
            start=start,
            end=end,
            sampled=[],
        )

    def check(self, initial: dict, events: list, result: StreamResult) -> tuple[int, int]:
        """Replay the front door's execution log into the oracle."""
        oracle = NaiveKnnIndex(self.graph)
        answers = self.front.answers
        compared = mismatches = 0
        position = 0
        for entry in self.front.execution_log:
            if entry[0] == "update":
                oracle.ingest(entry[1])
                continue
            _, q, t_epoch = entry
            if position % SAMPLE_EVERY == 0:
                compared += 1
                if not same_answer(answers[position], oracle.knn(q.location, q.k, t_now=t_epoch)):
                    mismatches += 1
            position += 1
        return compared, mismatches

    def gpus(self) -> list:
        out = []
        for shard in self.router.shards.values():
            out.append(shard.index.gpu)
            if shard.replica is not None:
                out.append(shard.replica.index.gpu)
        return out

    def counters(self) -> dict[str, float]:
        records = self.front.backend_report.query_records
        return {
            "fallbacks": sum(r.used_fallback for r in records),
            "answers": len(records),
            "fanout": sum(r.fanout for r in records) / len(records) if records else 0.0,
            "epochs": self.front.epochs,
            "cache_hits": 0,
            "cache_lookups": 0,
            "ten_rebuilds": 0,
        }

    def close(self) -> None:
        try:
            self.router.close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def make_stack(spec: Spec, size: Size):
    return (ServeStack if spec.serve else ServerStack)(spec, size)
