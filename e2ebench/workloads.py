"""The workloads: what each sends, how it is set up and checked.

Every workload is closed-loop with one client in one process.  A
workload's operations come from :meth:`Workload.plan`, a pure function
of the seed and the operation count.  Every operation holds the same
fixed mix of work, and :class:`Draw` deals its inputs so that every
seed uses each input value equally often: seeds change the inputs, not
the amount of work, and the operation count (hence the tail
percentile) is the same on every commit.

* ``fleet-live`` — poll cycles of a small federated fleet: sweep and
  ingest, a live tail consumer catching up through the HTTP service, a
  fleet-wide rollup.  It exercises the BG/Q, fleet, store, federation
  and service layers, and every ingest invalidates the aggregate cache.
* ``collect-chaos`` — rotations of MonEQ sessions over the catalog's
  live session and chaos packs plus a shared-GPU session that drives
  the channel cache's hit path: the paper's own subject, leaving the
  store and service untouched.
"""

from __future__ import annotations

import hashlib
import json
import random


#: Fewest operations a run makes: the p50 of 20 leaves 10 beyond it.
MIN_OPS = 20


class CheckFailed(Exception):
    """An operation's output did not match what it must be."""


def sub_seed(seed: int, *parts) -> int:
    """A 32-bit seed derived from ``seed`` and a path of labels."""
    text = "/".join([str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Draw:
    """Seeded, balanced parameter draws.

    ``draw(key, values)`` deals from a shuffled deck of ``values`` kept
    per ``key`` and reshuffled when empty, so over a run every value is
    used equally often whatever the seed: seeds change which inputs meet
    in one operation and in what order, not how much work the run does.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._decks: dict[str, list] = {}

    def __call__(self, key: str, values):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()


class Workload:
    """One closed-loop workload (subclasses fill in the hooks)."""

    name = ""
    #: Nominal operations per second on the reference host: a run makes
    #: ``--seconds`` times this many operations.
    ops_per_s = 1.0
    #: End every timed operation with a full garbage collection,
    #: inside its timing.
    collect_after_op = False
    #: ``items_per_s`` is the median over blocks of this many
    #: consecutive operations of each block's rate, or the whole run's
    #: rate when None (``common.block_rate``).
    rate_block_ops = None

    def n_ops(self, seconds: float) -> int:
        """At least :data:`MIN_OPS`, so a tail percentile exists."""
        return max(MIN_OPS, round(seconds * self.ops_per_s))

    def plan(self, seed: int, n_ops: int) -> list[dict]:
        """The operation list: pure in ``(seed, n_ops)``."""
        draw = Draw(random.Random(f"{self.name}/{seed}"))
        return [self.op(draw, index, seed) for index in range(n_ops)]

    def op(self, draw: Draw, index: int, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, seed: int, ops: list[dict]) -> None:
        """See the operation list before set-up builds anything."""

    def layer_notes(self, state) -> dict:
        """Per-layer figures only the workload itself can see."""
        return {}

    # and: build(seed) -> state; warm_up(state, seed); run(state, op) ->
    # outcome (timed); check(state, op, outcome) -> items completed.


# -- fleet-live -----------------------------------------------------------


class FleetLive(Workload):
    name = "fleet-live"
    sites = 2
    #: Six racks over four shards leave no shard empty, so every
    #: sweep invalidates every shard's aggregate cache.
    racks = 6
    shards_per_site = 4
    poll_s = 60.0
    backfill_sweeps = 12
    warm_up_cycles = 3
    tail_limit = 256
    ops_per_s = 5.0
    #: Cycles grow in cost with the history by design, so only the
    #: whole run's rate covers every history size; a block median
    #: would time the middle tenth of it.
    rate_block_ops = None

    def op(self, draw, index, seed):
        return {"kind": "cycle", "cycle": index}

    def sweep_time(self, cycle: int) -> float:
        """Virtual time of the sweep measured cycle ``cycle`` ingests."""
        return (self.backfill_sweeps + self.warm_up_cycles + cycle + 1) \
            * self.poll_s

    def build(self, seed):
        from repro.fleet import build_fleet
        from repro.service.app import ServiceClient, service_for_fleet

        fleet = build_fleet(n_sites=self.sites, racks=self.racks,
                            seed=sub_seed(seed, "fleet"),
                            poll_interval_s=self.poll_s,
                            shards_per_site=self.shards_per_site)
        fleet.advance_to(self.backfill_sweeps * self.poll_s + self.poll_s / 2)
        served = fleet.site(fleet.site_names[0]).store
        return {
            "fleet": fleet,
            "served": served,
            "client": ServiceClient(service_for_fleet(fleet)),
            # The consumer goes live at the end of the backfill.
            "cursors": {t: served.ingest_cursor for t in served.table_names},
            "consumed": served.records_ingested,
            "seen": set(),
            "lag": 0,
            "bytes": 0,
            "rows": 0,
        }

    def warm_up(self, state, seed):
        for cycle in range(-self.warm_up_cycles, 0):
            op = {"kind": "cycle", "cycle": cycle}
            self.check(state, op, self.run(state, op), account=False)

    def run(self, state, op):
        fleet, client = state["fleet"], state["client"]
        t_sweep = self.sweep_time(op["cycle"])
        before = {name: (site.envdb.polls_completed,
                         site.store.records_ingested,
                         site.store.dropped_records)
                  for name, site in fleet.sites.items()}
        fleet.advance_to(t_sweep + self.poll_s / 2)
        lag = state["served"].records_ingested - state["consumed"]
        pages, sent = [], 0
        for table in state["served"].table_names:
            while True:
                response = client.get("/v2/tail", {
                    "table": table, "cursor": state["cursors"][table],
                    "limit": self.tail_limit})
                sent += len(response.body)
                if response.status != 200:
                    pages.append((table, response.status, None))
                    break
                page = json.loads(response.body)
                pages.append((table, 200, page))
                state["cursors"][table] = page["cursor"]
                if page["count"] < self.tail_limit:
                    break
        response = client.get("/v2/query/aggregate", {
            "table": "bpm", "field": "input_power_w", "t0": t_sweep,
            "t1": t_sweep + self.poll_s / 2, "window": self.poll_s,
            "rollup": 1})
        sent += len(response.body)
        rollup = (response.status, json.loads(response.body))
        return before, lag, pages, rollup, sent

    def check(self, state, op, outcome, account=True) -> int:
        before, lag, pages, (status, rollup), sent = outcome
        fleet = state["fleet"]
        t_sweep = self.sweep_time(op["cycle"])
        accepted = {}
        for name, site in fleet.sites.items():
            polls0, records0, dropped0 = before[name]
            polls = site.envdb.polls_completed - polls0
            require(polls == 1, f"{name}: {polls} sweeps in one cycle")
            offered = site.envdb.sensors_per_poll * polls
            accepted[name] = site.store.records_ingested - records0
            dropped = site.store.dropped_records - dropped0
            require(accepted[name] + dropped == offered,
                    f"{name}: accepted {accepted[name]} + dropped {dropped} "
                    f"!= offered {offered}")
        seen = state["seen"]
        delivered = 0
        for table, page_status, page in pages:
            require(page_status == 200, f"tail {table}: status {page_status}")
            require(page["count"] == len(page["rows"]),
                    f"tail {table}: count != rows")
            for row in page["rows"]:
                key = (table, row["t"], row["location"])
                require(row["t"] == t_sweep and key not in seen,
                        f"tail {table}: {key} delivered twice or out of cycle")
                seen.add(key)
            delivered += len(page["rows"])
        served_name = fleet.site_names[0]
        require(delivered == accepted[served_name],
                f"consumer saw {delivered} of {accepted[served_name]} records")
        bpm_by_site = {name: len(site.store.range("bpm", t_sweep, t_sweep))
                       for name, site in fleet.sites.items()}
        require(status == 200, f"rollup: status {status}")
        require(len(rollup["rows"]) == 1
                and rollup["rows"][0]["window_start"] == t_sweep
                and rollup["rows"][0]["count"] == sum(bpm_by_site.values()),
                f"rollup {rollup['rows']} != per-site counts {bpm_by_site}")
        state["consumed"] += delivered
        if account:
            state["lag"] += lag
            state["bytes"] += sent
            state["rows"] += delivered + len(rollup["rows"])
        return sum(accepted.values())

    def layer_notes(self, state) -> dict:
        return {"consumer.lag_records": state["lag"],
                "service.bytes_per_row": state["bytes"] / state["rows"]}


# -- collect-chaos --------------------------------------------------------


class CollectChaos(Workload):
    name = "collect-chaos"
    #: One operation is one rotation: a session of every live session
    #: and chaos pack in the catalog, then the shared-device session.
    #: Sessions differ tenfold in cost, so the rotation is the unit
    #: that repeats; its latency is steady where a single session's
    #: depends on which pack it ran.  195 rotations keep the tail at
    #: p90, with 19 rotations beyond it.
    ops_per_s = 6.5
    #: The shared-device session: this many NVML consumers on one GPU
    #: (the channel cache's hit path), over this many ticks.
    shared_consumers = 8
    shared_ticks = 100
    #: One session in this many (plus the whole first rotation) is
    #: digest-checked against a cache-disabled reference.
    digest_check_every = 16
    #: Rotations run in set-up before timing (see :meth:`warm_up`).
    warm_up_rotations = 30
    #: Every timed rotation ends with a full collection, timed with
    #: it.  Sessions hold their MonEQ buffers in reference cycles, so
    #: reclaiming them is the rotation's own cost; left to the
    #: collector's schedule, how many earlier rotations' buffers still
    #: await it decides which buffers a rotation recycles (and zeroes)
    #: and which it maps fresh, and that history moves the rotation's
    #: time by a fifth from run to run.  The objects set-up leaves
    #: alive are frozen out of the collector first (``worker.py``), so
    #: the collection reclaims the rotation's own garbage.
    collect_after_op = True
    #: Rotations cost the same all run long, so a median over blocks
    #: of rotations holds through the few a busy host stalls.
    rate_block_ops = 10

    def __init__(self):
        from repro.api.packs import all_packs

        self.packs = {name: spec for name, spec in all_packs().items()
                      if spec.kind in ("session", "chaos")}
        self.sessions = tuple(self.packs) + ("shared-gpu",)

    def op(self, draw, index, seed):
        first = index * len(self.sessions)
        return {"kind": "rotation", "sessions": [
            {"kind": name, "seed": sub_seed(seed, "session", first + i),
             "digest": (index == 0 or draw(
                 name, range(self.digest_check_every)) == 0)}
            for i, name in enumerate(self.sessions)]}

    def prepare(self, seed: int, ops: list[dict]) -> None:
        """Plan the warm-up and note which sessions, warm-up and timed,
        set-up must compute references for."""
        self.warm_ops = self.plan(sub_seed(seed, "warm-up"),
                                  self.warm_up_rotations)
        self.checked = [session for op in self.warm_ops + ops
                        for session in op["sessions"] if session["digest"]]

    def build(self, seed):
        from repro.mech.cache import channel_cache_disabled

        state = {"reference": {}, "records": {}}
        with channel_cache_disabled():
            for session in self.checked:
                outputs = self.session(session)
                state["reference"][session["seed"]] = digest(outputs)
                records = record_count(outputs)
                if state["records"].setdefault(session["kind"],
                                               records) != records:
                    raise CheckFailed(f"{session['kind']}: record count "
                                      f"varies with the seed")
        return state

    def warm_up(self, state, seed):
        # Every session allocates MonEQ buffers sized for 262,144
        # records, held by reference cycles until a collection finds
        # them.  The first sessions of a process get the buffers as
        # fresh mappings; after glibc raises its mmap threshold they
        # come from the heap, which climbs by hundreds of megabytes.
        # The warm-up runs past that switch without forced
        # collections, so peak_rss_mb reports the climb.
        for op in self.warm_ops:
            self.check(state, op, self.run(state, op), account=False)

    def session(self, session: dict) -> dict[str, str]:
        """Run one session; its output files, path -> content."""
        if session["kind"] == "shared-gpu":
            return self.shared_gpu(session["seed"])
        from repro.api.packs import execute_scenario

        return execute_scenario(self.packs[session["kind"]],
                                seed=session["seed"]).outputs

    def shared_gpu(self, seed: int) -> dict[str, str]:
        from repro import testbeds
        from repro.core.moneq.backends import NvmlBackend
        from repro.core.moneq.config import MoneqConfig
        from repro.core.moneq.session import MoneqSession
        from repro.workloads.vectoradd import VectorAddWorkload

        node, gpu, _ = testbeds.gpu_node(seed=seed)
        gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
        backends = []
        for i in range(self.shared_consumers):
            backend = NvmlBackend(gpu)
            backend.label = f"{backend.label}.{i}"
            backends.append(backend)
        poll = backends[0].min_interval_s
        session = MoneqSession(
            backends, node.events, vfs=node.vfs,
            config=MoneqConfig(polling_interval_s=poll, block_ticks=256))
        node.events.run_until(self.shared_ticks * poll + poll / 2)
        result = session.finalize()
        return {path: node.vfs.read_text(path) for path in result.output_paths}

    def run(self, state, op):
        return [self.session(session) for session in op["sessions"]]

    def check(self, state, op, outcome, account=True) -> int:
        total = 0
        for session, outputs in zip(op["sessions"], outcome):
            kind, records = session["kind"], record_count(outputs)
            require(records == state["records"][kind],
                    f"{kind}: {records} records, expected "
                    f"{state['records'][kind]}")
            if session["digest"]:
                require(digest(outputs) == state["reference"][session["seed"]],
                        f"{kind} seed {session['seed']}: output differs "
                        f"from the cache-disabled reference")
            total += records
        return total


def digest(outputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for path in sorted(outputs):
        h.update(path.encode())
        h.update(b"\0")
        h.update(outputs[path].encode())
        h.update(b"\0")
    return h.hexdigest()


def record_count(outputs: dict[str, str]) -> int:
    """Records written across MonEQ output files (their headers)."""
    total = 0
    for content in outputs.values():
        header = content.split("\n", 2)[1]
        total += int(header.split("records=", 1)[1].split()[0])
    return total


WORKLOADS = {cls.name: cls for cls in (FleetLive, CollectChaos)}
