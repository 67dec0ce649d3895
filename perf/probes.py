"""The layer ladder: per-layer metrics measured from outside the program.

Three kinds of measurement, all taken with one client so counts repeat:

* **spans** from wrappers the benchmark installs on the instances it built
  (``OutsourcedDB.query``, ``ServiceProvider.execute``, ...).  A served
  workload's parties live in child processes, out of a wrapper's reach, so
  the same operations are replayed on an in-process *twin* built from the
  same dataset and the child's design, and the party spans come from there;
* **by-difference probes** for what happens between the processes: the PING
  round trip is the frame + asyncio + socket floor; a direct query's round
  trip minus the time the receipt says the parties spent, minus the wire
  codec replayed here, minus that floor, is the server's hop (admission wait,
  executor hand-off, and whatever nobody accounts for);
* **counts** read off the receipts (node accesses, pool and memo hits) and
  the pager counters, which are exact.

A probe reaches for party objects with ``getattr`` and simply reports nothing
when one is gone; the caller prints such a metric as not applicable.  No
end-to-end metric depends on anything in this file.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto.digest import default_scheme
from repro.crypto.encoding import encode_record
from repro.network import wire
from repro.storage.node_codec import decode_node, encode_node

from perf.passes import RECORD_SAMPLE, Tally, sequence
from perf.tracing import Recorder, Span, timed_us
from perf.workloads import Bounds, Change, Deployment, InProcess, Oracle, Scale, Served

PING_SAMPLES = 200


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _resolve(root: Any, *path: str) -> Any:
    """``root.a.b.c`` by ``getattr``, or ``None`` as soon as a link is gone."""
    for name in path:
        root = getattr(root, name, None)
        if root is None:
            return None
    return root


# ---------------------------------------------------------------------- wrappers
def install(recorder: Recorder, subject: InProcess, notes: List[str]) -> None:
    """Wrap the public entry point of every in-process layer of ``subject``."""
    db = subject.db
    system = _resolve(db, "system")
    tom = subject.workload.scheme == "tom"
    plan = [
        (db, "query", "core.scheme.query"),
        (db, "query_many", "core.scheme.query"),
        (db, "apply_updates", "core.scheme.apply_updates"),
        (_resolve(db, "provider"), "execute",
         "tom.entities.execute" if tom else "core.provider.execute"),
        (_resolve(system, "client"), "verify",
         "tom.verification.verify" if tom else "core.client.verify"),
    ]
    if not tom:
        trusted = _resolve(system, "trusted_entity")
        plan += [
            (trusted, "generate_vt", "core.trusted_entity.generate_vt"),
            (trusted, "generate_vt_batch", "core.trusted_entity.generate_vt"),
        ]
    for target, method, name in plan:
        if not recorder.wrap(target, method, name):
            notes.append(f"probe_missing: {name} ({method})")


def _pager_counters(subject: InProcess) -> List[Any]:
    """The page-I/O counters behind the SP index and the TE's XB-tree."""
    db = subject.db
    stores = [
        _resolve(db, "provider", "node_store"),
        _resolve(db, "system", "trusted_entity", "xbtree", "store"),
    ]
    counters = [_resolve(store, "pool", "pager", "counter") for store in stores]
    return [counter for counter in counters if counter is not None]


def _page_io(counters: Sequence[Any]) -> Tuple[int, int]:
    return (
        sum(counter.page_reads for counter in counters),
        sum(counter.page_writes for counter in counters),
    )


# ---------------------------------------------------------------------- span maths
def _query_requests(recorder: Recorder, prefix: str) -> Dict[str, List[Span]]:
    return {
        rid: spans for rid, spans in recorder.by_request(prefix + ":").items()
        if not rid.split(":", 1)[1].startswith("u")
    }


def _per_op_ms(requests: Dict[str, List[Span]], name: str, per_call: int) -> Optional[float]:
    """Median over operations of the layer's span time, per query."""
    totals = [
        sum(span.duration for span in spans if span.name == name) * 1000.0 / per_call
        for spans in requests.values()
        if any(span.name == name for span in spans)
    ]
    return median(totals) if totals else None


# ---------------------------------------------------------------------- the ladder
def traced_ladder(
    deployment: Deployment, oracle: Oracle, ops: Sequence[Tuple[Bounds, ...]],
    reference_ops: Sequence[Tuple[Bounds, ...]],
    batches: Optional[Iterator[Sequence[Change]]], recorder: Recorder,
    workdir: str, scale: Scale,
) -> Tuple[Dict[str, float], List[str], List[Tally]]:
    """Run the traced pass and every probe; returns (metrics, notes, tallies)."""
    workload = deployment.workload
    notes: List[str] = []
    metrics: Dict[str, float] = {}

    def put(name: str, value: Optional[float]) -> None:
        if value is not None:
            metrics[name] = float(value)

    # The parties are wrapped where they run in this process: the deployment
    # itself, or the in-process twin of a served one.
    traced_prefix = f"{workload.name}/t"
    twin: Optional[InProcess] = None
    try:
        if isinstance(deployment, InProcess):
            subject, party_prefix = deployment, traced_prefix
        else:
            twin = InProcess(
                workload, scale, f"{workdir}-twin", storage="paged",
                design=workload.design.shard_local(),
            )
            subject, party_prefix = twin.setup(), f"{workload.name}/twin"
            span_name = f"network.{'fleet' if workload.transport == 'fleet' else 'client'}.query"
            recorder.wrap(deployment.target, "query", span_name)
            recorder.wrap(deployment.target, "query_many", span_name)
        install(recorder, subject, notes)
        counters = _pager_counters(subject) if twin is None else []
        reads_before, writes_before = _page_io(counters)
        traced, reference = sequence(
            deployment, oracle, ops, batches, recorder, traced_prefix, reference_ops
        )
        reads, writes = _page_io(counters)
        tallies = [traced, reference]
        if twin is not None:
            tallies.append(sequence(twin, oracle, ops, None, recorder, party_prefix)[0])
        recorder.unwrap_all()

        receipts = [receipt for call in traced.receipts for receipt in call]
        queries = max(1, len(receipts))
        issued = queries + len(reference.latencies_ms)  # what the pager counters saw
        requests = _query_requests(recorder, party_prefix)
        updates = _span_metrics(recorder, requests, party_prefix, traced_prefix, workload.batch, put)
        _receipt_metrics(workload.scheme, subject, receipts, queries, put, notes)
        if counters:
            put("storage.pager.page_reads_per_op", (reads - reads_before) / issued)
            if updates:
                put("storage.pager.page_writes_per_update", (writes - writes_before) / updates)
        if isinstance(deployment, Served):
            scheme_ms = [
                sum(span.duration for span in requests.get(f"{party_prefix}:{index}", ())
                    if span.name == "core.scheme.query") * 1000.0
                for index in range(len(ops))
            ]
            _network_probes(deployment, traced, ops, scheme_ms, put)
            if workload.transport == "fleet":
                put("network.fleet.legs_per_op", mean([len(r.legs) for r in receipts]))
                put("network.fleet.leg_retries",
                    sum(len(leg.failed_replicas) for r in receipts for leg in r.legs))
        _crypto_probe(traced, put)
        _codec_probe(subject, put)

        # Can the numbers above be trusted?
        if traced.wall_s > 0:
            put("trace.coverage",
                sum(recorder.self_times(traced_prefix + ":").values()) / traced.wall_s)
        if reference.call_ms:
            put("trace.overhead_share",
                median(traced.call_ms) / median(reference.call_ms) - 1.0)
    finally:
        recorder.unwrap_all()
        if twin is not None:
            twin.close()
    return metrics, notes, tallies


def _span_metrics(
    recorder: Recorder, requests: Dict[str, List[Span]], party_prefix: str,
    traced_prefix: str, per_call: int, put: Any,
) -> int:
    """``core.*`` / ``tom.*`` times off the party spans; returns the updates seen."""
    for name in (
        "core.scheme.query", "core.provider.execute", "core.trusted_entity.generate_vt",
        "core.client.verify", "tom.entities.execute", "tom.verification.verify",
    ):
        put(f"{name}_ms_per_op", _per_op_ms(requests, name, per_call))
    self_times = recorder.self_times(party_prefix + ":")
    put("core.scheme.dispatch_ms_per_op", median([
        sum(self_times[s.span_id] for s in spans if s.name == "core.scheme.query")
        * 1000.0 / per_call
        for spans in requests.values()
    ]) if requests else None)
    updates = [
        span.duration * 1000.0 for span in recorder.spans
        if span.name == "core.scheme.apply_updates"
        and span.request_id.startswith(traced_prefix + ":u")
    ]
    put("core.scheme.apply_updates_ms_per_op", median(updates) if updates else None)
    return len(updates)


def _receipt_metrics(
    scheme: str, subject: InProcess, receipts: Sequence[Any], queries: int,
    put: Any, notes: List[str],
) -> None:
    """Counts off the traced receipts: exact, because one client sent them."""
    sp_accesses = mean([r.sp.node_accesses for r in receipts])
    if scheme == "tom":
        put("tom.entities.node_accesses_per_op", sp_accesses)
        put("tom.vo.bytes_per_op", mean([r.auth_bytes for r in receipts]))
        verifier = _resolve(subject.db, "system", "root_verifier")
        if verifier is None:
            notes.append("probe_missing: crypto.signatures.cache_hit_rate (root_verifier)")
        elif verifier.hits + verifier.misses:
            put("crypto.signatures.cache_hit_rate",
                verifier.hits / (verifier.hits + verifier.misses))
    else:
        put("core.provider.node_accesses_per_op", sp_accesses)
        put("core.trusted_entity.node_accesses_per_op",
            mean([r.te.node_accesses for r in receipts]))
    memo_hits = sum(r.sp.memo_hits + r.te.memo_hits for r in receipts)
    memo_all = memo_hits + sum(r.sp.memo_misses + r.te.memo_misses for r in receipts)
    put("crypto.digest.memo_hit_rate", memo_hits / memo_all if memo_all else None)
    pool_hits = sum(r.sp.pool_hits + r.te.pool_hits for r in receipts)
    pool_misses = sum(r.sp.pool_misses + r.te.pool_misses for r in receipts)
    if pool_hits + pool_misses:  # both zero on the memory tier: there is no pool
        put("storage.buffer_pool.hit_rate", pool_hits / (pool_hits + pool_misses))
        put("storage.buffer_pool.misses_per_op", pool_misses / queries)
        put("storage.buffer_pool.evictions_per_op",
            sum(r.sp.pool_evictions + r.te.pool_evictions for r in receipts) / queries)


def _crypto_probe(traced: Tally, put: Any) -> None:
    """``encode_record`` and the digest over records the traced pass returned."""
    sample = traced.record_sample
    if not sample:
        return
    encode_us = timed_us(encode_record, sample)
    hash_us = timed_us(default_scheme().hash, [encode_record(record) for record in sample])
    put("crypto.encoding.encode_us_per_record", encode_us)
    put("crypto.digest.hash_us_per_record", hash_us)
    if traced.wall_s > 0:
        put("crypto.self_share_of_wall",
            traced.records_returned * (encode_us + hash_us) * 1e-6 / traced.wall_s)


def _codec_probe(subject: InProcess, put: Any) -> None:
    """``encode_node`` / ``decode_node`` over the real nodes of a paged store."""
    store = _resolve(subject.db, "provider", "node_store")
    refs = getattr(store, "node_refs", None)
    if refs is None:  # the memory tier keeps object graphs: nothing is encoded
        return
    nodes = [store.load(ref) for ref in refs()[:RECORD_SAMPLE]]
    blobs = [encode_node(node) for node in nodes]
    put("storage.node_codec.encode_us_per_node", timed_us(encode_node, nodes))
    put("storage.node_codec.decode_us_per_node", timed_us(decode_node, blobs))
    put("storage.node_codec.bytes_per_node", mean([len(blob) for blob in blobs]))


def _wire_view(outcome: Any) -> SimpleNamespace:
    """A served outcome in the shape ``outcome_to_wire`` takes from a scheme."""
    return SimpleNamespace(
        records=outcome.records,
        verified=outcome.verified,
        receipt=outcome.receipt,
        verification=SimpleNamespace(reason=outcome.reason, details={}),
    )


def _wire_replay(outcomes: Sequence[Any], scheme: str) -> Tuple[float, float, int]:
    """(encode ms, decode ms, frame bytes) of one call's response frame."""
    views = [_wire_view(outcome) for outcome in outcomes]
    begun = time.perf_counter()
    if len(views) == 1:
        payload = wire.outcome_to_wire(views[0], scheme=scheme, epoch=0)
        frame = wire.encode_frame(wire.FRAME_OUTCOME, payload)
    else:
        payload = [wire.outcome_to_wire(view, scheme=scheme, epoch=0) for view in views]
        frame = wire.encode_frame(wire.FRAME_OUTCOMES, payload)
    encoded = time.perf_counter()
    decoded_payload = wire.decode_value(frame[wire.FRAME_HEADER.size:])
    for item in (decoded_payload if len(views) > 1 else [decoded_payload]):
        wire.outcome_from_wire(item)
    decoded = time.perf_counter()
    return (encoded - begun) * 1000.0, (decoded - encoded) * 1000.0, len(frame)


def _network_probes(
    deployment: Served, traced: Tally, ops: Sequence[Tuple[Bounds, ...]],
    scheme_ms: Sequence[float], put: Any,
) -> None:
    """PING floor, direct-to-child round trips, wire replay, hop, router overhead.

    ``scheme_ms`` is what the in-process twin spent inside ``query`` /
    ``query_many`` on each of the same calls: the child's share of a round
    trip that is not hop.  (The receipts' party times cannot stand in for it:
    a batch's legs overlap on pool threads, so their times do not add up.)
    """
    workload = deployment.workload
    per_call = workload.batch
    clients = [deployment.direct_client(s) for s in range(deployment.manager.num_shards)]

    async def measure() -> Tuple[List[float], List[List[Tuple[float, float, float, int]]]]:
        try:
            pings = []
            for _ in range(PING_SAMPLES):
                begun = time.perf_counter()
                await clients[0].ping()
                pings.append((time.perf_counter() - begun) * 1000.0)
            # The same bounds straight to each child the router scattered to,
            # one at a time: the slowest leg is what a perfect router waits for.
            # Per call: every leg's (rtt, encode ms, decode ms, frame bytes).
            legs = []
            for bounds, routed in zip(ops, traced.receipts):
                shards = sorted({leg.shard for receipt in routed for leg in receipt.legs}) or [0]
                call = []
                for shard in shards:
                    begun = time.perf_counter()
                    if per_call == 1:
                        outcomes = [await clients[shard].query(*bounds[0])]
                    else:
                        outcomes = await clients[shard].query_many(list(bounds))
                    rtt = (time.perf_counter() - begun) * 1000.0
                    call.append((rtt, *_wire_replay(outcomes, workload.scheme)))
                legs.append(call)
            return pings, legs
        finally:
            for client in clients:
                await client.aclose()

    (pings, legs), = deployment.run(measure())
    floor = median(pings)
    slowest = [max(call) for call in legs]
    put("network.server.ping_rtt_ms", floor)
    put("network.client.direct_rtt_ms_per_op", median([leg[0] / per_call for leg in slowest]))
    for position, name in ((1, "encode_ms"), (2, "decode_ms")):
        put(f"network.wire.{name}_per_op",
            median([sum(leg[position] for leg in call) / per_call for call in legs]))
    put("network.wire.frame_bytes_per_op",
        mean([sum(leg[3] for leg in call) / per_call for call in legs]))
    put("network.server.hop_ms_per_op", median([
        (rtt - inside - encode_ms - decode_ms - floor) / per_call
        for (rtt, encode_ms, decode_ms, _), inside in zip(slowest, scheme_ms)
    ]))
    if workload.transport == "fleet" and len(traced.call_ms) == len(slowest):
        put("network.fleet.router_overhead_ms_per_op", median([
            routed_ms * per_call - leg[0] for routed_ms, leg in zip(traced.call_ms, slowest)
        ]))


def calibration_score() -> float:
    """Thousands of iterations per second of a fixed pure-Python loop.

    Printed so numbers from different hosts can be read side by side; the
    end-to-end metrics are *not* normalised by it.
    """
    best = float("inf")
    for _ in range(3):
        begun = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += (i * i) % 7
        best = min(best, time.perf_counter() - begun)
    return 200.0 / best
