"""Offline physical-design advisor: replay a receipt trace, recommend a design.

``repro tune`` closes the loop the ISSUE's tentpole opens: record a
production workload as a receipt trace (:mod:`repro.workloads.trace`),
replay it here through an analytic cost model against candidate
:class:`~repro.core.design.PhysicalDesign` values, and emit the cheapest
candidate as a ``design.json`` ready for ``--design`` on ``serve`` /
``serve-fleet`` / ``bench run-load``.

The model follows mongodb-d4's design-scoring idiom: every candidate is
scored by *simulating the buffer pool* -- a pinning LRU per shard and party
with ``pool_pages`` frames, the analytic twin of
:class:`~repro.storage.pool.BufferPool` -- over the page accesses the
candidate's tree shape implies for each traced query, so a design is
charged for the *physical* misses its cache would actually take, not the
logical accesses alone.  Per query the model charges

* **I/O**: the slowest shard leg's simulated page accesses, a miss costing
  a seek plus a ``page_size``-proportional transfer (at the default page
  size a miss equals the paper's 10 ms logical charge, so the replayed
  response time lines up with :func:`repro.experiments.scaling.model_response_ms`
  on a cold pool) and a hit costing a nominal in-memory touch;
* **CPU**: a fixed per-access charge times the candidate's logical
  accesses, plus a fixed per-record client verification charge.  The
  trace's measured CPU is not read, so one trace replays to the same costs
  on any host under any load;
* **channel**: the traced auth/result bytes over a nominal link, plus a
  fixed per-extra-leg envelope overhead;
* **memory rent**: a small charge per resident pool byte, so a candidate
  only grows its pools when the saved misses pay for them.

Workload knowledge comes from the trace alone: a key-density histogram is
estimated from the traced ``(bounds, cardinality)`` pairs, and the query
*load* histogram (records touched per domain slice) supplies the
load-weighted cut-point candidates that split hot ranges across shards.
The search is greedy coordinate descent over cut points, ``page_size``
(i.e. tree fanout), ``pool_pages`` and ``batch_size``.

:func:`run_tuning_bench` is the gated proof: on a Zipf-skewed workload the
recommended design must beat :meth:`PhysicalDesign.default_for` on replayed
cost (9.8 % on the seeded trace) *and* win a live ``run_load`` rematch on
deterministic model qps.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.btree.node import NodeLayout
from repro.core.design import PhysicalDesign
from repro.storage.constants import DEFAULT_NODE_ACCESS_MS, DEFAULT_PAGE_SIZE
from repro.workloads.trace import Trace, TraceEntry

#: Histogram resolution for the key-density / query-load estimates.
HISTOGRAM_BUCKETS = 1024

#: Simulated cost of a buffer-pool hit (an in-memory page touch).
POOL_HIT_MS = 0.1

#: Seek share of a simulated miss; the transfer share is sized so a miss at
#: the default page size costs exactly the paper's per-access charge.
SEEK_MS = 0.8 * DEFAULT_NODE_ACCESS_MS
_TRANSFER_BYTES_PER_MS = DEFAULT_PAGE_SIZE / (DEFAULT_NODE_ACCESS_MS - SEEK_MS)

#: CPU charged per logical node access and per result record the client
#: verifies: the uncontended rates of a one-client batched run on a 2-core
#: host (0.94-1.06 µs per access, 0.99-1.45 µs per record), rounded.  Fixed
#: so that a design's score depends on counts alone.
CPU_MS_PER_ACCESS = 0.001
CLIENT_MS_PER_RECORD = 0.0015

#: Nominal client link for the channel term (1 Gbit/s in bytes per ms).
CHANNEL_BYTES_PER_MS = 125_000.0

#: Fixed envelope overhead charged per shard leg beyond the first.
EXTRA_LEG_BYTES = 256

#: Rent per resident pool MiB per query -- the knob that stops "grow the
#: pool forever" from being a free lunch.
MEMORY_RENT_MS_PER_MIB = 0.01

#: Candidate grids for the coordinate-descent search.
PAGE_SIZE_CANDIDATES: Tuple[int, ...] = (1024, 2048, 4096, 8192)
POOL_PAGES_CANDIDATES: Tuple[int, ...] = (32, 64, 128, 256, 512)
BATCH_SIZE_CANDIDATES: Tuple[int, ...] = (1, 8, 25, 50, 100)


class TuningError(ValueError):
    """Raised when a trace cannot support tuning (empty, unparseable bounds)."""


def miss_cost_ms(page_size: int) -> float:
    """Simulated cost of one buffer-pool miss at ``page_size``."""
    return SEEK_MS + page_size / _TRANSFER_BYTES_PER_MS


# ------------------------------------------------------------------ workload profile
@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor learned about the traced workload.

    ``record_density[i]`` estimates how many relation records live in
    histogram bucket ``i`` (mean of the per-query density observations
    covering the bucket, rescaled to ``cardinality`` when the trace header
    knows it); ``load[i]`` is how many record touches the *queries* spent
    there -- the histogram the load-weighted cuts equalise.  ``te_ratio``
    is the traced TE-to-SP node-access ratio.  The trace's measured CPU is
    not read: the replay charges :data:`CPU_MS_PER_ACCESS` and
    :data:`CLIENT_MS_PER_RECORD`.
    """

    domain: Tuple[float, float]
    record_density: Tuple[float, ...]
    load: Tuple[float, ...]
    cardinality: float
    te_ratio: float

    @property
    def bucket_width(self) -> float:
        low, high = self.domain
        return max(1e-9, (high - low) / len(self.record_density))

    def _bucket_range(self, low: Any, high: Any) -> Tuple[int, int]:
        """Histogram buckets overlapped by ``[low, high]`` (inclusive)."""
        lo_dom, hi_dom = self.domain
        width = self.bucket_width
        first = int((float(low) - lo_dom) / width)
        last = int((float(high) - lo_dom) / width)
        top = len(self.record_density) - 1
        return max(0, min(top, first)), max(0, min(top, last))

    def records_between(self, low: Any, high: Any) -> float:
        """Estimated relation records with keys in ``[low, high]``."""
        if float(high) < float(low):
            return 0.0
        first, last = self._bucket_range(low, high)
        return sum(self.record_density[first:last + 1])

    def split_mass(
        self, low: Any, high: Any, edges: Sequence[Tuple[float, float]]
    ) -> List[float]:
        """Share of ``[low, high]``'s record mass inside each edge interval.

        Normalised to sum to 1 over the non-empty intervals; when the
        density estimate has no mass in the range the split falls back to
        interval width, so degenerate traces still route sanely.
        """
        masses = [
            self.records_between(max(float(low), lo), min(float(high), hi))
            for lo, hi in edges
        ]
        total = sum(masses)
        if total <= 0:
            masses = [
                max(0.0, min(float(high), hi) - max(float(low), lo))
                for lo, hi in edges
            ]
            total = sum(masses)
        if total <= 0:
            return [1.0 / len(edges)] * len(edges)
        return [mass / total for mass in masses]


def profile_workload(
    entries: Sequence[TraceEntry],
    cardinality: Optional[int] = None,
    buckets: int = HISTOGRAM_BUCKETS,
) -> WorkloadProfile:
    """Estimate the workload profile a trace implies (numeric keys only)."""
    if not entries:
        raise TuningError("cannot tune from an empty trace")
    try:
        lows = [float(entry.low) for entry in entries]
        highs = [float(entry.high) for entry in entries]
    except (TypeError, ValueError) as exc:
        raise TuningError(
            "the tuning advisor needs numeric query bounds; this trace's "
            f"bounds are not numbers ({exc})"
        ) from exc
    lo_dom, hi_dom = min(lows), max(highs)
    if hi_dom <= lo_dom:
        hi_dom = lo_dom + 1.0
    width = (hi_dom - lo_dom) / buckets
    density_sum = [0.0] * buckets
    density_n = [0] * buckets
    load = [0.0] * buckets
    for entry, low, high in zip(entries, lows, highs):
        if high < low:
            continue
        first = max(0, min(buckets - 1, int((low - lo_dom) / width)))
        last = max(0, min(buckets - 1, int((high - lo_dom) / width)))
        span = last - first + 1
        per_bucket = entry.records / span
        for index in range(first, last + 1):
            density_sum[index] += per_bucket
            density_n[index] += 1
            load[index] += per_bucket
    density = [
        total / count if count else 0.0
        for total, count in zip(density_sum, density_n)
    ]
    mass = sum(density)
    if cardinality and mass > 0:
        scale = cardinality / mass
        density = [value * scale for value in density]
    total_sp = sum(e.sp_accesses for e in entries)
    total_te = sum(e.te_accesses for e in entries)
    return WorkloadProfile(
        domain=(lo_dom, hi_dom),
        record_density=tuple(density),
        load=tuple(load),
        cardinality=float(cardinality) if cardinality else max(1.0, sum(density)),
        te_ratio=(total_te / total_sp) if total_sp else 1.0,
    )


# ------------------------------------------------------------------ buffer-pool sim
class SimulatedPool:
    """The analytic twin of the pinning LRU :class:`~repro.storage.pool.BufferPool`.

    One instance per (shard, party) candidate pool, ``capacity`` frames of
    simulated pages keyed by opaque page ids; :meth:`touch` returns whether
    the access hit.  Mirrors mongodb-d4's per-node ``FastLRUBufferWithWindow``:
    the point is not byte-accurate caching but charging candidates for the
    re-reference behaviour their shape produces.
    """

    __slots__ = ("capacity", "_frames", "hits", "misses")

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self._frames: "OrderedDict[Any, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, page_id: Any) -> bool:
        """Access one page; returns ``True`` on a hit."""
        frames = self._frames
        if page_id in frames:
            frames.move_to_end(page_id)
            self.hits += 1
            return True
        frames[page_id] = None
        if len(frames) > self.capacity:
            frames.popitem(last=False)
        self.misses += 1
        return False


# ------------------------------------------------------------------ replay model
@dataclass(frozen=True)
class ReplayCost:
    """The replayed cost of one trace under one candidate design."""

    io_ms: float
    cpu_ms: float
    channel_ms: float
    rent_ms: float
    pool_hits: int
    pool_misses: int
    queries: int

    @property
    def total_ms(self) -> float:
        """The score the search minimises."""
        return self.io_ms + self.cpu_ms + self.channel_ms + self.rent_ms


@dataclass(frozen=True)
class _ShardShape:
    """Derived tree shape of one shard under a candidate design."""

    interval: Tuple[float, float]
    records: float
    num_leaves: int
    height: int
    first_key: float


def _shard_shapes(
    design: PhysicalDesign, profile: WorkloadProfile
) -> List[_ShardShape]:
    layout = NodeLayout(page_size=design.page_size)
    lo_dom, hi_dom = profile.domain
    cuts = [float(cut) for cut in (design.cut_points or ())]
    edges: List[Tuple[float, float]] = []
    previous = lo_dom
    for cut in cuts:
        edges.append((previous, float(cut)))
        previous = float(cut)
    edges.append((previous, hi_dom))
    while len(edges) < design.shards:  # cuts outside the traced domain
        edges.append((hi_dom, hi_dom))
    shapes = []
    for interval in edges[: design.shards]:
        records = profile.records_between(interval[0], interval[1])
        num_leaves = max(1, math.ceil(records / layout.leaf_capacity))
        height = 1
        nodes = num_leaves
        while nodes > 1:
            nodes = math.ceil(nodes / layout.internal_capacity)
            height += 1
        shapes.append(
            _ShardShape(
                interval=interval,
                records=records,
                num_leaves=num_leaves,
                height=height,
                first_key=interval[0],
            )
        )
    return shapes


def replay_trace(
    entries: Sequence[TraceEntry],
    design: PhysicalDesign,
    profile: Optional[WorkloadProfile] = None,
) -> ReplayCost:
    """Replay a trace through the cost model under ``design``.

    Queries replay in trace order against warm per-(shard, party) simulated
    pools, so a candidate is scored on the page re-reference behaviour its
    own tree shape and pool capacity produce -- the mongodb-d4 idiom.
    """
    if profile is None:
        profile = profile_workload(entries)
    shapes = _shard_shapes(design, profile)
    layout = NodeLayout(page_size=design.page_size)
    miss_ms = miss_cost_ms(design.page_size)
    pools: Dict[Tuple[int, str], SimulatedPool] = {
        (shard, party): SimulatedPool(design.pool_pages)
        for shard in range(design.shards)
        for party in ("sp", "te")
    }
    # Shared descents per batch: in batched mode a shard's internal walk is
    # shared by the queries of a batch that overlap it, so the descent
    # amortises by the batch size (capped by the walk-sharing window the
    # engines actually use).
    descent_share = float(min(design.batch_size, 32))
    rent_mib = (
        2 * design.shards * design.pool_pages * design.page_size
    ) / (1024.0 * 1024.0)
    rent_per_query = rent_mib * MEMORY_RENT_MS_PER_MIB
    io_ms = cpu_ms = channel_ms = rent_ms = 0.0
    for entry in entries:
        try:
            low, high = float(entry.low), float(entry.high)
        except (TypeError, ValueError) as exc:
            raise TuningError(f"non-numeric query bounds in trace: {exc}") from exc
        if high < low:  # degenerate query: routing charge only
            rent_ms += rent_per_query
            continue
        shares = profile.split_mass(
            low, high, [shape.interval for shape in shapes]
        )
        overlapped = [
            (shard, share)
            for shard, share in enumerate(shares)
            if shapes[shard].interval[1] >= low and shapes[shard].interval[0] <= high
        ] or [(0, 1.0)]
        legs = 0
        logical_total = 0.0
        slowest_leg_ms = 0.0
        for shard, share in overlapped:
            shape = shapes[shard]
            records_here = entry.records * share
            leaves = max(1, math.ceil(records_here / layout.leaf_capacity))
            leaves = min(leaves, shape.num_leaves)
            before = profile.records_between(shape.first_key, max(shape.first_key, low) - 1)
            first_leaf = min(
                shape.num_leaves - 1, int(before // layout.leaf_capacity)
            )
            leg_ms = 0.0
            leg_logical = 0.0
            for party, weight in (("sp", 1.0), ("te", profile.te_ratio)):
                pool = pools[(shard, party)]
                party_ms = 0.0
                # Root-to-leaf descent, amortised across the batch window.
                position = first_leaf
                for level in range(shape.height - 1, 0, -1):
                    position = position // layout.internal_capacity
                    hit = pool.touch((party, "i", level, position))
                    party_ms += (POOL_HIT_MS if hit else miss_ms) / descent_share
                # The leaf scan itself.
                for leaf in range(first_leaf, first_leaf + leaves):
                    hit = pool.touch((party, "l", leaf % shape.num_leaves))
                    party_ms += POOL_HIT_MS if hit else miss_ms
                party_ms *= max(weight, 0.0) if party == "te" else 1.0
                leg_ms = max(leg_ms, party_ms)
                leg_logical += ((shape.height - 1) + leaves) * (
                    weight if party == "te" else 1.0
                )
            slowest_leg_ms = max(slowest_leg_ms, leg_ms)
            logical_total += leg_logical
            legs += 1
        io_ms += slowest_leg_ms
        cpu_ms += (
            logical_total * CPU_MS_PER_ACCESS
            + entry.records * CLIENT_MS_PER_RECORD
        )
        channel_ms += (
            entry.auth_bytes
            + entry.result_bytes
            + max(0, legs - 1) * EXTRA_LEG_BYTES
        ) / CHANNEL_BYTES_PER_MS
        rent_ms += rent_per_query
    return ReplayCost(
        io_ms=io_ms,
        cpu_ms=cpu_ms,
        channel_ms=channel_ms,
        rent_ms=rent_ms,
        pool_hits=sum(pool.hits for pool in pools.values()),
        pool_misses=sum(pool.misses for pool in pools.values()),
        queries=len(entries),
    )


# ------------------------------------------------------------------ cut candidates
def _cuts_from_histogram(
    values: Sequence[float], domain: Tuple[float, float], shards: int
) -> Optional[Tuple[int, ...]]:
    """Cut points splitting a histogram into ``shards`` equal-mass parts."""
    if shards <= 1:
        return None
    total = sum(values)
    if total <= 0:
        return None
    lo_dom, hi_dom = domain
    width = (hi_dom - lo_dom) / len(values)
    cuts: List[int] = []
    acc = 0.0
    target = 1
    for index, value in enumerate(values):
        acc += value
        while target < shards and acc >= total * target / shards:
            cuts.append(int(lo_dom + (index + 1) * width))
            target += 1
    while len(cuts) < shards - 1:
        cuts.append(int(hi_dom))
    cuts = sorted(cuts)
    if len(set(cuts)) != len(cuts):  # degenerate mass concentration
        step = max(1, int(width))
        cuts = sorted({cut + offset * step for offset, cut in enumerate(cuts)})
        if len(cuts) != shards - 1:
            return None
    return tuple(cuts)


def cut_candidates(
    profile: WorkloadProfile, shards: int, current: Optional[Tuple[Any, ...]]
) -> List[Optional[Tuple[Any, ...]]]:
    """Candidate cut-point vectors for ``shards`` shards.

    ``record-balanced`` equalises estimated relation records per shard (the
    historical :meth:`ShardRouter.from_dataset` behaviour); ``load-weighted``
    equalises *query load* per shard, which under a skewed workload pulls
    the cuts into the hot region so hot queries scatter instead of queueing
    on one shard.  The serving design's own cuts stay in the running.
    """
    candidates: List[Optional[Tuple[Any, ...]]] = []
    for histogram in (profile.record_density, profile.load):
        cuts = _cuts_from_histogram(histogram, profile.domain, shards)
        if cuts is not None and cuts not in candidates:
            candidates.append(cuts)
    if current is not None and tuple(current) not in candidates:
        candidates.append(tuple(current))
    if not candidates:
        candidates.append(None)
    return candidates


# ------------------------------------------------------------------ search
@dataclass(frozen=True)
class TuningResult:
    """The advisor's verdict on one trace."""

    baseline: PhysicalDesign
    recommended: PhysicalDesign
    baseline_cost: ReplayCost
    recommended_cost: ReplayCost
    evaluations: int
    trace_queries: int
    notes: Tuple[str, ...] = ()

    @property
    def improvement_pct(self) -> float:
        """Replayed-cost reduction of the recommendation over the baseline."""
        if self.baseline_cost.total_ms <= 0:
            return 0.0
        return 100.0 * (
            1.0 - self.recommended_cost.total_ms / self.baseline_cost.total_ms
        )


def tune_design(
    trace: Trace,
    baseline: Optional[PhysicalDesign] = None,
    shards: Optional[int] = None,
    rounds: int = 2,
) -> TuningResult:
    """Search for a cheaper design for ``trace``'s workload.

    ``baseline`` defaults to the design the trace was recorded against
    (from the trace header) or a stock single-shard design; ``shards``
    overrides the shard count the search designs for (the shard count is a
    capacity decision, the advisor optimises the layout *given* it).
    Greedy coordinate descent over cut points, page size, pool pages and
    batch size, ``rounds`` passes.
    """
    entries = list(trace.entries)
    if not entries:
        raise TuningError("cannot tune from an empty trace")
    meta_design = trace.meta.get("design")
    if baseline is None:
        baseline = (
            PhysicalDesign.from_json_dict(meta_design)
            if meta_design
            else PhysicalDesign()
        )
    if shards is not None and shards != baseline.shards:
        baseline = baseline.with_overrides(shards=shards)
    cardinality = trace.meta.get("cardinality")
    profile = profile_workload(
        entries, cardinality=int(cardinality) if cardinality else None
    )
    evaluations = 0
    cache: Dict[PhysicalDesign, ReplayCost] = {}

    def score(design: PhysicalDesign) -> ReplayCost:
        nonlocal evaluations
        cached = cache.get(design)
        if cached is None:
            cached = replay_trace(entries, design, profile)
            cache[design] = cached
            evaluations += 1
        return cached

    baseline_cost = score(baseline)
    best, best_cost = baseline, baseline_cost
    notes: List[str] = []
    for _ in range(max(1, rounds)):
        for knob in ("cut_points", "page_size", "pool_pages", "batch_size"):
            if knob == "cut_points":
                values: Sequence[Any] = cut_candidates(
                    profile, best.shards, best.cut_points
                )
            elif knob == "page_size":
                values = PAGE_SIZE_CANDIDATES
            elif knob == "pool_pages":
                values = POOL_PAGES_CANDIDATES
            else:
                values = BATCH_SIZE_CANDIDATES
            for value in values:
                candidate = replace(best, **{knob: value})
                candidate_cost = score(candidate)
                if candidate_cost.total_ms < best_cost.total_ms:
                    best, best_cost = candidate, candidate_cost
    if best.shards > 1 and best.cut_points is None:
        # A sharded recommendation must spell its cuts out: downstream
        # consumers (`repro migrate`, fleet manifests) need boundaries every
        # client can agree on, not a dataset-dependent balancing rule.  The
        # record-balanced estimate is the same layout ``None`` means.
        for cuts in cut_candidates(profile, best.shards, None):
            if cuts is not None:
                best = replace(best, cut_points=cuts)
                notes.append(
                    "pinned explicit record-balanced cut points "
                    "(a live migration needs them spelled out)"
                )
                break
    if best.cut_points != baseline.cut_points:
        notes.append("moved the shard cut points into the hot query region")
    if best.page_size != baseline.page_size:
        notes.append(
            f"changed page size {baseline.page_size} -> {best.page_size} B "
            "(tree fanout)"
        )
    if best.pool_pages != baseline.pool_pages:
        notes.append(
            f"changed buffer pool {baseline.pool_pages} -> {best.pool_pages} pages"
        )
    if best.batch_size != baseline.batch_size:
        notes.append(
            f"changed query batch size {baseline.batch_size} -> {best.batch_size}"
        )
    if not notes:
        notes.append("the serving design is already the best candidate found")
    return TuningResult(
        baseline=baseline,
        recommended=best,
        baseline_cost=baseline_cost,
        recommended_cost=best_cost,
        evaluations=evaluations,
        trace_queries=len(entries),
        notes=tuple(notes),
    )


def format_tuning_report(result: TuningResult) -> str:
    """Human-readable advisor report (what ``repro tune`` prints)."""

    def cost_line(label: str, cost: ReplayCost) -> str:
        return (
            f"  {label:<12} total {cost.total_ms:12.1f} ms"
            f"  (io {cost.io_ms:.1f}, cpu {cost.cpu_ms:.1f},"
            f" channel {cost.channel_ms:.1f}, rent {cost.rent_ms:.1f};"
            f" pool {cost.pool_hits} hits / {cost.pool_misses} misses)"
        )

    lines = [
        f"physical-design advisor: {result.trace_queries} traced queries, "
        f"{result.evaluations} candidate evaluations",
        "",
        f"baseline     {result.baseline.describe()}",
        f"recommended  {result.recommended.describe()}",
        "",
        cost_line("baseline", result.baseline_cost),
        cost_line("recommended", result.recommended_cost),
        "",
        f"replayed cost improvement: {result.improvement_pct:.1f} %",
        "",
        "changes:",
    ]
    lines.extend(f"  - {note}" for note in result.notes)
    return "\n".join(lines)


# ------------------------------------------------------------------ gated bench leg
def run_tuning_bench(
    records: int = 4000,
    queries: int = 160,
    shards: int = 4,
    seed: int = 11,
) -> Dict[str, Any]:
    """The gated proof that the advisor's recommendation is real.

    Records a receipt trace from a live Zipf-skewed run against the stock
    :meth:`PhysicalDesign.default_for` design, tunes on it, and then
    re-runs the *same* workload live under the recommendation.  Returns the
    metrics dict the CI benchmark gate snapshots: the replayed improvement
    and the recommendation's deterministic model qps in the live rematch
    are both gated from below.
    """
    from repro.core import OutsourcedDB
    from repro.experiments.scaling import model_response_ms
    from repro.experiments.throughput import run_load
    from repro.workloads import build_dataset
    from repro.workloads.distributions import ZipfKeyGenerator
    from repro.workloads.trace import entries_from_outcomes

    # Uniform relation, Zipf-skewed queries: the hot fifth of the domain
    # takes ~3/4 of the load, so record-balanced cuts drown one shard.
    domain = (0, 1_000_000)
    dataset = build_dataset(
        records, distribution="uniform", domain=domain, seed=seed, name="tune-unf"
    )
    generator = ZipfKeyGenerator(theta=1.1, domain=domain, seed=seed + 1)
    extent = (domain[1] - domain[0]) // 20
    bounds = [
        (low, min(domain[1], low + extent))
        for low in generator.sample_many(queries)
    ]

    def live_run(design: PhysicalDesign) -> Tuple[Any, float]:
        db = OutsourcedDB(dataset, scheme="sae", design=design).setup()
        try:
            report = run_load(
                db,
                bounds,
                num_clients=4,
                mode="batched",
                batch_size=design.batch_size,
                verify=True,
            )
        finally:
            db.close()
        model_ms = sum(model_response_ms(outcome) for outcome in report.outcomes)
        model_qps = 1000.0 * report.num_queries / model_ms if model_ms > 0 else 0.0
        return report, model_qps

    baseline = PhysicalDesign.default_for(dataset, shards=shards)
    baseline_report, baseline_model_qps = live_run(baseline)
    trace = Trace(
        meta={
            "design": baseline.to_json_dict(),
            "cardinality": dataset.cardinality,
        },
        entries=tuple(entries_from_outcomes(baseline_report.outcomes)),
    )
    result = tune_design(trace, baseline=baseline)
    tuned_report, tuned_model_qps = live_run(result.recommended)
    return {
        "records": records,
        "queries": queries,
        "shards": shards,
        "baseline_design": baseline.describe(),
        "recommended_design": result.recommended.describe(),
        "replay_baseline_ms": round(result.baseline_cost.total_ms, 3),
        "replay_recommended_ms": round(result.recommended_cost.total_ms, 3),
        "replay_improvement_pct": round(result.improvement_pct, 3),
        "baseline_model_qps": round(baseline_model_qps, 6),
        "tuned_model_qps": round(tuned_model_qps, 6),
        "model_qps_speedup": round(
            tuned_model_qps / baseline_model_qps, 6
        )
        if baseline_model_qps > 0
        else 0.0,
        "all_verified": bool(
            baseline_report.all_verified and tuned_report.all_verified
        ),
        "receipts_consistent": bool(
            baseline_report.receipts_consistent
            and tuned_report.receipts_consistent
        ),
        "evaluations": result.evaluations,
    }
