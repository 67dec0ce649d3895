"""Unit tests for the scheme layer: registry, orchestrator, range parity.

The degenerate-range contract is the satellite this file pins: a reversed
range (``low > high``) must produce an *identical* outcome shape under
every registered scheme -- an empty verified result with a zero-cost
receipt -- instead of scheme-divergent errors.
"""

import pytest

from repro.core import OutsourcedDB, SchemeError, available_schemes, scheme_class
from repro.core.design import PhysicalDesign
from repro.core.protocol import SaeScheme
from repro.core.scheme import AuthScheme
from repro.dbms.query import QueryError, RangeQuery
from repro.storage.node_store import StorageConfig
from repro.tom.scheme import TomScheme


class TestRegistry:
    def test_builtin_schemes_registered(self):
        names = available_schemes()
        assert "sae" in names
        assert "tom" in names

    def test_scheme_class_resolves_names(self):
        assert scheme_class("sae") is SaeScheme
        assert scheme_class("tom") is TomScheme

    def test_unknown_scheme_raises_with_available_list(self):
        with pytest.raises(SchemeError, match="sae"):
            scheme_class("merkle2")

    def test_each_scheme_class_is_exported_under_one_name(self):
        import repro

        exported = {
            name for name in repro.__all__
            if getattr(repro, name) in (SaeScheme, TomScheme)
        }
        assert exported == {"SaeScheme", "TomScheme"}

    def test_schemes_implement_the_interface(self):
        assert issubclass(SaeScheme, AuthScheme)
        assert issubclass(TomScheme, AuthScheme)


class TestOutsourcedDB:
    def test_forwards_only_understood_parameters(self, small_dataset):
        # key_bits configures TOM's signer; SAE must simply ignore it.
        db = OutsourcedDB(small_dataset, scheme="sae", key_bits=512, seed=3).setup()
        with db:
            assert db.scheme_name == "sae"
            assert db.query(0, 10_000_000).verified

    @pytest.mark.parametrize(
        "name, value",
        [("sharde", 4), ("shards", 2), ("replicas", 2), ("pool_pages", 64), ("page_size", 4096)],
    )
    def test_rejects_parameters_no_scheme_understands(self, small_dataset, name, value):
        # Valid layout values are refused too: design= is the only layout input.
        with pytest.raises(SchemeError, match=name):
            OutsourcedDB(small_dataset, scheme="sae", **{name: value})

    def test_storage_takes_only_the_mode_string(self, small_dataset):
        # A ready-made StorageConfig would carry a pool size of its own, which
        # the design (and the snapshot a restart reads) would not report.
        with pytest.raises(SchemeError, match="storage"):
            OutsourcedDB(
                small_dataset,
                scheme="sae",
                storage=StorageConfig(mode="paged", pool_pages=4),
                design=PhysicalDesign(pool_pages=64),
            )

    def test_wraps_a_ready_made_instance(self, small_dataset, sae_system):
        db = OutsourcedDB(small_dataset, scheme=sae_system)
        assert db.system is sae_system
        assert db.num_shards == sae_system.num_shards

    def test_instance_plus_kwargs_rejected(self, small_dataset, sae_system):
        with pytest.raises(SchemeError):
            OutsourcedDB(small_dataset, scheme=sae_system, design=PhysicalDesign(shards=2))

    def test_delegates_storage_report(self, small_dataset, tom_system):
        db = OutsourcedDB(small_dataset, scheme=tom_system)
        assert db.storage_report()["sp_bytes"] > 0


class TestDegenerateRangeQuery:
    def test_direct_construction_still_rejects_reversed_bounds(self):
        with pytest.raises(QueryError):
            RangeQuery(low=10, high=5)

    def test_degenerate_constructor_carries_the_bounds(self):
        query = RangeQuery.degenerate(10, 5, "key")
        assert query.low == 10 and query.high == 5
        assert query.is_empty
        assert not query.contains(7)

    def test_valid_query_is_not_empty(self):
        assert not RangeQuery(low=1, high=2).is_empty


class TestReversedRangeParity:
    """Both schemes answer ``low > high`` identically: verified, zero cost."""

    @pytest.fixture(params=["sae", "tom"])
    def system(self, request, sae_system, tom_system):
        return {"sae": sae_system, "tom": tom_system}[request.param]

    def test_reversed_range_is_empty_and_verified(self, system):
        outcome = system.query(5_000, 1_000)
        assert outcome.verified
        assert outcome.cardinality == 0
        assert outcome.records == []
        assert outcome.query.is_empty

    def test_reversed_range_has_a_zero_cost_receipt(self, system):
        outcome = system.query(5_000, 1_000)
        receipt = outcome.receipt
        assert receipt is not None
        assert receipt.sp.node_accesses == 0
        assert receipt.te.node_accesses == 0
        assert receipt.auth_bytes == 0
        assert receipt.result_bytes == 0
        assert receipt.sp.total_ms == 0.0
        assert receipt.response_time_ms == 0.0
        assert outcome.sp_accesses == 0
        assert outcome.auth_bytes == 0

    def test_reversed_range_with_verify_off_is_not_verified(self, system):
        outcome = system.query(5_000, 1_000, verify=False)
        assert not outcome.verified
        assert outcome.cardinality == 0

    def test_query_many_weaves_empty_outcomes_in_position(self, system):
        bounds = [(0, 500_000), (9, 2), (1_000_000, 1_100_000), (7, 7 - 1)]
        outcomes = system.query_many(bounds)
        assert len(outcomes) == len(bounds)
        assert [outcome.query.low for outcome in outcomes] == [b[0] for b in bounds]
        assert all(outcome.verified for outcome in outcomes)
        assert outcomes[1].cardinality == 0 and outcomes[3].cardinality == 0
        assert outcomes[0].cardinality > 0 and outcomes[2].cardinality > 0

    def test_parity_of_the_empty_outcome_across_schemes(self, sae_system, tom_system):
        sae_outcome = sae_system.query(9, 2)
        tom_outcome = tom_system.query(9, 2)
        for attribute in ("verified", "cardinality", "sp_accesses", "te_accesses",
                          "auth_bytes", "result_bytes", "client_cpu_ms"):
            assert getattr(sae_outcome, attribute) == getattr(tom_outcome, attribute), attribute
        assert sae_outcome.receipt.sp == tom_outcome.receipt.sp
        assert sae_outcome.receipt.te == tom_outcome.receipt.te

    def test_query_many_all_reversed_bounds_parity(self, sae_system, tom_system):
        """An all-reversed batch never reaches a serving party in either scheme."""
        bounds = [(9, 2), (100, 50), (7, 6)]
        for system in (sae_system, tom_system):
            outcomes = system.query_many(bounds)
            assert len(outcomes) == len(bounds)
            for (low, high), outcome in zip(bounds, outcomes):
                assert outcome.verified
                assert outcome.cardinality == 0
                assert (outcome.query.low, outcome.query.high) == (low, high)
                assert outcome.receipt.sp.node_accesses == 0
                assert outcome.receipt.auth_bytes == 0


class TestClosedSchemeGuard:
    """Regression: ``close()`` then ``query()`` must raise, not silently
    serve from a deployment whose stores are closed."""

    @pytest.fixture(params=["sae", "tom"])
    def closed_system(self, request, small_dataset):
        kwargs = {} if request.param == "sae" else {"key_bits": 512, "seed": 7}
        system = scheme_class(request.param)(small_dataset, **kwargs).setup()
        system.close()
        return system

    def test_query_on_closed_scheme_raises(self, closed_system):
        assert closed_system.closed
        with pytest.raises(SchemeError, match="closed"):
            closed_system.query(0, 1_000_000)

    def test_query_many_on_closed_scheme_raises(self, closed_system):
        with pytest.raises(SchemeError, match="closed"):
            closed_system.query_many([(0, 1_000_000)])

    def test_even_reversed_ranges_are_refused_when_closed(self, closed_system):
        # A reversed range needs no pool, but serving it would still make a
        # closed deployment look alive.
        with pytest.raises(SchemeError, match="closed"):
            closed_system.query(9, 2)

    def test_close_does_not_revive_the_pool(self, closed_system):
        with pytest.raises(SchemeError):
            closed_system.query(0, 1_000_000)

    def test_close_is_idempotent(self, closed_system):
        closed_system.close()
        assert closed_system.closed

    def test_apply_updates_on_closed_scheme_raises(self, closed_system):
        from repro.core.updates import UpdateBatch

        with pytest.raises(SchemeError, match="closed"):
            closed_system.apply_updates(UpdateBatch().insert((999_999, 1, b"x")))

    def test_storage_report_on_closed_scheme_raises(self, closed_system):
        with pytest.raises(SchemeError, match="closed"):
            closed_system.storage_report()


class TestWeaveOutcomeCount:
    """Regression: a scheme whose batch path returns the wrong number of
    outcomes must raise an explicit SchemeError, not a masked
    ``RuntimeError: StopIteration`` from inside the weaving comprehension."""

    @pytest.fixture()
    def miscounting(self, small_dataset):
        system = SaeScheme(small_dataset).setup()

        def drop_one(bounds, verify):
            return SaeScheme._query_many_valid(system, bounds, verify)[:-1]

        system._query_many_valid = drop_one
        yield system
        system.close()

    def test_miscount_with_reversed_bounds_raises_explicitly(self, miscounting):
        bounds = [(0, 500_000), (9, 2), (1_000_000, 1_100_000)]
        with pytest.raises(SchemeError, match="returned 1 outcomes for 2 queries"):
            miscounting.query_many(bounds)

    def test_miscount_without_reversed_bounds_raises_explicitly(self, miscounting):
        bounds = [(0, 500_000), (1_000_000, 1_100_000)]
        with pytest.raises(SchemeError, match="returned 1 outcomes for 2 queries"):
            miscounting.query_many(bounds)


class TestQueryAfterUpdateReceiptParity:
    """Receipts stay consistent across an update batch, under both schemes."""

    @pytest.fixture(params=["sae", "tom"])
    def fresh_system(self, request, small_dataset):
        kwargs = {} if request.param == "sae" else {"key_bits": 512, "seed": 7}
        system = scheme_class(request.param)(
            small_dataset.subset(600), **kwargs
        ).setup()
        yield system
        system.close()

    def test_receipts_verify_and_stay_consistent_after_updates(self, fresh_system):
        from repro.core.updates import UpdateBatch

        dataset = fresh_system.dataset
        key_low = min(dataset.keys())
        before = fresh_system.query(key_low, key_low + 2_000_000)
        assert before.verified and before.receipt.matches_leg_sums()

        victim = before.records[0] if before.records else dataset.records[0]
        batch = (
            UpdateBatch()
            .insert((10_000_001, key_low + 1, b"fresh-record"))
            .delete(dataset.id_of(victim))
        )
        fresh_system.apply_updates(batch)

        after = fresh_system.query(key_low, key_low + 2_000_000)
        assert after.verified
        assert after.receipt is not None and after.receipt.matches_leg_sums()
        ids = {dataset.id_of(record) for record in after.records}
        assert 10_000_001 in ids
        assert dataset.id_of(victim) not in ids
