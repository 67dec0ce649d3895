"""Unit tests for the length-prefixed binary wire codec."""

import pytest

from repro.core.pipeline import CostReceipt, QueryReceipt, ShardLegReceipt
from repro.core.updates import UpdateBatch
from repro.crypto.encoding import encode_record
from repro.dbms.query import RangeQuery
from repro.network import wire


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**80,
            -(2**80),
            3.5,
            "héllo",
            b"\x00\xff raw",
            [],
            [1, "two", b"three", None, [4.0]],
            {"a": 1, 2: "b", "nested": {"x": [True, False]}},
        ],
    )
    def test_round_trip(self, value):
        assert wire.decode_value(wire.encode_value(value)) == value

    def test_tuples_decode_as_lists(self):
        assert wire.decode_value(wire.encode_value((1, 2))) == [1, 2]

    def test_unencodable_type_raises(self):
        with pytest.raises(wire.WireError):
            wire.encode_value(object())

    def test_truncated_value_raises(self):
        data = wire.encode_value("hello world")
        with pytest.raises(wire.WireError):
            wire.decode_value(data[:-3])

    def test_trailing_bytes_raise(self):
        with pytest.raises(wire.WireError):
            wire.decode_value(wire.encode_value(1) + b"\x00")

    def test_invalid_utf8_string_raises_wire_error(self):
        # tag STR, length 3, invalid UTF-8 payload: must not escape as
        # UnicodeDecodeError (the server only catches WireError).
        data = bytes([0x05]) + (3).to_bytes(4, "big") + b"\xff\xff\xff"
        with pytest.raises(wire.WireError, match="malformed"):
            wire.decode_value(data)

    def test_unhashable_dict_key_raises_wire_error(self):
        # A dict frame whose single key is a (unhashable) list.
        key = wire.encode_value([1])
        item = wire.encode_value(2)
        data = bytes([0x08]) + (1).to_bytes(4, "big") + key + item
        with pytest.raises(wire.WireError, match="malformed"):
            wire.decode_value(data)

    def test_pathological_nesting_raises_wire_error(self):
        # Deeper than the interpreter's recursion limit: lists nested
        # 100_000 levels, hand-built (the encoder itself would recurse).
        depth = 100_000
        data = (bytes([0x07]) + (1).to_bytes(4, "big")) * depth + wire.encode_value(None)
        with pytest.raises(wire.WireError, match="malformed"):
            wire.decode_value(data)


class TestFrames:
    def test_round_trip(self):
        frame = wire.encode_frame(wire.FRAME_QUERY, {"low": 1, "high": 2, "verify": True})
        kind, length = wire.decode_frame_header(frame[: wire.FRAME_HEADER.size])
        assert kind == wire.FRAME_QUERY
        assert length == len(frame) - wire.FRAME_HEADER.size
        assert wire.decode_value(frame[wire.FRAME_HEADER.size:]) == {
            "low": 1, "high": 2, "verify": True,
        }

    def test_bad_magic_raises(self):
        frame = bytearray(wire.encode_frame(wire.FRAME_PING, None))
        frame[0] ^= 0xFF
        with pytest.raises(wire.WireError):
            wire.decode_frame_header(bytes(frame[: wire.FRAME_HEADER.size]))

    def test_bad_version_raises(self):
        frame = bytearray(wire.encode_frame(wire.FRAME_PING, None))
        frame[2] = wire.WIRE_VERSION + 1
        with pytest.raises(wire.WireError):
            wire.decode_frame_header(bytes(frame[: wire.FRAME_HEADER.size]))

    def test_oversized_length_raises(self):
        header = wire.FRAME_HEADER.pack(
            wire.FRAME_MAGIC, wire.WIRE_VERSION, wire.FRAME_PING,
            wire.MAX_PAYLOAD_BYTES + 1,
        )
        with pytest.raises(wire.WireError):
            wire.decode_frame_header(header)


def _receipt(with_legs: bool) -> QueryReceipt:
    legs = ()
    sp = CostReceipt(node_accesses=7, cpu_ms=0.25, io_cost_ms=70.0)
    te = CostReceipt(node_accesses=3, cpu_ms=0.5, io_cost_ms=30.0)
    if with_legs:
        legs = (
            ShardLegReceipt(
                shard=0,
                sp=CostReceipt(node_accesses=4, cpu_ms=0.1, io_cost_ms=40.0),
                te=CostReceipt(node_accesses=1, cpu_ms=0.2, io_cost_ms=10.0),
                auth_bytes=20,
                result_bytes=100,
            ),
            ShardLegReceipt(
                shard=1,
                sp=CostReceipt(node_accesses=3, cpu_ms=0.15, io_cost_ms=30.0),
                te=CostReceipt(node_accesses=2, cpu_ms=0.3, io_cost_ms=20.0),
                auth_bytes=20,
                result_bytes=60,
            ),
        )
    return QueryReceipt(
        query=RangeQuery(low=10, high=20, attribute="key"),
        sp=sp,
        te=te,
        auth_bytes=40 if with_legs else 20,
        result_bytes=160,
        client_cpu_ms=1.5,
        bytes_by_channel={"client->SP": 32, "SP->client": 160},
        legs=legs,
    )


class TestReceiptCodec:
    @pytest.mark.parametrize("with_legs", [False, True])
    def test_round_trip(self, with_legs):
        receipt = _receipt(with_legs)
        rebuilt = wire.receipt_from_wire(wire.receipt_to_wire(receipt))
        assert rebuilt == receipt
        assert rebuilt.matches_leg_sums() == receipt.matches_leg_sums()

    def test_leg_sum_invariant_survives_the_wire(self):
        rebuilt = wire.receipt_from_wire(wire.receipt_to_wire(_receipt(True)))
        assert rebuilt.legs and rebuilt.matches_leg_sums()

    def test_pool_counters_round_trip(self):
        receipt = QueryReceipt(
            query=RangeQuery(low=1, high=9, attribute="key"),
            sp=CostReceipt(node_accesses=5, io_cost_ms=50.0,
                           pool_hits=3, pool_misses=2, pool_evictions=1),
            te=CostReceipt(node_accesses=2, io_cost_ms=20.0),
            auth_bytes=20,
            result_bytes=64,
            client_cpu_ms=0.5,
        )
        payload = wire.receipt_to_wire(receipt)
        assert payload["sp"]["pool"] == [3, 2, 1]
        assert "pool" not in payload["te"]  # omitted when all zero
        rebuilt = wire.receipt_from_wire(payload)
        assert rebuilt == receipt

    def test_malformed_pool_counters_raise(self):
        payload = wire.receipt_to_wire(_receipt(False))
        payload["sp"]["pool"] = [1, 2]  # wrong arity
        with pytest.raises(wire.WireError):
            wire.receipt_from_wire(payload)

    def test_memo_counters_round_trip(self):
        receipt = QueryReceipt(
            query=RangeQuery(low=1, high=9, attribute="key"),
            sp=CostReceipt(node_accesses=5, io_cost_ms=50.0,
                           memo_hits=11, memo_misses=4),
            te=CostReceipt(node_accesses=2, io_cost_ms=20.0),
            auth_bytes=20,
            result_bytes=64,
            client_cpu_ms=0.5,
        )
        payload = wire.receipt_to_wire(receipt)
        assert payload["sp"]["memo"] == [11, 4]
        assert "memo" not in payload["te"]  # omitted when all zero
        rebuilt = wire.receipt_from_wire(payload)
        assert rebuilt == receipt
        assert (rebuilt.sp.memo_hits, rebuilt.sp.memo_misses) == (11, 4)

    def test_malformed_memo_counters_raise(self):
        payload = wire.receipt_to_wire(_receipt(False))
        payload["sp"]["memo"] = [1, 2, 3]  # wrong arity
        with pytest.raises(wire.WireError):
            wire.receipt_from_wire(payload)

    def test_failover_fields_round_trip(self):
        # A leg served by a standby after the primary failed: the replica
        # index and the dead attempts must survive the wire.
        receipt = _receipt(True)
        legs = (
            receipt.legs[0],
            ShardLegReceipt(
                shard=1,
                sp=receipt.legs[1].sp,
                te=receipt.legs[1].te,
                auth_bytes=receipt.legs[1].auth_bytes,
                result_bytes=receipt.legs[1].result_bytes,
                replica=1,
                failed_replicas=(0,),
            ),
        )
        receipt = QueryReceipt(
            query=receipt.query,
            sp=receipt.sp,
            te=receipt.te,
            auth_bytes=receipt.auth_bytes,
            result_bytes=receipt.result_bytes,
            client_cpu_ms=receipt.client_cpu_ms,
            bytes_by_channel=receipt.bytes_by_channel,
            legs=legs,
        )
        payload = wire.receipt_to_wire(receipt)
        assert payload["legs"][1]["replica"] == 1
        assert payload["legs"][1]["failed"] == [0]
        rebuilt = wire.receipt_from_wire(payload)
        assert rebuilt == receipt
        assert rebuilt.legs[1].replica == 1
        assert rebuilt.legs[1].failed_replicas == (0,)

    def test_failover_fields_omitted_for_primary_legs(self):
        # Backwards-compatible encoding: a primary-served leg with no failed
        # attempts carries neither key.
        payload = wire.receipt_to_wire(_receipt(True))
        for leg in payload["legs"]:
            assert "replica" not in leg
            assert "failed" not in leg
        rebuilt = wire.receipt_from_wire(payload)
        assert all(leg.replica == 0 for leg in rebuilt.legs)
        assert all(leg.failed_replicas == () for leg in rebuilt.legs)

    def test_degenerate_query_round_trips(self):
        receipt = QueryReceipt(
            query=RangeQuery.degenerate(9, 5, "key"),
            sp=CostReceipt(),
            te=CostReceipt(),
            auth_bytes=0,
            result_bytes=0,
            client_cpu_ms=0.0,
        )
        rebuilt = wire.receipt_from_wire(wire.receipt_to_wire(receipt))
        assert (rebuilt.query.low, rebuilt.query.high) == (9, 5)
        assert rebuilt.query.is_empty


class TestUpdateBatchCodec:
    def test_round_trip(self):
        batch = (
            UpdateBatch()
            .insert((1, 100, b"payload"))
            .delete(7)
            .modify((2, 200, b"changed"))
        )
        rebuilt = wire.update_batch_from_wire(wire.update_batch_to_wire(batch))
        assert rebuilt.operations == batch.operations

    def test_unknown_operation_raises(self):
        with pytest.raises(wire.WireError):
            wire.update_batch_from_wire([{"op": "truncate"}])


RECORDS = [(1, 10, b"a" * 40), (2, 20, b"b" * 40), (3, 30, b"c" * 40)]


def _block(payloads):
    return b"".join(len(payload).to_bytes(4, "big") + payload for payload in payloads)


class TestRecordBlock:
    def test_round_trip_keeps_the_bytes_and_decodes_them(self):
        payloads = [encode_record(record) for record in RECORDS]
        block = wire.records_to_wire(payloads)
        assert block == _block(payloads)
        assert wire.records_from_wire(block) == (tuple(RECORDS), tuple(payloads))
        assert wire.records_from_wire(b"") == ((), ())

    @pytest.mark.parametrize(
        "block, message",
        [
            (_block([encode_record(RECORDS[0])]) + b"\x00\x00", "truncated record length word"),
            (_block([encode_record(RECORDS[0])])[:-1], "runs past the record block"),
            # A length word of 4 GiB over a 4-byte block: refused, not allocated.
            (b"\xff\xff\xff\xff\x00\x00\x00\x00", "runs past the record block"),
            (_block([encode_record(RECORDS[0]) + b"\x00"]), "trailing bytes after record"),
            (_block([encode_record(RECORDS[0]), b"\x00\x00\x00\x01\x7f\x00\x00\x00\x00"]),
             "unknown field tag 0x7f"),
            (_block([b"\x00\x00"]), "truncated record header"),
        ],
        ids=["truncated-length-word", "length-past-the-end", "huge-length", "trailing-bytes",
             "undecodable-record", "truncated-record"],
    )
    def test_malformed_blocks_raise_wire_error(self, block, message):
        with pytest.raises(wire.WireError, match=message):
            wire.records_from_wire(block)

    def test_a_field_wise_list_is_refused(self):
        with pytest.raises(wire.WireError, match="not bytes"):
            wire.records_from_wire([list(RECORDS[0])])

    def test_outcome_whose_payloads_disagree_with_its_records_is_refused(self):
        from types import SimpleNamespace

        outcome = SimpleNamespace(
            records=RECORDS, payloads=[encode_record(RECORDS[0])], verified=True,
            verification=SimpleNamespace(reason="verified", details={}), receipt=None,
        )
        with pytest.raises(wire.WireError, match="3 records but 1 payloads"):
            wire.outcome_to_wire(outcome)

    def test_outcome_frame_carries_one_bytes_value(self, sae_system):
        outcome = sae_system.query(1_000_000, 1_400_000)
        payload = wire.outcome_to_wire(outcome, scheme="sae")
        assert payload["records"] == _block(outcome.payloads)
        assert wire.WIRE_VERSION == 2


class TestOutcomeCodec:
    def test_remote_outcome_mirrors_in_process_shape(self, sae_system):
        outcome = sae_system.query(1_000_000, 1_400_000)
        remote = wire.outcome_from_wire(wire.outcome_to_wire(outcome, scheme="sae"))
        assert remote.verified == outcome.verified
        assert remote.cardinality == outcome.cardinality
        assert list(remote.records) == [tuple(r) for r in outcome.records]
        assert remote.sp_accesses == outcome.sp_accesses
        assert remote.te_accesses == outcome.te_accesses
        assert remote.auth_bytes == outcome.auth_bytes
        assert remote.result_bytes == outcome.result_bytes
        assert remote.receipt == outcome.receipt
        assert remote.scheme == "sae"

    def test_freshness_flag_omitted_on_honest_outcomes(self, sae_system):
        outcome = sae_system.query(1_000_000, 1_400_000)
        payload = wire.outcome_to_wire(outcome, scheme="sae")
        assert "freshness" not in payload  # historical frame size preserved
        assert wire.outcome_from_wire(payload).freshness_violation is False

    def test_freshness_flag_round_trips(self):
        from types import SimpleNamespace

        stale = SimpleNamespace(
            records=[(1, 10, b"old")],
            verified=False,
            verification=SimpleNamespace(
                reason="freshness violation: replica answered from epoch 0, "
                       "current epoch is 1",
                details={"freshness_violation": True, "epoch": 0,
                         "expected_epoch": 1},
            ),
            receipt=None,
        )
        payload = wire.outcome_to_wire(stale, scheme="sae")
        assert payload["freshness"] is True
        remote = wire.outcome_from_wire(payload)
        assert remote.freshness_violation is True
        assert not remote.verified
        assert "freshness violation" in remote.reason
