#!/usr/bin/env python3
"""Dynamic workload: the data owner keeps updating the outsourced relation.

One of SAE's selling points is how little the data owner has to do when its
data changes: it forwards the update to the SP and the TE and is done -- no
ADS maintenance, no re-signing.  TOM, in contrast, requires the owner to
update its own MB-tree copy and produce a fresh signature on the new root
digest after every batch.

This example applies a stream of mixed update batches to both systems,
verifies queries in between, and reports how much authentication-related
work each data owner performed.

Run with::

    python examples/dynamic_updates.py
"""

import random
import time

from repro.core import SaeScheme, UpdateBatch
from repro.tom import TomScheme
from repro.workloads import skewed_dataset

BATCHES = 10
OPERATIONS_PER_BATCH = 20


def make_batch(rng: random.Random, dataset, next_id: int) -> tuple:
    """A mixed batch of inserts, deletes and modifications."""
    batch = UpdateBatch()
    live_ids = [dataset.id_of(record) for record in dataset.records]
    for _ in range(OPERATIONS_PER_BATCH):
        choice = rng.random()
        if choice < 0.5:
            key = rng.randint(0, 10_000_000)
            batch.insert((next_id, key, f"inserted-{next_id}".encode()))
            next_id += 1
        elif choice < 0.8 and live_ids:
            victim = rng.choice(live_ids)
            live_ids.remove(victim)
            batch.delete(victim)
        elif live_ids:
            target = rng.choice(live_ids)
            record = dataset.by_id()[target]
            batch.modify((target, dataset.key_of(record), b"modified payload"))
    return batch, next_id


def main() -> None:
    dataset_sae = skewed_dataset(3_000, seed=23)
    dataset_tom = skewed_dataset(3_000, seed=23)

    sae = SaeScheme(dataset_sae).setup()
    tom = TomScheme(dataset_tom, key_bits=512, seed=23).setup()

    rng = random.Random(99)
    next_id = 10_000_000
    sae_owner_ms = 0.0
    tom_owner_ms = 0.0

    for round_number in range(1, BATCHES + 1):
        batch, next_id = make_batch(rng, dataset_sae, next_id)
        # The same logical batch is applied to the TOM copy of the dataset.
        mirror = UpdateBatch(operations=list(batch.operations))

        started = time.perf_counter()
        sae.apply_updates(batch)
        sae_owner_ms += (time.perf_counter() - started) * 1000.0

        started = time.perf_counter()
        tom.apply_updates(mirror)
        tom_owner_ms += (time.perf_counter() - started) * 1000.0

        low = rng.randint(0, 9_000_000)
        sae_outcome = sae.query(low, low + 100_000)
        tom_outcome = tom.query(low, low + 100_000)
        assert sae_outcome.verified, "SAE verification failed after updates"
        assert tom_outcome.verified, "TOM verification failed after updates"
        print(f"batch {round_number:>2}: {len(batch)} operations, "
              f"query [{low}, {low + 100_000}] -> "
              f"SAE {sae_outcome.cardinality} records ok, "
              f"TOM {tom_outcome.cardinality} records ok")

    print(f"\nend-to-end update propagation over {BATCHES} batches "
          f"({BATCHES * OPERATIONS_PER_BATCH} operations):")
    print(f"  SAE (owner forwards; SP updates B+-tree, TE updates XB-tree) : "
          f"{sae_owner_ms:8.1f} ms")
    print(f"  TOM (owner maintains ADS digests and re-signs every batch)   : "
          f"{tom_owner_ms:8.1f} ms")
    print("\nthe key difference is *who* does the authentication work: in SAE the owner")
    print("computes no digests and no signatures at all, while in TOM every batch ends")
    print("with Merkle digest maintenance plus a fresh RSA signature at the owner.")


if __name__ == "__main__":
    main()
