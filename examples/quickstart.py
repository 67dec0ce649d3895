#!/usr/bin/env python3
"""Quickstart: outsource a dataset, run a verified range query, detect tampering.

This example walks through the whole SAE life cycle in a few lines:

1. the data owner builds a synthetic relation (UNF keys, 500-byte records),
2. it outsources the relation to the service provider and the trusted entity,
3. a client issues a range query and verifies the result against the TE's
   20-byte verification token,
4. the provider turns malicious (drops a record) and the client catches it.

Run with::

    python examples/quickstart.py
"""

from repro.core import DropAttack, SaeScheme
from repro.workloads import uniform_dataset


def main() -> None:
    # 1. The data owner's relation: 5 000 records with uniform 4-byte keys.
    dataset = uniform_dataset(5_000, seed=7)
    print(f"dataset: {dataset.name} with {dataset.cardinality} records "
          f"({dataset.average_record_bytes():.0f} bytes each)")

    # 2. Outsourcing: the DO ships the relation to the SP and the TE.  The SP
    #    stores it in a conventional DBMS (heap file + B+-tree); the TE keeps
    #    only <id, key, digest> tuples in an XB-tree.
    system = SaeScheme(dataset).setup()
    storage = system.storage_report()
    print(f"SP stores {storage['sp_bytes'] / 1e6:.1f} MB, "
          f"TE stores {storage['te_bytes'] / 1e6:.1f} MB "
          f"({storage['te_bytes'] / storage['sp_bytes']:.1%} of the SP)")

    # 3. A verified range query.
    outcome = system.query(2_000_000, 2_050_000)
    print(f"query {outcome.query}: {outcome.cardinality} records, "
          f"verified={outcome.verified}")
    print(f"  authentication traffic: {outcome.auth_bytes} bytes (the VT) vs "
          f"{outcome.result_bytes} bytes of result data")
    print(f"  SP node accesses: {outcome.sp_accesses}, TE node accesses: {outcome.te_accesses}")

    # 4. A malicious provider drops one record from the result; the XOR of the
    #    digests no longer matches the TE's token and the client rejects.
    system.provider.attack = DropAttack(count=1, seed=3)
    tampered = system.query(2_000_000, 2_050_000)
    print(f"after dropping one record: verified={tampered.verified} "
          f"({tampered.verification.reason})")
    assert not tampered.verified, "the tampered result must be rejected"

    system.provider.attack = None
    clean = system.query(2_000_000, 2_050_000)
    assert clean.verified
    print("honest provider again: verified=True")


if __name__ == "__main__":
    main()
