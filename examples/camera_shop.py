#!/usr/bin/env python3
"""The paper's running example: a consumer-electronics shop outsources its catalogue.

Section II of the paper illustrates SAE with "a consumer electronics shop"
whose relation ``R`` holds digital-camera specifications with columns
``(id, manufacturer, model, price)``, ``price`` being the query attribute.
The shop outsources the catalogue; customers ask price-range queries such as
"all cameras between 200 and 300 euros" and verify the answers.

The example also demonstrates the "unmodified conventional DBMS" claim: the
service provider here runs on Python's built-in sqlite3 instead of the
package's own storage engine, and the protocol works unchanged.

Run with::

    python examples/camera_shop.py
"""

from repro.core import Dataset, InjectAttack, SaeScheme, UpdateBatch
from repro.workloads import CAMERA_SCHEMA, make_camera_records


def main() -> None:
    # The shop's catalogue: 2 000 cameras with prices between 50 and 2 000.
    records = make_camera_records(2_000, seed=11)
    catalogue = Dataset(schema=CAMERA_SCHEMA, records=records, name="camera-catalogue")
    print(f"catalogue: {catalogue.cardinality} cameras, query attribute = "
          f"{CAMERA_SCHEMA.key_column!r}")

    # The SP runs an off-the-shelf DBMS (sqlite3); SAE needs nothing special
    # from it because authentication lives entirely at the TE.
    shop = SaeScheme(catalogue, backend="sqlite").setup()

    # "Select all cameras from R whose price is between 200 and 300 euros."
    outcome = shop.query(200, 300)
    print(f"cameras between 200 and 300 euros: {outcome.cardinality} "
          f"(verified={outcome.verified}, token={outcome.auth_bytes} bytes)")
    for record in outcome.records[:5]:
        camera = dict(zip(CAMERA_SCHEMA.columns, record))
        print(f"  #{camera['id']:<5} {camera['manufacturer']:<9} {camera['model']:<18} "
              f"{camera['price']} EUR")
    if outcome.cardinality > 5:
        print(f"  ... and {outcome.cardinality - 5} more")

    # The shop updates its catalogue: a new camera arrives, another is
    # discontinued, a price changes.  The DO only forwards the changes.
    first_id = catalogue.id_of(catalogue.records[0])
    updates = (
        UpdateBatch()
        .insert((99_001, "Canon", "SD850 IS", 250))
        .delete(first_id)
        .modify((99_001, "Canon", "SD850 IS", 239))
    )
    shop.apply_updates(updates)
    after = shop.query(200, 300)
    print(f"after updates: {after.cardinality} cameras in range, verified={after.verified}")
    assert after.verified

    # A malicious SP advertises a camera that was never in the catalogue (for
    # instance to promote a partner product).  The fabricated record has a
    # perfectly plausible price, but its digest is unknown to the TE.
    shop.provider.attack = InjectAttack(records=[(77_777, "Acme", "FakeCam 9000", 249)])
    forged = shop.query(200, 300)
    print(f"with an injected bogus camera: verified={forged.verified} "
          f"({forged.verification.reason})")
    assert not forged.verified


if __name__ == "__main__":
    main()
