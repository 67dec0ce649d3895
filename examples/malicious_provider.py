#!/usr/bin/env python3
"""Attack gallery: every way a malicious SP can cheat, and how SAE and TOM catch it.

The paper's security argument considers a provider returning
``RS_SP = (RS - DS) ∪ IS``: dropping genuine records (completeness attack),
injecting fabricated ones (soundness attack), or modifying records (both at
once).  This example runs the full attack gallery against *both* outsourcing
models side by side and shows that each corruption is detected, while the
honest provider always passes.

Run with::

    python examples/malicious_provider.py
"""

from repro.core import (
    CompositeAttack,
    DropAttack,
    InjectAttack,
    ModifyAttack,
    NoAttack,
    SaeScheme,
)
from repro.tom import TomScheme
from repro.workloads import uniform_dataset

QUERY_LOW, QUERY_HIGH = 4_000_000, 4_080_000


def attack_gallery():
    """The (name, attack) pairs exercised against both systems."""
    return [
        ("honest provider", NoAttack()),
        ("drop 1 record", DropAttack(count=1, seed=1)),
        ("drop 5 records", DropAttack(count=5, seed=2)),
        ("inject 1 forged record", InjectAttack(count=1)),
        ("inject 3 forged records", InjectAttack(count=3)),
        ("modify 1 record's payload", ModifyAttack(count=1, seed=3)),
        ("drop 2 + inject 1", CompositeAttack(attacks=[DropAttack(count=2, seed=4),
                                                       InjectAttack(count=1)])),
    ]


def main() -> None:
    dataset = uniform_dataset(4_000, seed=17)
    sae = SaeScheme(dataset).setup()
    tom = TomScheme(dataset, key_bits=512, seed=17).setup()

    header = f"{'attack':<28} {'SAE verdict':<14} {'TOM verdict':<14} {'|RS_SP|':>8}"
    print(header)
    print("-" * len(header))

    for name, attack in attack_gallery():
        sae.provider.attack = attack
        tom.provider.attack = attack

        sae_outcome = sae.query(QUERY_LOW, QUERY_HIGH)
        tom_outcome = tom.query(QUERY_LOW, QUERY_HIGH)

        sae_verdict = "accepted" if sae_outcome.verified else "REJECTED"
        tom_verdict = "accepted" if tom_outcome.verified else "REJECTED"
        print(f"{name:<28} {sae_verdict:<14} {tom_verdict:<14} {sae_outcome.cardinality:>8}")

        honest = isinstance(attack, NoAttack)
        assert sae_outcome.verified == honest, f"SAE verdict wrong for attack {name!r}"
        assert tom_outcome.verified == honest, f"TOM verdict wrong for attack {name!r}"

    sae.provider.attack = None
    tom.provider.attack = None
    print("\nevery corruption was detected; every honest answer was accepted")


if __name__ == "__main__":
    main()
