"""Security integration tests: every corruption must be detected by both models.

These tests implement experiment S1 of DESIGN.md: the full attack gallery
(drop / inject / modify / combinations) is run against SAE and TOM, over both
the uniform and the skewed dataset, and the verdicts must be exactly
"reject corrupted, accept honest".
"""

import pytest

from repro.core import (
    CompositeAttack,
    DropAttack,
    InjectAttack,
    ModifyAttack,
    NoAttack,
    SaeScheme,
)
from repro.tom import TomScheme

QUERY = (1_000_000, 1_400_000)

ATTACKS = [
    ("drop-one", DropAttack(count=1, seed=1)),
    ("drop-many", DropAttack(count=7, seed=2)),
    ("drop-by-predicate", DropAttack(predicate=lambda record: record[0] % 5 == 0)),
    ("inject-one", InjectAttack(count=1)),
    ("inject-many", InjectAttack(count=4)),
    ("modify-one", ModifyAttack(count=1, seed=3)),
    ("modify-many", ModifyAttack(count=5, seed=4)),
    ("drop-and-inject", CompositeAttack(attacks=[DropAttack(count=2, seed=5),
                                                 InjectAttack(count=2)])),
    ("modify-and-drop", CompositeAttack(attacks=[ModifyAttack(count=2, seed=6),
                                                 DropAttack(count=1, seed=7)])),
]


@pytest.fixture(scope="module")
def sae_pair(small_dataset, skewed_small_dataset):
    return (SaeScheme(small_dataset).setup(),
            SaeScheme(skewed_small_dataset).setup())


@pytest.fixture(scope="module")
def tom_pair(small_dataset, skewed_small_dataset):
    return (TomScheme(small_dataset, key_bits=512, seed=41).setup(),
            TomScheme(skewed_small_dataset, key_bits=512, seed=43).setup())


class TestSAEDetection:
    @pytest.mark.parametrize("name,attack", ATTACKS, ids=[name for name, _ in ATTACKS])
    def test_attack_detected_on_both_distributions(self, sae_pair, name, attack):
        for system in sae_pair:
            system.provider.attack = attack
            outcome = system.query(*QUERY)
            system.provider.attack = NoAttack()
            assert not outcome.verified, f"SAE failed to detect {name}"

    def test_honest_accepted_after_attacks(self, sae_pair):
        for system in sae_pair:
            system.provider.attack = NoAttack()
            assert system.query(*QUERY).verified

    def test_drop_entire_result_detected(self, sae_pair):
        system = sae_pair[0]
        system.provider.attack = DropAttack(predicate=lambda record: True)
        outcome = system.query(*QUERY)
        system.provider.attack = NoAttack()
        assert outcome.cardinality == 0
        assert not outcome.verified

    def test_swap_record_between_queries_detected(self, sae_pair, small_dataset):
        # The SP answers with a *genuine* record that does not satisfy the query.
        system = sae_pair[0]
        outside = small_dataset.range(5_000_000, 6_000_000)[0]
        system.provider.attack = CompositeAttack(attacks=[
            DropAttack(count=1, seed=8),
            InjectAttack(records=[outside]),
        ])
        outcome = system.query(*QUERY)
        system.provider.attack = NoAttack()
        assert not outcome.verified


class TestTOMDetection:
    @pytest.mark.parametrize("name,attack", ATTACKS, ids=[name for name, _ in ATTACKS])
    def test_attack_detected_on_both_distributions(self, tom_pair, name, attack):
        for system in tom_pair:
            system.provider.attack = attack
            outcome = system.query(*QUERY)
            system.provider.attack = NoAttack()
            assert not outcome.verified, f"TOM failed to detect {name}"

    def test_honest_accepted_after_attacks(self, tom_pair):
        for system in tom_pair:
            system.provider.attack = NoAttack()
            outcome = system.query(*QUERY)
            assert outcome.verified, outcome.report.reason


class TestDetectionAcrossManyQueries:
    def test_sae_detects_single_dropped_record_everywhere(self, sae_pair):
        """A one-record drop is the hardest completeness attack; sweep several ranges."""
        system = sae_pair[0]
        for start in range(0, 9_000_000, 1_500_000):
            system.provider.attack = DropAttack(count=1, seed=start)
            outcome = system.query(start, start + 400_000)
            system.provider.attack = NoAttack()
            if outcome.cardinality == 0 and not system.dataset.range(start, start + 400_000):
                # Nothing to drop in an empty range; the honest empty answer verifies.
                assert outcome.verified
            else:
                assert not outcome.verified
