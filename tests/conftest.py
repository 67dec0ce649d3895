"""Shared fixtures for the test suite.

Expensive objects (RSA key pairs, medium-sized datasets, fully set-up SAE and
TOM systems) are session-scoped so that the several hundred tests reuse them
instead of rebuilding them per test.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings

# Pinned CI profile: matrix jobs on slow shared runners must not flake on
# hypothesis deadlines, and a red job must be reproducible locally.
# ``derandomize=True`` is hypothesis's supported fixed-seed mode (the PRNG is
# derived deterministically from each test, so every run draws the same
# examples); ``deadline=None`` removes per-example wall-clock limits.  The
# profile is activated by exporting ``HYPOTHESIS_SEED`` (any value; CI sets
# ``HYPOTHESIS_SEED=0``) or by the ``CI`` variable GitHub Actions defines.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    database=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
if os.environ.get("HYPOTHESIS_SEED") is not None or os.environ.get("CI"):
    settings.load_profile("ci")

from repro.core.dataset import Dataset
from repro.core.protocol import SaeScheme
from repro.crypto.signatures import RSASigner, RSAVerifier
from repro.crypto import rsa as rsa_module
from repro.dbms.catalog import TableSchema
from repro.tom.scheme import TomScheme
from repro.workloads.datasets import DATASET_SCHEMA, build_dataset
from repro.workloads.records import CAMERA_SCHEMA, make_camera_records


@pytest.fixture(scope="session")
def rsa_keypair():
    """A small (fast) RSA key pair shared across the suite."""
    return rsa_module.generate_keypair(bits=512, seed=1234)


@pytest.fixture(scope="session")
def rsa_pair(rsa_keypair):
    """A matching (signer, verifier) pair."""
    return RSASigner(rsa_keypair.private), RSAVerifier(rsa_keypair.public)


@pytest.fixture(scope="session")
def small_schema() -> TableSchema:
    """The synthetic (id, key, payload) schema used by the experiments."""
    return DATASET_SCHEMA


@pytest.fixture(scope="session")
def camera_schema() -> TableSchema:
    """The paper's digital-camera example schema."""
    return CAMERA_SCHEMA


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """A 1 200-record uniform dataset with short records (fast to hash)."""
    return build_dataset(1_200, distribution="uniform", record_size=96, seed=3)


@pytest.fixture(scope="session")
def skewed_small_dataset() -> Dataset:
    """A 1 200-record Zipf dataset with short records."""
    return build_dataset(1_200, distribution="zipf", record_size=96, seed=3)


@pytest.fixture(scope="session")
def camera_dataset() -> Dataset:
    """A small catalogue for the running example."""
    return Dataset(schema=CAMERA_SCHEMA, records=make_camera_records(400, seed=5),
                   name="cameras")


@pytest.fixture(scope="session")
def sae_system(small_dataset) -> SaeScheme:
    """A fully set-up SAE deployment over the small uniform dataset."""
    return SaeScheme(small_dataset).setup()


@pytest.fixture(scope="session")
def tom_system(small_dataset) -> TomScheme:
    """A fully set-up TOM deployment over the small uniform dataset."""
    return TomScheme(small_dataset, key_bits=512, seed=77).setup()


@pytest.fixture()
def rng() -> random.Random:
    """A per-test deterministic random generator."""
    return random.Random(20090401)
