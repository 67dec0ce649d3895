"""Reproduction of *Separating Authentication from Query Execution in
Outsourced Databases* (Papadopoulos, Papadias, Cheng, Tan -- ICDE 2009).

The package implements both outsourcing models end to end:

* **SAE** (:mod:`repro.core`) -- the paper's contribution: the data owner
  ships its relation to a service provider (conventional DBMS, B+-tree) and
  to a trusted entity that keeps only ``<id, key, digest>`` tuples in an
  XB-tree (:mod:`repro.xbtree`); clients verify results against a
  constant-size XOR verification token.
* **TOM** (:mod:`repro.tom`) -- the traditional baseline: a Merkle B+-tree
  (MB-tree), signed root digests and per-query verification objects.

Substrates: digests/XOR algebra/RSA (:mod:`repro.crypto`), a paged storage
layer with the paper's node-access cost model (:mod:`repro.storage`), a
plain B+-tree (:mod:`repro.btree`), a small DBMS with heap-file and sqlite3
backends (:mod:`repro.dbms`), byte-counting channels (:mod:`repro.network`),
workload generators (:mod:`repro.workloads`) and the experiment harness that
regenerates every figure of the paper (:mod:`repro.experiments`).

Quickstart::

    from repro.core import SaeScheme
    from repro.workloads import uniform_dataset

    dataset = uniform_dataset(10_000)
    system = SaeScheme(dataset).setup()
    outcome = system.query(1_000_000, 1_050_000)
    assert outcome.verified
"""

__version__ = "1.0.0"

from repro.core import OutsourcedDB, SaeScheme, available_schemes
from repro.tom import TomScheme
from repro.workloads import uniform_dataset, skewed_dataset, build_dataset

__all__ = [
    "__version__",
    "OutsourcedDB",
    "available_schemes",
    "SaeScheme",
    "TomScheme",
    "uniform_dataset",
    "skewed_dataset",
    "build_dataset",
]
