"""SAE -- Separating Authentication from query Execution (the paper's contribution).

The package wires the four parties of Figure 2 together:

* :class:`~repro.core.owner.DataOwner` ships its relation to the SP and the
  TE and forwards updates; it performs no cryptographic work.
* :class:`~repro.core.provider.ServiceProvider` stores the relation in a
  conventional DBMS (heap file + B+-tree, or sqlite3) and answers range
  queries with plain results.  A malicious SP can be simulated by attaching
  an attack model from :mod:`repro.core.attacks`.
* :class:`~repro.core.trusted_entity.TrustedEntity` keeps one slim tuple
  ``<id, key, digest>`` per record, indexed by the XB-tree, and produces the
  constant-size verification token for any range query.
* :class:`~repro.core.client.Client` XORs the digests of the records it
  received from the SP and accepts iff the result equals the TE's token.

:class:`~repro.core.protocol.SaeScheme` is the convenience façade used by
the examples and the experiment harness.
"""

from repro.core.dataset import Dataset
from repro.core.tuples import TETuple, make_te_tuples
from repro.core.owner import DataOwner
from repro.core.provider import ServiceProvider, ShardedServiceProvider
from repro.core.sharding import (
    ShardingError,
    ShardRouter,
    partition_dataset,
)
from repro.core.trusted_entity import ShardedTrustedEntity, TrustedEntity
from repro.core.client import Client, SAEVerificationResult
from repro.core.attacks import (
    AttackModel,
    NoAttack,
    DropAttack,
    InjectAttack,
    ModifyAttack,
    StaleReplicaAttack,
    CompositeAttack,
)
from repro.core.epoch import (
    EpochAuthority,
    EpochStamp,
    EpochVerdict,
    classify_epoch,
    epoch_digest,
    shared_epoch_keys,
)
from repro.core.replication import ReplicaDownError, ReplicaRouter
from repro.core.updates import InsertRecord, DeleteRecord, ModifyRecord, UpdateBatch
from repro.core.pipeline import CostReceipt, ExecutionContext, QueryReceipt, ShardLegReceipt
from repro.core.scheme import (
    AuthScheme,
    OutsourcedDB,
    SchemeError,
    available_schemes,
    has_snapshot,
    register_scheme,
    restore_deployment,
    scheme_class,
)
from repro.core.protocol import SaeScheme, QueryOutcome

__all__ = [
    "AuthScheme",
    "OutsourcedDB",
    "SchemeError",
    "available_schemes",
    "has_snapshot",
    "register_scheme",
    "restore_deployment",
    "scheme_class",
    "SaeScheme",
    "CostReceipt",
    "ExecutionContext",
    "QueryReceipt",
    "ShardLegReceipt",
    "ShardRouter",
    "ShardedServiceProvider",
    "ShardedTrustedEntity",
    "ShardingError",
    "partition_dataset",
    "Dataset",
    "TETuple",
    "make_te_tuples",
    "DataOwner",
    "ServiceProvider",
    "TrustedEntity",
    "Client",
    "SAEVerificationResult",
    "AttackModel",
    "NoAttack",
    "DropAttack",
    "InjectAttack",
    "ModifyAttack",
    "StaleReplicaAttack",
    "CompositeAttack",
    "EpochAuthority",
    "EpochStamp",
    "EpochVerdict",
    "classify_epoch",
    "epoch_digest",
    "shared_epoch_keys",
    "ReplicaDownError",
    "ReplicaRouter",
    "InsertRecord",
    "DeleteRecord",
    "ModifyRecord",
    "UpdateBatch",
    "QueryOutcome",
]
