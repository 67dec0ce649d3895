"""TOM -- the traditional outsourcing model (the paper's baseline).

In TOM the data owner builds an authenticated data structure (the MB-Tree of
Li et al., a Merkle-augmented B+-tree), signs its root digest, and ships both
the dataset and the signatures to the service provider.  The SP answers each
range query with the result *and* a verification object (VO) containing the
two boundary records, the sibling digests along the two boundary paths and
the owner's signature; the client reconstructs the root digest from the
result and the VO and checks it against the signature.

This package implements the complete baseline:

* :mod:`repro.tom.mbtree` -- the MB-Tree: the :mod:`repro.btree` B+-tree
  whose entries carry digests, repaired through its hooks, plus VO
  construction;
* :mod:`repro.tom.vo` -- the verification-object structure and its size
  accounting (what Figure 5 charges);
* :mod:`repro.tom.verification` -- client-side root-digest reconstruction,
  soundness and completeness checks;
* :mod:`repro.tom.entities` -- the DO, the (possibly sharded) SP and the
  client roles;
* :mod:`repro.tom.scheme` -- :class:`~repro.tom.scheme.TomScheme`, the
  deployment facade implementing the unified
  :class:`~repro.core.scheme.AuthScheme` interface (registered as
  ``"tom"``).
"""

from repro.tom.mbtree import MBTree, MBTreeLayout
from repro.tom.vo import (
    VerificationObject,
    VOBoundary,
    VODigest,
    VOResultMarker,
    VOSubtree,
)
from repro.tom.vo_codec import serialize_vo, deserialize_vo
from repro.tom.verification import VerificationReport, verify_vo
from repro.tom.entities import (
    ShardedTomServiceProvider,
    TomClient,
    TomDataOwner,
    TomServiceProvider,
)
from repro.tom.scheme import TomQueryOutcome, TomScheme, skipped_report

__all__ = [
    "serialize_vo",
    "deserialize_vo",
    "MBTree",
    "MBTreeLayout",
    "VerificationObject",
    "VOBoundary",
    "VODigest",
    "VOResultMarker",
    "VOSubtree",
    "VerificationReport",
    "verify_vo",
    "TomDataOwner",
    "TomServiceProvider",
    "ShardedTomServiceProvider",
    "TomClient",
    "TomQueryOutcome",
    "TomScheme",
    "skipped_report",
]
