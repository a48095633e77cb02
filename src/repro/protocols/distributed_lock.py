"""The IronFleet distributed lock protocol (paper Section 5.1).

The model -- program, safety property and invariant -- is ``distributed_lock.rml``.
"""

from .base import ProtocolBundle, load


def build() -> ProtocolBundle:
    """The IronFleet distributed lock model with its pending-transfer invariant."""
    return load("distributed_lock")
