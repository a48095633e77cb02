"""Database chain-transaction consistency (paper Section 5.1).

The model -- program, safety property and invariant -- is ``db_chain.rml``.
"""

from .base import ProtocolBundle, load


def build() -> ProtocolBundle:
    """The chain-transaction model with its per-op observation invariant."""
    return load("db_chain", safety=("C0", "C1", "C2"))
