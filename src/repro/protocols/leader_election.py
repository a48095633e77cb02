"""Leader election in a ring (paper Figures 1, 2 and 6; Chang-Roberts).

The model -- program, safety property and invariant -- is ``leader_election.rml``.
"""

from .base import ProtocolBundle, load


def build() -> ProtocolBundle:
    """The Figure 1 leader election model with its Figure 6 invariant."""
    return load("leader_election")
