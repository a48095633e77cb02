"""Chord ring maintenance with a stable base (paper Section 5.1).

The model -- program, safety property and invariant -- is ``chord.rml``.
"""

from .base import ProtocolBundle, load


def build() -> ProtocolBundle:
    """The stable-base Chord model with its ring-order invariant."""
    return load("chord")
