"""The learning switch (paper Section 5.1).

The model -- program, safety property and invariant -- is ``learning_switch.rml``.
"""

from .base import ProtocolBundle, load


def build() -> ProtocolBundle:
    """The learning switch model with its route*-order invariant."""
    return load("learning_switch")
