"""The Verdi lock server (paper Section 5.1).

The model -- program, safety property and invariant -- is ``lock_server.rml``.
"""

from .base import ProtocolBundle, load


def build() -> ProtocolBundle:
    """The Verdi lock server model with its exclusion-lattice invariant."""
    return load("lock_server", bmc_bound=4)
