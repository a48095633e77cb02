"""The protocols of the paper's evaluation (Section 5, Figure 14).

Each protocol is one RML file packaged here, ``<name>.rml``, holding the
model, its safety property, and the inductive invariant found
interactively (as ``invariant`` declarations).  Each module exposes
``build() -> ProtocolBundle``, which parses that file:

* :mod:`~repro.protocols.leader_election` -- leader election in a ring;
* :mod:`~repro.protocols.lock_server` -- the Verdi lock server;
* :mod:`~repro.protocols.distributed_lock` -- the IronFleet distributed
  lock protocol;
* :mod:`~repro.protocols.learning_switch` -- network learning switch with
  route transitive closure;
* :mod:`~repro.protocols.db_chain` -- database chain-transaction
  consistency;
* :mod:`~repro.protocols.chord` -- Chord ring maintenance (stable base).
"""

from . import (
    chord,
    db_chain,
    distributed_lock,
    leader_election,
    learning_switch,
    lock_server,
)
from .base import ProtocolBundle

ALL_PROTOCOLS = {
    "leader_election": leader_election,
    "lock_server": lock_server,
    "distributed_lock": distributed_lock,
    "learning_switch": learning_switch,
    "db_chain": db_chain,
    "chord": chord,
}

__all__ = [
    "ALL_PROTOCOLS",
    "ProtocolBundle",
    "chord",
    "db_chain",
    "distributed_lock",
    "leader_election",
    "learning_switch",
    "lock_server",
]
