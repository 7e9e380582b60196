"""Simulated MPI runtime.

Functionally faithful rank-to-rank communication (the collectives really
move bytes between per-rank numpy buffers and return bit-identical results
to real MPI semantics) plus message-level timing charged against the
machine model: intra-node transfers go through the shared-memory copy
model, inter-node transfers through the InfiniBand model with the Fig. 4
concurrency curve.

The runtime implements the paper's full menu of allgather algorithms:

* ``ring`` / ``recursive doubling`` (the Open MPI 1.5.5 defaults selected
  by message size, after Thakur & Gropp);
* ``leader-based`` (gather -> leaders allgather -> broadcast, Fig. 5a);
* ``shared in_queue`` (no broadcast step, Fig. 5b);
* ``shared all`` (no gather step either);
* ``parallel subgroup`` allgather (Fig. 7).
"""

from repro.mpi.mapping import BindingPolicy, ProcessMapping
from repro.mpi.schedule import ScheduleStep, explain_allgather
from repro.mpi.sharedmem import NodeSharedBuffer
from repro.mpi.simcomm import SimComm, CollectiveResult
from repro.mpi.codecs import (
    EncodedFrontier,
    FrontierCodec,
    available_codecs,
    get_codec,
    resolve_codec,
)
from repro.mpi.collectives import (
    AllgatherAlgorithm,
    allgather,
    allgather_channel_bytes,
    allgather_time,
    parallel_allgather_time,
)

__all__ = [
    "BindingPolicy",
    "ProcessMapping",
    "ScheduleStep",
    "explain_allgather",
    "NodeSharedBuffer",
    "SimComm",
    "CollectiveResult",
    "EncodedFrontier",
    "FrontierCodec",
    "available_codecs",
    "get_codec",
    "resolve_codec",
    "AllgatherAlgorithm",
    "allgather",
    "allgather_channel_bytes",
    "allgather_time",
    "parallel_allgather_time",
]
