"""Golden digests of the allgather pricing, per algorithm.

Pins, for every :class:`AllgatherAlgorithm`, a sha256 over the priced
schedule of every input of the grid below: nodes 1/2/4/16 x ppn 1/2/4/8
(ppn 1 with ``interleave`` binding) x total payloads 0 / 1 KB / 1 MB /
128 MB, each priced raw and again coded with uneven wire sizes (the
largest wire part above the mean, as a codec leaves them).

* ``GOLDEN_PRICE`` hashes ``allgather_time``: the total and the sorted
  breakdown.  A coded input adds the codec bracket the functional path
  and the pricer charge: encode on the largest raw part, decode on the
  wire total.
* ``GOLDEN_BYTES`` hashes ``allgather_channel_bytes`` at the priced
  (wire) sizes.
* ``GOLDEN_EXPLAIN`` hashes ``explain_allgather``'s step names, channels
  and times (not its bytes or descriptions).

Regenerate (only when a change is *meant* to move simulated results)::

    PYTHONPATH=src python tests/test_golden_allgather.py
"""

import hashlib
import struct

import pytest

from repro.machine.spec import KB, MB, paper_cluster
from repro.mpi import (
    AllgatherAlgorithm,
    BindingPolicy,
    ProcessMapping,
    SimComm,
    allgather_channel_bytes,
    allgather_time,
    explain_allgather,
)

NODES = (1, 2, 4, 16)
PPNS = (1, 2, 4, 8)
TOTALS = (0.0, 1.0 * KB, 1.0 * MB, 128.0 * MB)

GOLDEN_PRICE = {
    "ring": "5e475091295a813585d6403f374fddcacf4a772957e3ea18491c3b48c9a652b1",
    "recursive_doubling": "32b9d7ca9f51f74788a6a40fbc4645e9260bb3a2a50db151e2df7845c1f2853b",
    "default": "0807758b45e1fdb6cc697ab849c96c4cd244c137a9451e10addafded8fd3cc20",
    "leader": "ccc686b5950d9cbdca93b19be590fd524079e5c55164b3ada1d0c25743886281",
    "shared_in": "c011578fd3d1b66d22e68d73fd2a065e412503175aded4f063290bc43fdc3c2b",
    "shared_all": "dd83163407b2601a91398079a7c4f3ab3db17cf4743cfddfe18ce6144e67e080",
    "parallel_shared": "905544fc66dbcc2de17def84f0156dbc632dc0f6931d0352da5c51e6d3f57d40",
    "multi_leader": "453349b0e3a1ce9502390847a2a20b2048e5f173da14467ecc3710a4566f633f",
    "leader_overlapped": "335b2699b3637bdb3b39c3a88aa42020c8bddd9743bdc100e7922c80e136e501",
}

GOLDEN_BYTES = {
    "ring": "f2e5d72ca22c68fbf3be91a327355417ff49c0184cbad9f0d0ee1ae07a286d46",
    "recursive_doubling": "398dd8d3d3ac2216a5ec1ef9535a8eeae71a60d43af1e0c11c21b5a5ce2e5e5e",
    "default": "9dcf9e6d19716416404083b97897adfcf06eee4672ae365d230ee48fc08d08d1",
    "leader": "c7f842542b7985a76abcdb1312a33489bef6a688c5e9828ebcffd448aa0ea873",
    "shared_in": "4d65eed6c5f489d72b7836144714439e1d96dc66026f36b31da172fb781f9c13",
    "shared_all": "b0c9df9b7d49d54ebf4055f02c7bc48d2b2fda8393e65e85e17a5ca677b728a2",
    "parallel_shared": "b0c9df9b7d49d54ebf4055f02c7bc48d2b2fda8393e65e85e17a5ca677b728a2",
    "multi_leader": "0d2f85e34fa91547eed49df36a86d75809a6a18e383aed0f8528dbadb2af9703",
    "leader_overlapped": "c7f842542b7985a76abcdb1312a33489bef6a688c5e9828ebcffd448aa0ea873",
}

GOLDEN_EXPLAIN = {
    "ring": "9668ad5b61be9e17c609c0b7f85bbfb2957bf024c4c09c7fc46d52ca9ad87167",
    "recursive_doubling": "d485a0053d1595b5ec8dc837c5d206f20fa3660e65033f31515b8d45d30c4f92",
    "default": "ca76bad2d7e48a59e344a174d40149725f7cf850514acf08d934bf860cff29b3",
    "leader": "79771ba37c6cfeccbe6763f76aceeb0a1c903e2116b2c1a14a9b8309d6f86b46",
    "shared_in": "9ac3017cf4ca7b8201796b3d98f82fbc2364f89c8d4a5ffe44b10f483cd1bdd3",
    "shared_all": "7b2b43a5f2ae8caef1a768beaeb9136c7b48e136f8b776da2791e326166d544b",
    "parallel_shared": "3fc050d6df9a5bb1a426df11c9ebbf95a5cd14ec69f183ae940dc3da27ddcccd",
    "multi_leader": "33559e8b5e15a58948325e585a2fc3788696b4968e95f601a61e3056931332e1",
    "leader_overlapped": "7ece74b85d1c6982b7ad8ac86e837248fac14b16d30b6689fd9c6053af476d99",
}


def _comms():
    for nodes in NODES:
        cluster = paper_cluster(nodes=nodes)
        for ppn in PPNS:
            policy = (
                BindingPolicy.INTERLEAVE if ppn == 1
                else BindingPolicy.BIND_TO_SOCKET
            )
            yield SimComm(cluster, ProcessMapping(cluster, ppn, policy))


def _inputs():
    """``(comm, raw_part, raw_total, wire_part, wire_total, coded)``."""
    for comm in _comms():
        np_ranks = comm.num_ranks
        for total in TOTALS:
            part = total / np_ranks
            yield comm, part, total, part, total, False
            wire_total = float(int(total * 0.3))
            wire_part = min(wire_total, float(int(wire_total / np_ranks * 1.75)))
            yield comm, part, total, wire_part, wire_total, True


def _price(comm, algorithm, raw_part, wire_part, wire_total, coded):
    t, steps = allgather_time(comm, algorithm, wire_part, wire_total)
    if coded:
        steps["codec_encode"] = comm.codec_model.encode_time_ns(raw_part)
        steps["codec_decode"] = comm.codec_model.decode_time_ns(wire_total)
        t += steps["codec_encode"] + steps["codec_decode"]
    return t, steps


def _pack(h, *values: float) -> None:
    for value in values:
        h.update(struct.pack("<d", value))


def digests(algorithm: AllgatherAlgorithm) -> tuple[str, str, str]:
    """The (price, bytes, explain) digests of one algorithm."""
    price, nbytes, explain = (hashlib.sha256() for _ in range(3))
    for comm, part, total, wire_part, wire_total, coded in _inputs():
        t, steps = _price(comm, algorithm, part, wire_part, wire_total, coded)
        _pack(price, t)
        for name, ns in sorted(steps.items()):
            price.update(name.encode())
            _pack(price, ns)
        channels = allgather_channel_bytes(comm, algorithm, wire_part, wire_total)
        for name, value in sorted(channels.items()):
            nbytes.update(name.encode())
            _pack(nbytes, value)
        shown = explain_allgather(
            comm, algorithm, part, total,
            codec="sieve" if coded else None,
            wire_part_bytes=wire_part, wire_total_bytes=wire_total,
        )
        for step in shown:
            explain.update(f"{step.name}|{step.channel}".encode())
            _pack(explain, step.time_ns)
    return price.hexdigest(), nbytes.hexdigest(), explain.hexdigest()


@pytest.mark.parametrize(
    "algorithm", list(AllgatherAlgorithm), ids=lambda a: a.value
)
def test_allgather_pricing_matches_golden_digests(algorithm):
    price, nbytes, explain = digests(algorithm)
    assert price == GOLDEN_PRICE[algorithm.value]
    assert nbytes == GOLDEN_BYTES[algorithm.value]
    assert explain == GOLDEN_EXPLAIN[algorithm.value]


if __name__ == "__main__":
    results = {a.value: digests(a) for a in AllgatherAlgorithm}
    for i, name in enumerate(("GOLDEN_PRICE", "GOLDEN_BYTES", "GOLDEN_EXPLAIN")):
        print(f"{name} = {{")
        for value, digest in results.items():
            print(f'    "{value}": "{digest[i]}",')
        print("}\n")
