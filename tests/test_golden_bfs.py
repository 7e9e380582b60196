"""Golden whole-run digests of ``BFSEngine.run``.

The table below was generated at commit ``d0a4f4e`` — the last one whose
top-down level ran rank by rank (expand -> outbox -> alltoallv shuffle ->
apply) — and pins, per case, a sha256 over the parent tree, every
``LevelCounts`` array and byte field, ``timing.total_seconds`` and the
recovery overhead.  It covers the axes ``test_multisource.py`` does not
sweep: ppn 1/8, 1/4/16 nodes, degree balancing, the sharing and
parallel-allgather variants of ``paper_variants``, codecs, the three
traversal modes, and one faulty run (transient ``alltoallv`` failures
plus a crash rollback).

``GOLDEN_TIMING`` (generated at ``5f4f327``, before the pricing was
vectorised) pins the pricing level by level: per case, a sha256
over every ``LevelTiming`` (per-rank compute ns, mean, max, comm ns, the
sorted ``comm_steps``, switch and stall).  ``GOLDEN`` hashes only the
run total, so a pricing change that moved time between levels or
collective steps would slip past it.

Regenerate (only when a change is *meant* to move simulated results)::

    PYTHONPATH=src python tests/test_golden_bfs.py
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from repro.core.config import (
    BFSConfig,
    CommConfig,
    TraversalMode,
    paper_variants,
)
from repro.core.counts import LevelCounts
from repro.core.engine import BFSEngine
from repro.faults.plan import FaultPlan, RankCrash, TransientFaults
from repro.graph.rmat import rmat_graph
from repro.machine.spec import paper_cluster

VARIANTS = paper_variants()

#: case id -> (scale, nodes, config, fault plan or None)
CASES = {
    "s12-n1-ppn8": (12, 1, VARIANTS["Original.ppn=8"], None),
    "s12-n1-ppn1": (12, 1, VARIANTS["Original.ppn=1"], None),
    "s12-n4-ppn1": (12, 4, VARIANTS["Original.ppn=1"], None),
    "s12-n4-share-inq": (12, 4, VARIANTS["Share in_queue"], None),
    "s12-n4-share-all": (12, 4, VARIANTS["Share all"], None),
    "s13-n16-par-allgather": (13, 16, VARIANTS["Par allgather"], None),
    "s13-n16-granularity": (13, 16, VARIANTS["Granularity"], None),
    "s13-n16-ppn1-balanced": (
        13, 16,
        dataclasses.replace(VARIANTS["Original.ppn=1"], degree_balanced=True),
        None,
    ),
    "s12-n4-balanced": (12, 4, BFSConfig(degree_balanced=True), None),
    "s12-n4-auto": (12, 4, BFSConfig(comm=CommConfig(codec="auto")), None),
    "s12-n4-parallel-sieve": (
        12, 4, BFSConfig(comm=CommConfig.parallel(codec="sieve")), None,
    ),
    "s13-n1-no-summary-rle": (
        13, 1,
        BFSConfig(comm=CommConfig(use_summary=False, codec="rle-bitmap")),
        None,
    ),
    "s12-n1-top-down": (12, 1, BFSConfig(mode=TraversalMode.TOP_DOWN), None),
    "s13-n4-top-down": (13, 4, BFSConfig(mode=TraversalMode.TOP_DOWN), None),
    "s12-n4-bottom-up": (
        12, 4, BFSConfig(mode=TraversalMode.BOTTOM_UP), None,
    ),
    "s12-n4-faulty": (
        12, 4, VARIANTS["Granularity"],
        FaultPlan(
            seed=1,
            crashes=(RankCrash(rank=5, level=3),),
            transients=(
                TransientFaults(probability=0.4, ops=("alltoallv",)),
            ),
        ),
    ),
}

GOLDEN = {
    "s12-n1-ppn8": "16eb923636715a19bd4b000b7e0121bdfd4c81df7ce219c34c7fcbcc29136813",
    "s12-n1-ppn1": "a44547f71a756bebfb61583ce2c88941e83df04f78ba76f338ca3a100d03efc1",
    "s12-n4-ppn1": "cc454c742b9ee84e40586672a8b7f362bb416bcc5a60724f85fbfe16e7a2990c",
    "s12-n4-share-inq": "af9ef7f35cb3ea9f6ccbdfe8ae87d49ebbafb35dd67dc5e675f8c3271bab9696",
    "s12-n4-share-all": "b70ef54aae60d3c50bc65b713b55d6829958e8d7f9ba4280da63f2456d9c312d",
    "s13-n16-par-allgather": "7c435904e5c2d195f05d77610f8ed93d97e03524bb6e18e3f9378883f0cfd747",
    "s13-n16-granularity": "cf5b471a332e20dbea81bd53130dfef48a0684127a81c76c3c2249bb6db4a8ab",
    "s13-n16-ppn1-balanced": "777adbc164738432d2f5266ddcf8cf8b0a747632229849ee6f34544aea2a9346",
    "s12-n4-balanced": "56081aee748952765de3dd731d976183ca85c29a2920a592d3187497a1422378",
    "s12-n4-auto": "40c506a9fcd17ebd62627a873ad33d2e33d21b4f408ad28a48671174d6b30c2a",
    "s12-n4-parallel-sieve": "21e00c85ac63b30a665237c26d39226f5122c42ecdd8d95c58d6f7e9feb7cc1c",
    "s13-n1-no-summary-rle": "5aa513b1021b27523335b15099daa53226c4a9ae2fda68877c5bcbdae014220a",
    "s12-n1-top-down": "841e94c3421ce164ab5fef6789f664a2748d7740d167d5ff1966e3235ac10ac8",
    "s13-n4-top-down": "8730dbafca38f5697ee64ce9ae4d99401b37f9b64e28627b6eec2bf08590fac0",
    "s12-n4-bottom-up": "dd79260fec1beba0b24e7839a9bd835d0bb464b413db4595e4d0e66cdb99723a",
    "s12-n4-faulty": "8efde628234578a7fdc4c9ffdf388eb643913a1e24a0c6f9968a49aa53d1c4f9",
}


GOLDEN_TIMING = {
    "s12-n1-ppn8": "fb67e08aa3aa60fda79fb15c62e3dcbe66a57ce562a442926af30a981dab291e",
    "s12-n1-ppn1": "fcc68516ea7516808d60e6dacae80ca84f3e06771fdf2595cd7f3b22745d3df4",
    "s12-n4-ppn1": "6bf9f591dca442b23d08c4dd41d4154223335ff3e1cfb13023ec648150c5e7d5",
    "s12-n4-share-inq": "916c1a0a14233146a9c3b082c31d638d89a4638416aa15c36b16d58f9f570f2d",
    "s12-n4-share-all": "16c6e15bcce3ea95950f67db9c5354101afc0b0b1c4f8b055db836a8d253b51b",
    "s13-n16-par-allgather": "348ead0802fcde8b103fbc966ee9e33a1f33d316ce6f88b325d130f6437e541b",
    "s13-n16-granularity": "b2c1983acfa03b88f325258dc0e55d9199788b61662d133196dfb076a3aedb50",
    "s13-n16-ppn1-balanced": "3c6fd5d1af35fa6974ee6d5583eff791f56f364807f5c09489674932e8311631",
    "s12-n4-balanced": "84a9f855fdddeec580a525be5643b2c2897d5d55d565fbc545b256a9f97b07d3",
    "s12-n4-auto": "9b82df7d9db65b39d8ad5032c3327358eb397271ba12be89217cdf72673c023b",
    "s12-n4-parallel-sieve": "ea9d6d744a11a9e5473fa9ccd995a54948db413ae3dd89461ddb916f792a606b",
    "s13-n1-no-summary-rle": "f2ddf65710d907b33fb7c7c31e6765b0817f9d40b07a0639849db9d8f4d0a968",
    "s12-n1-top-down": "6002f5400a4a7375627bcc08cd1efec2703c64faec16109f38e38daee5abc25f",
    "s13-n4-top-down": "272b384b69f335e7a5f8b5a04ca262b72e9eb9a009f6a766a4cec3126ba9152f",
    "s12-n4-bottom-up": "00828dc1fb88531ba3400166edd51906beb543ef07f10211bb228d0ffebdc3dc",
    "s12-n4-faulty": "2b363de4ee8fb0b9cee27c1dd0ed9c1978b626fd7cc1fcee10fb8c65452905e0",
}


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(str(value.shape).encode())
        h.update(np.ascontiguousarray(value, dtype=np.int64).tobytes())
    elif isinstance(value, float):
        h.update(struct.pack("<d", value))
    else:
        h.update(repr(value).encode())


def run_digest(result) -> str:
    """sha256 over everything the simulation is priced from."""
    h = hashlib.sha256()
    _feed(h, result.parent)
    _feed(h, result.levels)
    for lc in result.counts.levels:
        for f in dataclasses.fields(LevelCounts):
            _feed(h, getattr(lc, f.name))
    _feed(h, float(result.timing.total_seconds))
    if result.recovery is not None:
        _feed(h, float(result.recovery.overhead_ns))
        _feed(h, result.recovery.retries)
        _feed(h, result.recovery.rollbacks)
    return h.hexdigest()


def timing_digest(result) -> str:
    """sha256 over every level's priced time, step by step."""
    h = hashlib.sha256()
    for lt in result.timing.levels:
        h.update(repr((lt.level, lt.direction)).encode())
        h.update(np.ascontiguousarray(lt.compute_rank_ns, np.float64).tobytes())
        for value in (
            lt.compute_mean_ns, lt.compute_max_ns, lt.comm_ns,
            lt.switch_ns, lt.stall_ns,
        ):
            h.update(struct.pack("<d", value))
        for step, ns in sorted(lt.comm_steps.items()):
            h.update(step.encode())
            h.update(struct.pack("<d", ns))
    return h.hexdigest()


def run_case(case_id: str):
    scale, nodes, config, plan = CASES[case_id]
    if config.comm.codec is None:
        # Pin what $REPRO_CODEC would otherwise decide (CI runs the
        # suite under REPRO_CODEC=auto as well).
        config = dataclasses.replace(
            config, comm=dataclasses.replace(config.comm, codec="raw")
        )
    graph = rmat_graph(scale=scale, edgefactor=16, seed=scale)
    root = int(np.argmax(graph.degrees()))
    engine = BFSEngine(graph, paper_cluster(nodes=nodes), config, faults=plan)
    return engine.run(root)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_run_matches_golden_digest(case_id):
    assert run_digest(run_case(case_id)) == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_level_timings_match_golden_digest(case_id):
    assert timing_digest(run_case(case_id)) == GOLDEN_TIMING[case_id]


def test_faulty_case_exercises_retry_and_rollback():
    """The pinned faulty run really takes both recovery paths."""
    rec = run_case("s12-n4-faulty").recovery
    assert rec.retries >= 1 and rec.rollbacks == 1
    assert any(
        a["action"] == "retry" and a["collective"] == "alltoallv"
        for a in rec.actions
    )


if __name__ == "__main__":
    results = {cid: run_case(cid) for cid in CASES}
    for name, digest in (("GOLDEN", run_digest), ("GOLDEN_TIMING", timing_digest)):
        print(f"{name} = {{")
        for cid, result in results.items():
            print(f'    "{cid}": "{digest(result)}",')
        print("}")
