"""Property tests for the frontier codec layer.

The contract under test is **losslessness**: every registered codec must
round-trip arbitrary bitmap payloads bit-identically, because the engine
feeds the decoded words straight back into the BFS.  The suite pins that
on the ISSUE's fill grid (empty, 1/1024, half, full) at word-boundary
and off-by-one lengths, exercises the sieve codec's visited-overlap
exceptional path, and closes with whole-run engine bit-identity against
``raw`` under the ``REPRO_CODEC`` matrix — the acceptance criterion that
a codec can never change what the BFS computes, only the simulated wire
bytes and seconds.

Every codec encodes all parts of an allgather in one call;
``TestMultiPart`` checks each part's payload byte for byte against the
one-part-per-call oracle in ``tests/codec_oracle.py`` and that every
malformed part is rejected by index.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BFSConfig, BFSEngine, CommConfig
from repro.errors import CommunicationError, ConfigError
from repro.graph import rmat_graph
from repro.machine import paper_cluster
from repro.machine.costmodel import CodecCostModel
from repro.mpi import AllgatherAlgorithm, SimComm, allgather
from repro.mpi.codecs import (
    CANDIDATE_CODECS,
    DEFAULT_CODEC,
    ENV_VAR,
    AutoCodec,
    EncodedFrontier,
    available_codecs,
    decode_varints,
    default_codec,
    encode_varints,
    get_codec,
    resolve_codec,
)
from repro.mpi.mapping import BindingPolicy, ProcessMapping
from repro.util import bitops
from tests import codec_oracle

#: The concrete wire formats (everything but the ``auto`` chooser).
CONCRETE = ("raw", "rle-bitmap", "sparse-index", "sieve")

#: The ISSUE's fill grid: empty, 1/1024, half, full.
FILLS = (0.0, 1.0 / 1024.0, 0.5, 1.0)

#: Word-boundary and off-by-one bit lengths.
NBITS = (64, 63, 65, 128, 127, 1024, 1023, 1025)


def random_bitmap(nbits: int, fill: float, seed: int) -> np.ndarray:
    """A uint64 bitmap of ``nbits`` bits at the given fill ratio, with
    the padding bits beyond ``nbits`` guaranteed zero."""
    rng = np.random.default_rng(seed)
    bits = rng.random(nbits) < fill
    if fill >= 1.0:
        bits[:] = True
    words = bitops.bool_to_bits(bits)
    pad = bitops.words_for_bits(nbits) - words.size
    if pad:
        words = np.concatenate(
            (words, np.zeros(pad, dtype=bitops.WORD_DTYPE))
        )
    return words


class TestRoundTrip:
    """decode(encode(x)) == x for every codec, fill and length."""

    @pytest.mark.parametrize("name", CONCRETE)
    @pytest.mark.parametrize("fill", FILLS)
    @pytest.mark.parametrize("nbits", NBITS)
    def test_fill_grid(self, name, fill, nbits):
        codec = get_codec(name)
        words = random_bitmap(nbits, fill, seed=nbits * 7 + int(fill * 100))
        enc = codec.encode(words, nbits=nbits)
        assert enc.codec == name
        assert enc.nwords == words.size
        assert enc.nbits == nbits
        out = codec.decode(enc)
        assert out.dtype == bitops.WORD_DTYPE
        assert np.array_equal(out, words), f"{name} corrupted the bitmap"

    @pytest.mark.parametrize("name", CONCRETE)
    @pytest.mark.parametrize("fill", FILLS)
    def test_with_disjoint_visited_mask(self, name, fill):
        """The engine's invariant case: frontier ∩ visited = ∅."""
        nbits = 640
        rng = np.random.default_rng(3)
        frontier_bits = rng.random(nbits) < fill
        visited_bits = ~frontier_bits & (rng.random(nbits) < 0.5)
        words = bitops.bool_to_bits(frontier_bits)
        visited = bitops.bool_to_bits(visited_bits)
        codec = get_codec(name)
        enc = codec.encode(words, nbits=nbits, visited=visited)
        out = codec.decode(enc, visited=visited)
        assert np.array_equal(out, words)

    @pytest.mark.parametrize("name", CONCRETE)
    def test_with_overlapping_visited_mask(self, name):
        """Losslessness for arbitrary inputs: set bits at visited
        positions must survive (the sieve's exceptional list)."""
        nbits = 512
        rng = np.random.default_rng(11)
        frontier_bits = rng.random(nbits) < 0.3
        visited_bits = rng.random(nbits) < 0.5  # overlaps the frontier
        assert (frontier_bits & visited_bits).any()
        words = bitops.bool_to_bits(frontier_bits)
        visited = bitops.bool_to_bits(visited_bits)
        codec = get_codec(name)
        enc = codec.encode(words, nbits=nbits, visited=visited)
        out = codec.decode(enc, visited=visited)
        assert np.array_equal(out, words)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(CONCRETE),
        nbits=st.integers(min_value=1, max_value=700),
        fill_pct=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_randomized(self, name, nbits, fill_pct, seed):
        """Hypothesis sweep over length/fill/content space."""
        codec = get_codec(name)
        words = random_bitmap(nbits, fill_pct / 100.0, seed)
        rng = np.random.default_rng(seed + 1)
        visited_bits = rng.random(nbits) < 0.4
        visited = bitops.bool_to_bits(visited_bits)
        pad = words.size - visited.size
        if pad:
            visited = np.concatenate(
                (visited, np.zeros(pad, dtype=bitops.WORD_DTYPE))
            )
        enc = codec.encode(words, nbits=nbits, visited=visited)
        out = codec.decode(enc, visited=visited)
        assert np.array_equal(out, words)

    def test_raw_is_identity(self):
        raw = get_codec("raw")
        assert raw.is_identity
        words = random_bitmap(256, 0.3, seed=1)
        enc = raw.encode(words)
        # No framing byte, wire bytes == raw bytes: priced like the
        # pre-codec engine.
        assert enc.header_bytes == 0
        assert enc.wire_nbytes == enc.raw_nbytes == words.size * 8
        for name in CONCRETE[1:]:
            assert not get_codec(name).is_identity


@st.composite
def part_layouts(draw):
    """Words split into 1-9 parts (zero-word parts included), a fill,
    and a visited mask that is absent, disjoint from or overlapping the
    frontier."""
    sizes = draw(st.lists(st.integers(0, 10), min_size=1, max_size=9))
    fill = draw(st.floats(0.0, 1.0))
    mode = draw(st.sampled_from(("none", "disjoint", "overlap")))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    nwords = sum(sizes)
    bits = rng.random(nwords * 64) < fill
    # Whole zero / all-ones words, so RLE sees runs at every fill.
    kind = rng.integers(0, 4, size=nwords)
    bits.reshape(nwords, 64)[kind == 0] = False
    bits.reshape(nwords, 64)[kind == 1] = True
    seen = rng.random(nwords * 64) < rng.random()
    if mode == "disjoint":
        seen &= ~bits
    words = bitops.bool_to_bits(bits)
    visited = None if mode == "none" else bitops.bool_to_bits(seen)
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return words, bounds, visited


def reframe(enc, part, data):
    """``enc`` with part ``part``'s payload bytes replaced by ``data``."""
    offsets = enc.part_offsets
    parts = [
        enc.payload[offsets[r] : offsets[r + 1]] for r in range(enc.nparts)
    ]
    parts[part] = np.asarray(data, dtype=np.uint8)
    sizes = np.array([p.size for p in parts], dtype=np.int64)
    return dataclasses.replace(
        enc,
        payload=np.concatenate(parts),
        part_offsets=np.concatenate(([0], np.cumsum(sizes))),
    )


class TestMultiPart:
    """One call encodes every part exactly as the per-part oracle does."""

    @settings(max_examples=150, deadline=None)
    @given(layout=part_layouts())
    def test_matches_per_part_oracle(self, layout):
        words, bounds, visited = layout
        for name in CONCRETE:
            codec = get_codec(name)
            enc = codec.encode(words, bounds=bounds, visited=visited)
            assert enc.nparts == bounds.size - 1
            for r in range(enc.nparts):
                sl = slice(bounds[r], bounds[r + 1])
                part_visited = None if visited is None else visited[sl]
                expect = codec_oracle.encode_part(
                    name, words[sl], visited=part_visited
                )
                got = enc.payload[enc.part_offsets[r] : enc.part_offsets[r + 1]]
                assert np.array_equal(got, expect), f"{name} part {r}"
                assert enc.part_wire_nbytes[r] == (
                    expect.size + codec_oracle.header_bytes(name)
                )
                assert np.array_equal(
                    codec_oracle.decode_part(
                        name, got, words[sl].size, visited=part_visited
                    ),
                    words[sl],
                )
            assert enc.wire_nbytes == int(enc.part_wire_nbytes.sum())
            assert np.array_equal(codec.decode(enc, visited=visited), words)

    @pytest.mark.parametrize("name", CONCRETE)
    def test_one_part_is_the_default(self, name):
        words = random_bitmap(320, 0.1, seed=4)
        codec = get_codec(name)
        one = codec.encode(words)
        same = codec.encode(words, bounds=np.array([0, words.size]))
        assert one.nparts == 1
        assert np.array_equal(one.payload, same.payload)
        assert one.wire_nbytes == int(one.part_wire_nbytes[0])

    @pytest.mark.parametrize("bounds", [[0, 3], [1, 5], [0, 5, 4, 5], [0]])
    def test_bad_bounds_rejected(self, bounds):
        words = random_bitmap(320, 0.1, seed=4)
        with pytest.raises(CommunicationError, match="bounds"):
            get_codec("sparse-index").encode(words, bounds=np.array(bounds))

    def three_parts(self, name):
        """Parts of 2, 1 and 2 words (part 1 holds 64 bits)."""
        words = random_bitmap(5 * 64, 0.3, seed=9)
        return get_codec(name), get_codec(name).encode(
            words, bounds=np.array([0, 2, 3, 5])
        )

    @pytest.mark.parametrize("name", CONCRETE)
    def test_truncated_part_named(self, name):
        codec, enc = self.three_parts(name)
        part = enc.payload[enc.part_offsets[1] : enc.part_offsets[2]]
        with pytest.raises(CommunicationError) as err:
            codec.decode(reframe(enc, 1, part[:-1]))
        assert err.value.context["part"] == 1

    @pytest.mark.parametrize("name", CONCRETE)
    def test_trailing_bytes_in_one_part_named(self, name):
        codec, enc = self.three_parts(name)
        part = enc.payload[enc.part_offsets[1] : enc.part_offsets[2]]
        junk = np.concatenate((part, [5, 0, 0]))
        with pytest.raises(CommunicationError) as err:
            codec.decode(reframe(enc, 1, junk))
        assert err.value.context["part"] == 1

    @pytest.mark.parametrize(
        "name, data",
        [
            ("sparse-index", [1, 64]),  # position 64 of a 64-bit part
            ("sieve", [1, 64, 0, 1, 4]),  # exceptional position 64
            ("sieve", [0, 1, 1, 64]),  # inner sparse position 64
        ],
    )
    def test_position_out_of_range_named(self, name, data):
        codec, enc = self.three_parts(name)
        with pytest.raises(CommunicationError, match="out of range") as err:
            codec.decode(reframe(enc, 1, data))
        assert err.value.context["part"] == 1

    @pytest.mark.parametrize(
        "name, data",
        [
            ("rle-bitmap", [1, (2 << 2) | 0]),  # two zero words, part has one
            ("sieve", [0, 0, 1, (2 << 2) | 0]),  # same, as the inner stream
        ],
    )
    def test_wrong_rle_word_count_named(self, name, data):
        codec, enc = self.three_parts(name)
        with pytest.raises(CommunicationError, match="expected 1") as err:
            codec.decode(reframe(enc, 1, data))
        assert err.value.context["part"] == 1

    def test_unknown_sieve_tag_named(self):
        codec, enc = self.three_parts("sieve")
        with pytest.raises(CommunicationError, match="tag 7") as err:
            codec.decode(reframe(enc, 1, [0, 7]))
        assert err.value.context["part"] == 1

    def test_sieve_rejects_misaligned_visited(self):
        codec, enc = self.three_parts("sieve")
        short = np.zeros(4, dtype=bitops.WORD_DTYPE)
        with pytest.raises(CommunicationError, match="visited"):
            codec.decode(enc, visited=short)
        with pytest.raises(CommunicationError, match="visited"):
            codec.encode(
                np.zeros(5, dtype=bitops.WORD_DTYPE),
                bounds=enc.bounds,
                visited=short,
            )


class TestDecoderStrictness:
    """Payload bytes a part's fields do not account for are corruption."""

    def test_sparse_rejects_position_in_padding(self):
        # Position 70 is a padding bit of a 65-bit part: still inside
        # its two words, but past nbits.
        enc = EncodedFrontier(
            codec="sparse-index",
            payload=encode_varints(np.array([1, 70])),
            nwords=2,
            nbits=65,
        )
        with pytest.raises(CommunicationError, match="out of range"):
            get_codec("sparse-index").decode(enc)

    @pytest.mark.parametrize("name", CONCRETE)
    def test_trailing_bytes_rejected(self, name):
        codec = get_codec(name)
        words = random_bitmap(130, 0.2, seed=2)
        enc = codec.encode(words, nbits=130)
        padded = EncodedFrontier(
            codec=enc.codec,
            payload=np.concatenate(
                (enc.payload, np.array([5, 0, 0], dtype=np.uint8))
            ),
            nwords=enc.nwords,
            nbits=enc.nbits,
            header_bytes=enc.header_bytes,
        )
        with pytest.raises(CommunicationError):
            codec.decode(padded)


class TestVarints:
    """The LEB128 substrate every non-raw codec builds on."""

    @pytest.mark.parametrize(
        "values",
        [
            [0],
            [1, 127, 128, 129],
            [2**14 - 1, 2**14, 2**35, 2**63, 2**64 - 1],
            [],
        ],
    )
    def test_round_trip(self, values):
        vals = np.array(values, dtype=np.uint64)
        buf = encode_varints(vals)
        out, used = decode_varints(buf, len(values))
        assert used == buf.size
        assert np.array_equal(out.astype(np.uint64), vals)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**63 - 1), max_size=200
        )
    )
    def test_round_trip_randomized(self, values):
        vals = np.array(values, dtype=np.int64)
        buf = encode_varints(vals)
        out, used = decode_varints(buf, len(values))
        assert used == buf.size
        assert np.array_equal(out, vals)

    def test_negative_rejected(self):
        with pytest.raises(CommunicationError, match="non-negative"):
            encode_varints(np.array([-1]))

    def test_truncated_stream_rejected(self):
        buf = encode_varints(np.array([300, 300]))
        with pytest.raises(CommunicationError, match="truncated"):
            decode_varints(buf[:-1], 2)


class TestEstimates:
    """estimate_wire_bytes drives auto's choice; sanity-pin its shape."""

    def test_raw_estimate_is_exact(self):
        raw = get_codec("raw")
        for nbits in NBITS:
            assert raw.estimate_wire_bytes(nbits, 0) == (
                bitops.words_for_bits(nbits) * 8.0
            )

    @pytest.mark.parametrize("name", CONCRETE[1:])
    def test_estimates_track_actual_size(self, name):
        """On large payloads the closed form must be within 2x of the
        real encoding (it prices an average layout, not the payload)."""
        codec = get_codec(name)
        nbits = 1 << 16
        for fill in (1.0 / 1024.0, 0.05, 0.9):
            words = random_bitmap(nbits, fill, seed=5)
            set_bits = int(bitops.popcount_words(words).sum())
            actual = codec.encode(words, nbits=nbits).wire_nbytes
            est = codec.estimate_wire_bytes(nbits, set_bits)
            assert est == pytest.approx(actual, rel=1.0), (
                f"{name} estimate {est} vs actual {actual} at fill {fill}"
            )

    def test_sparse_beats_raw_at_low_fill(self):
        sparse = get_codec("sparse-index")
        raw = get_codec("raw")
        nbits = 1 << 16
        assert sparse.estimate_wire_bytes(nbits, nbits // 1024) < (
            raw.estimate_wire_bytes(nbits, nbits // 1024) / 4
        )

    def test_sieve_improves_with_visited_knowledge(self):
        sieve = get_codec("sieve")
        nbits = 1 << 16
        dense = sieve.estimate_wire_bytes(nbits, nbits // 4, 0)
        sieved = sieve.estimate_wire_bytes(
            nbits, nbits // 4, visited_bits=(nbits * 3) // 4
        )
        assert sieved < dense


class TestRegistry:
    def test_available_codecs_sorted_and_complete(self):
        names = available_codecs()
        assert names == tuple(sorted(names))
        for name in CONCRETE + ("auto",):
            assert name in names

    def test_unknown_codec_lists_alternatives(self):
        with pytest.raises(ConfigError, match="available"):
            get_codec("gzip")

    def test_instances_are_shared(self):
        assert get_codec("sieve") is get_codec("sieve")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sparse-index")
        assert default_codec().name == "sparse-index"
        assert resolve_codec(None).name == "sparse-index"
        monkeypatch.delenv(ENV_VAR)
        assert default_codec().name == DEFAULT_CODEC == "raw"

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sparse-index")
        cfg = BFSConfig(comm=CommConfig(codec="rle-bitmap"))
        assert resolve_codec(cfg).name == "rle-bitmap"

    def test_config_rejects_unknown_codec(self):
        with pytest.raises(ConfigError, match="unknown frontier codec"):
            CommConfig(codec="gzip")


class TestAutoCodec:
    """The chooser: scores candidates, never encodes itself."""

    def test_encode_decode_unusable(self):
        auto = get_codec("auto")
        assert isinstance(auto, AutoCodec)
        with pytest.raises(CommunicationError, match="select"):
            auto.encode(np.zeros(1, dtype=bitops.WORD_DTYPE))
        with pytest.raises(CommunicationError, match="concrete"):
            auto.decode(None)

    def test_picks_raw_when_wire_is_free(self):
        """With zero marginal wire cost, compression only adds
        encode/decode time — raw must win."""
        auto = get_codec("auto")
        chosen = auto.select(
            nbits=1 << 20,
            set_bits=100,
            visited_bits=0,
            ns_per_wire_byte=0.0,
            model=CodecCostModel(),
        )
        assert chosen.name == "raw"

    def test_picks_compressor_for_sparse_payload_on_slow_wire(self):
        auto = get_codec("auto")
        chosen = auto.select(
            nbits=1 << 22,
            set_bits=64,
            visited_bits=0,
            ns_per_wire_byte=10.0,
            model=CodecCostModel(),
        )
        assert chosen.name in CANDIDATE_CODECS[1:]

    def test_prefers_sieve_when_mostly_visited(self):
        """Late-BFS shape: dense-ish frontier, nearly everything
        visited — sieving must beat fill-blind formats."""
        auto = get_codec("auto")
        nbits = 1 << 22
        chosen = auto.select(
            nbits=nbits,
            set_bits=nbits // 8,
            visited_bits=(nbits * 7) // 8,
            ns_per_wire_byte=10.0,
            model=CodecCostModel(),
        )
        assert chosen.name == "sieve"

    def test_estimate_is_min_of_candidates(self):
        auto = get_codec("auto")
        nbits, set_bits = 1 << 16, 128
        assert auto.estimate_wire_bytes(nbits, set_bits) == min(
            get_codec(n).estimate_wire_bytes(nbits, set_bits)
            for n in CANDIDATE_CODECS
        )


class TestAllgatherWithCodec:
    """Collective-level: delivered data identical, wire bytes priced."""

    def make_comm(self, nodes=2, ppn=4):
        cluster = paper_cluster(nodes=nodes)
        mapping = ProcessMapping(
            cluster, ppn=ppn, policy=BindingPolicy.BIND_TO_SOCKET
        )
        return SimComm(cluster, mapping)

    @pytest.mark.parametrize("name", CONCRETE[1:] + ("auto",))
    def test_delivered_bits_identical_to_raw(self, name):
        comm = self.make_comm()
        rng = np.random.default_rng(17)
        parts = [
            bitops.bool_to_bits(rng.random(512) < 0.02)
            for _ in range(comm.mapping.num_ranks)
        ]
        visited = [
            np.zeros(p.size, dtype=bitops.WORD_DTYPE) for p in parts
        ]
        base = allgather(comm, parts, AllgatherAlgorithm.RING)
        res = allgather(
            comm,
            parts,
            AllgatherAlgorithm.RING,
            codec=get_codec(name),
            visited_parts=visited,
        )
        assert np.array_equal(res.data, base.data)
        assert res.raw_bytes == base.raw_bytes
        # At 2% fill on 4 KiB parts, compression must actually win.
        assert res.wire_bytes < res.raw_bytes
        assert res.codec in CONCRETE
        # Priced at the per-part sizes the one-part oracle produces.
        sizes = [
            codec_oracle.encode_part(res.codec, p, visited=v).size
            + codec_oracle.header_bytes(res.codec)
            for p, v in zip(parts, visited)
        ]
        assert res.wire_part_bytes == max(sizes)
        assert res.wire_bytes == sum(sizes)

    @pytest.mark.parametrize("name", CONCRETE[1:])
    def test_one_encode_and_decode_per_collective(self, name, monkeypatch):
        comm = self.make_comm()
        rng = np.random.default_rng(5)
        parts = [
            bitops.bool_to_bits(rng.random(rng.integers(1, 9) * 64) < 0.1)
            for _ in range(comm.mapping.num_ranks)
        ]
        codec = get_codec(name)
        calls = []
        for method in ("encode", "decode"):
            real = getattr(codec, method)
            monkeypatch.setattr(
                codec,
                method,
                lambda *a, _real=real, _m=method, **kw: (
                    calls.append(_m) or _real(*a, **kw)
                ),
            )
        res = allgather(comm, parts, AllgatherAlgorithm.RING, codec=codec)
        assert calls == ["encode", "decode"]
        assert np.array_equal(res.data, np.concatenate(parts))

    def test_raw_codec_prices_identically_to_no_codec(self):
        comm = self.make_comm()
        rng = np.random.default_rng(23)
        parts = [
            bitops.bool_to_bits(rng.random(256) < 0.5)
            for _ in range(comm.mapping.num_ranks)
        ]
        base = allgather(comm, parts, AllgatherAlgorithm.RING)
        res = allgather(
            comm, parts, AllgatherAlgorithm.RING, codec=get_codec("raw")
        )
        assert np.array_equal(res.rank_times, base.rank_times)
        assert res.wire_bytes == base.wire_bytes == base.raw_bytes


@pytest.fixture(scope="module")
def codec_matrix_graph():
    """One mid-sized R-MAT workload shared by the engine matrix tests."""
    return rmat_graph(scale=11, edgefactor=8, seed=3)


class TestEngineBitIdentity:
    """Whole-run acceptance criterion: any codec == raw, bit for bit."""

    def run(self, graph, codec_name):
        cluster = paper_cluster(nodes=2)
        cfg = BFSConfig(comm=CommConfig.parallel(codec=codec_name))
        root = int(np.argmax(graph.degrees()))
        return BFSEngine(graph, cluster, cfg).run(root)

    @pytest.mark.parametrize("name", CONCRETE[1:] + ("auto",))
    def test_codec_matches_raw(self, codec_matrix_graph, name):
        graph = codec_matrix_graph
        base = self.run(graph, "raw")
        res = self.run(graph, name)
        assert np.array_equal(res.parent, base.parent)
        assert res.levels == base.levels
        for la, lb in zip(base.counts.levels, res.counts.levels):
            assert la.direction == lb.direction
            assert np.array_equal(la.examined_edges, lb.examined_edges)
            assert np.array_equal(la.inqueue_reads, lb.inqueue_reads)
            assert np.array_equal(la.discovered, lb.discovered)
        assert res.counts.traversed_edges == base.counts.traversed_edges

    @pytest.mark.parametrize("name", CONCRETE[1:])
    def test_env_var_matrix(self, codec_matrix_graph, name, monkeypatch):
        """REPRO_CODEC steers the engine exactly like config.codec."""
        graph = codec_matrix_graph
        cluster = paper_cluster(nodes=2)
        root = int(np.argmax(graph.degrees()))
        monkeypatch.delenv(ENV_VAR, raising=False)
        base = BFSEngine(
            graph, cluster, BFSConfig(comm=CommConfig.parallel())
        ).run(root)
        monkeypatch.setenv(ENV_VAR, name)
        res = BFSEngine(
            graph, cluster, BFSConfig(comm=CommConfig.parallel())
        ).run(root)
        assert np.array_equal(res.parent, base.parent)
        assert res.levels == base.levels
        bu = [
            lc for lc in res.counts.levels if lc.direction == "bottom_up"
        ]
        assert bu, "workload never went bottom-up"
        for lc in bu:
            assert lc.codec == name
            assert lc.inq_wire_total_bytes > 0

    def test_wire_bytes_recorded_per_level(self, codec_matrix_graph):
        res = self.run(codec_matrix_graph, "sieve")
        bu = [
            lc for lc in res.counts.levels if lc.direction == "bottom_up"
        ]
        for lc in bu:
            assert lc.inq_raw_total_bytes > 0
            assert lc.inq_wire_total_bytes > 0
            assert lc.inq_wire_part_bytes > 0

    def test_auto_never_slower_than_raw(self, codec_matrix_graph):
        base = self.run(codec_matrix_graph, "raw")
        auto = self.run(codec_matrix_graph, "auto")
        assert auto.seconds <= base.seconds * (1 + 1e-9)
