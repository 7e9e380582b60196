/* Native BFS kernels for the `cnative` backend.
 *
 * Compiled on first use by build.py (see that module for the cache and
 * fallback story) and called through ctypes with zero-copy numpy buffer
 * passing.  The contract is the same as every other kernel backend
 * (repro/core/kernels/base.py): reproduce the paper's Section II.B.2
 * accounting bit-identically to the reference backend.  What C buys is
 * the *true* per-vertex early exit — no chunked wavefronts, no
 * temporaries, just a scalar loop that stops at the first frontier hit.
 *
 * Conventions shared with the Python side:
 *   - vertex ids, CSR offsets and counters are int64;
 *   - bitmaps are little-endian-within-word uint64 arrays: bit i lives
 *     at word i>>6, position i&63 (util/bitops.py);
 *   - `offsets`/`targets` are the global CSR (targets hold global
 *     neighbour ids); a rank's rows are the slice offsets + lo;
 *   - a summary bit covers `granularity` base bits and is set iff any
 *     of them is set, so a zero summary bit proves an in_queue miss
 *     without reading the base bitmap (Section III.C).
 */

#include <stdint.h>

#define TEST_BIT(words, i) \
    (((words)[(uint64_t)(i) >> 6] >> ((uint64_t)(i) & 63u)) & 1u)

/* The bottom-up scan touches a fresh CSR row per candidate; the row
 * starts advance monotonically but with irregular stride, which
 * hardware prefetchers track poorly.  Software-prefetching a few
 * candidates ahead hides most of that DRAM latency. */
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#else
#define PREFETCH_READ(addr)
#endif
#define PREFETCH_AHEAD 32

/* Hoist the per-edge v / granularity: granularities are typically
 * powers of two (64, 256, ...), where a shift replaces the int64
 * division the compiler cannot strength-reduce for a runtime divisor.
 * Returns log2(granularity), or -1 for the non-power-of-two multiples
 * of 64, which keep the division. */
static int summary_shift(int64_t granularity)
{
    int shift = 0;
    while ((granularity & 1) == 0 && granularity > 1) {
        granularity >>= 1;
        shift++;
    }
    return granularity == 1 ? shift : -1;
}

/* Bottom-up scan of one rank's vertex range, discovery included.
 *
 * `offsets` and `parent` point at the rank's first row (global CSR
 * offsets + lo, global parent + lo), so local id u is global id lo + u.
 * Candidate selection (parent < 0 and degree > 0), the early-exit
 * adjacency walk, *and* the state update are fused into one pass so the
 * Python side does no per-level O(n) work at all.  For each candidate
 * (ascending id) the adjacency is walked in CSR order until the first
 * neighbour whose in_queue bit is set; that neighbour is written into
 * parent[] and the candidate retires.  Writing parent during the scan
 * cannot perturb later candidates: the walk only reads the frontier
 * bitmaps, never parent, and candidates are visited in ascending order
 * exactly once.
 *
 * Accounting (identical to the reference backend): every edge of the
 * walked prefix counts as examined; an edge falls through to an
 * in_queue word read (inqueue_reads) only when there is no summary or
 * its summary block is non-empty — a zero summary block covers the
 * base bitmap, so skipping the read can never hide a hit.
 *
 * Outputs: out_new[k] = local id of the k-th discovery (ascending, the
 * discovery order), parent[out_new[k]] its global parent id, and
 * counts[0..4) += {candidates, examined_edges, inqueue_reads,
 * discovered_degree_sum} at a stride of `stride` words (the last
 * maintains the rank's unexplored degree).  Returns the number of
 * discoveries.  out_new needs capacity nlocal.  summary_words may be
 * NULL (granularity is then ignored).
 */
static int64_t scan_rank(
    int64_t nlocal,
    const int64_t *offsets,
    const int64_t *targets,
    const uint64_t *inq_words,
    const uint64_t *summary_words,
    int64_t granularity,
    int64_t *parent,
    int64_t *out_new,
    int64_t *counts,
    int64_t stride)
{
    int64_t candidates = 0;
    int64_t examined = 0;
    int64_t reads = 0;
    int64_t nfound = 0;
    int64_t deg_sum = 0;

    const int shift = summary_words != 0 ? summary_shift(granularity) : -1;

    /* Pass 1: compact the candidate ids into out_new, branchlessly —
     * the visited pattern is effectively random mid-BFS, so a skip
     * branch here would mispredict tens of thousands of times.  The
     * scan pass below overwrites out_new in place with the discoveries;
     * that is safe because nfound can never pass the read cursor. */
    int64_t ncand = 0;
    for (int64_t u = 0; u < nlocal; u++) {
        out_new[ncand] = u;
        ncand += (parent[u] < 0) & (offsets[u + 1] > offsets[u]);
    }
    candidates = ncand;

    /* Pass 2: early-exit scan of each candidate's adjacency. */
    for (int64_t i = 0; i < ncand; i++) {
        if (i + PREFETCH_AHEAD < ncand)
            PREFETCH_READ(&targets[offsets[out_new[i + PREFETCH_AHEAD]]]);
        const int64_t u = out_new[i];
        const int64_t start = offsets[u];
        const int64_t end = offsets[u + 1];
        for (int64_t e = start; e < end; e++) {
            const int64_t v = targets[e];
            examined++;
            if (summary_words != 0) {
                const int64_t block =
                    shift >= 0 ? (v >> shift) : (v / granularity);
                if (!TEST_BIT(summary_words, block))
                    continue; /* empty block: proven miss, no read */
            }
            reads++;
            if (TEST_BIT(inq_words, v)) {
                parent[u] = v;
                out_new[nfound++] = u;
                deg_sum += end - start;
                break;
            }
        }
    }
    counts[0] = candidates;
    counts[stride] = examined;
    counts[2 * stride] = reads;
    counts[3 * stride] = deg_sum;
    return nfound;
}

/* One bottom-up level over every rank: rank r owns the global vertices
 * [bounds[r], bounds[r + 1]) and is scanned by scan_rank on its slice
 * of the global CSR and parent array.  Its discoveries are rebased to
 * global ids in place and appended to out_new, so out_new ends up
 * ascending — rank-major — with no Python work between ranks.
 * out_counts is laid out [4][nranks] = candidates, examined_edges,
 * inqueue_reads, discovered degree.  out_new needs capacity
 * bounds[nranks] - bounds[0]: a rank's candidate buffer starts after
 * the earlier ranks' discoveries, which never outnumber their
 * vertices.  Returns the total number of discoveries.
 */
int64_t repro_bu_scan(
    int64_t nranks,
    const int64_t *bounds,
    const int64_t *offsets,
    const int64_t *targets,
    const uint64_t *inq_words,
    const uint64_t *summary_words,
    int64_t granularity,
    int64_t *parent,
    int64_t *out_new,
    int64_t *out_counts)
{
    int64_t nfound = 0;
    for (int64_t r = 0; r < nranks; r++) {
        const int64_t lo = bounds[r];
        int64_t *found = out_new + nfound;
        const int64_t k = scan_rank(
            bounds[r + 1] - lo, offsets + lo, targets, inq_words,
            summary_words, granularity, parent + lo, found,
            out_counts + r, nranks);
        for (int64_t i = 0; i < k; i++)
            found[i] += lo;
        nfound += k;
    }
    return nfound;
}

/* ---- the top-down step --------------------------------------------------
 *
 * One call per top-down level covering every rank and every lane of a
 * batch: the Graph500 mpi_simple expand -> alltoallv -> apply, with the
 * exchange reduced to its byte count (simulated ranks share one address
 * space, so the pairs never need to exist).  The numpy oracle is
 * repro/core/topdown.py; the results are identical to it.
 */

#define PAIR_BYTES 16 /* a (child, parent) pair of int64 ids */

#if defined(__GNUC__) || defined(__clang__)
#define CTZ64(x) __builtin_ctzll(x)
#else
static int CTZ64(uint64_t x)
{
    int n = 0;
    while (!(x & 1u)) {
        x >>= 1;
        n++;
    }
    return n;
}
#endif

/* Rank owning v.  block_owner[w] is the owner of vertex 64 * w, so at
 * most the ranks that start inside v's word are stepped over — none
 * when the bounds are word-aligned, as the engine's are. */
static int64_t owner_at(
    const int32_t *block_owner, const int64_t *bounds, int64_t v)
{
    int64_t r = block_owner[v >> 6];
    while (v >= bounds[r + 1])
        r++;
    return r;
}

/* Bits of word w that lie in [lo, hi) (lo < hi). */
static uint64_t range_mask(int64_t w, int64_t lo, int64_t hi)
{
    uint64_t mask = ~(uint64_t)0;
    if (w == lo >> 6)
        mask &= ~(uint64_t)0 << (lo & 63);
    if (w == (hi - 1) >> 6)
        mask &= ~(uint64_t)0 >> (63 - ((hi - 1) & 63));
    return mask;
}

/* The top-down level.  lanes[] holds three int64 tables: rows[nlanes],
 * front_cuts[nlanes + 1] and out_cuts[nlanes + 1].  Lane b's frontier
 * is front[front_cuts[b] .. front_cuts[b + 1]) in rank-major order
 * (rank r owns [bounds[r], bounds[r + 1])), and lane b reads and writes
 * the parent row parent + rows[b] * n.  Per lane:
 *
 *   1. Expand.  Walk the frontier in order, and each row in CSR order.
 *      Per sender, the `offered` bitmap drops a child that sender
 *      already offered, so each surviving (sender, child) pair is one
 *      coalescing-buffer entry: PAIR_BYTES into send[sender][owner].
 *      If the child is still unvisited it is claimed on the spot —
 *      parent written, discovery bit set.  Senders are walked ascending,
 *      so the first claim is the lowest sender's first offer, exactly
 *      the receivers' rule; later offers see parent >= 0.  When the
 *      sender changes, its rows are walked again to clear its bits: a
 *      bitmap that small stays in cache, where a vertex-sized tag array
 *      would cost more to zero per call than a sparse level does.
 *   2. Emit.  Expansion counted the claims per (owner, sender).  Per
 *      owner range, those counts place each sender's discoveries, and
 *      the discovery bits, walked ascending, scatter into place (the
 *      sender of a discovery is the owner of its parent): the next
 *      frontier in (owner, sender, child) order — a counting sort.  The
 *      bits and counts are cleared for the next lane.
 *
 * scratch arrives zeroed and is, in int64 words: examined edges
 * [nlanes][nranks], send bytes [nlanes][nranks][nranks], discovered
 * degree [nlanes][nranks] (the outputs), claims [nranks][nranks], the
 * discovery and offered bitmaps [nwords] each, then as int32 the owner
 * of each word's first vertex [nwords], where nwords = ceil(n / 64).
 * Scratch is O(n) bits: nothing scales with the edges.
 * Lane b's next frontier goes to out[out_cuts[b] .. out_cuts[b + 1]);
 * out needs room for every lane's discoveries (at most nlanes * n).
 *
 * Returns the number of discoveries, or -1 — before writing anything —
 * when bounds do not tile [0, n), a row is out of range or a frontier
 * holds an id outside [0, n) or is not rank-major.
 */
int64_t repro_td_step(
    int64_t n,
    const int64_t *offsets,
    const int64_t *targets,
    int64_t nranks,
    const int64_t *bounds,
    int64_t nlanes,
    const int64_t *front,
    int64_t *lanes,
    int64_t nrows,
    int64_t *parent,
    int64_t *scratch,
    int64_t *out)
{
    const int64_t *rows = lanes;
    const int64_t *front_cuts = lanes + nlanes;
    int64_t *out_cuts = lanes + 2 * nlanes + 1;

    if (nranks < 1 || bounds[0] != 0 || bounds[nranks] != n)
        return -1;
    for (int64_t r = 0; r < nranks; r++)
        if (bounds[r + 1] < bounds[r])
            return -1;
    for (int64_t b = 0; b < nlanes; b++) {
        if (rows[b] < 0 || rows[b] >= nrows)
            return -1;
        int64_t s = 0;
        for (int64_t i = front_cuts[b]; i < front_cuts[b + 1]; i++) {
            const int64_t u = front[i];
            if (u < 0 || u >= n)
                return -1;
            while (u >= bounds[s + 1])
                s++;
            if (u < bounds[s])
                return -1; /* an earlier rank's vertex after a later one */
        }
    }

    const int64_t nwords = (n + 63) >> 6;
    int64_t *examined = scratch;
    int64_t *send = examined + nlanes * nranks;
    int64_t *degree = send + nlanes * nranks * nranks;
    int64_t *claims = degree + nlanes * nranks;
    uint64_t *disc = (uint64_t *)(claims + nranks * nranks);
    uint64_t *offered = disc + nwords;
    int32_t *block_owner = (int32_t *)(offered + nwords);

    for (int64_t w = 0, r = 0; w < nwords; w++) {
        while ((w << 6) >= bounds[r + 1])
            r++;
        block_owner[w] = (int32_t)r;
    }

    int64_t total = 0;
    for (int64_t b = 0; b < nlanes; b++) {
        int64_t *p = parent + rows[b] * n;
        int64_t *ex = examined + b * nranks;
        int64_t *sb = send + b * nranks * nranks;
        int64_t *dd = degree + b * nranks;
        int64_t found = 0;

        for (int64_t i = front_cuts[b], s = 0; i < front_cuts[b + 1];) {
            while (front[i] >= bounds[s + 1])
                s++;
            /* [i, next) is sender s's part of the frontier. */
            int64_t next = i;
            while (next < front_cuts[b + 1] && front[next] < bounds[s + 1])
                next++;
            int64_t *to_owner = sb + s * nranks;
            for (int64_t k = i; k < next; k++) {
                const int64_t u = front[k];
                const int64_t end = offsets[u + 1];
                ex[s] += end - offsets[u];
                for (int64_t e = offsets[u]; e < end; e++) {
                    const int64_t v = targets[e];
                    const uint64_t bit = (uint64_t)1 << (v & 63);
                    if (offered[v >> 6] & bit)
                        continue; /* this sender already offered v */
                    offered[v >> 6] |= bit;
                    const int64_t o = owner_at(block_owner, bounds, v);
                    to_owner[o] += PAIR_BYTES;
                    if (p[v] < 0) {
                        p[v] = u;
                        disc[v >> 6] |= bit;
                        claims[o * nranks + s]++;
                        found++;
                    }
                }
            }
            for (int64_t k = i; k < next; k++)
                for (int64_t e = offsets[front[k]]; e < offsets[front[k] + 1];
                     e++)
                    offered[targets[e] >> 6] = 0;
            i = next;
        }

        out_cuts[b] = total;
        for (int64_t o = 0; o < nranks && found; o++) {
            /* Owner o's claims by sender become each sender's first
             * position in out; the bits then scatter in vertex order. */
            int64_t *slot = claims + o * nranks;
            int64_t here = 0;
            for (int64_t r = 0; r < nranks; r++) {
                const int64_t c = slot[r];
                slot[r] = total + here;
                here += c;
            }
            const int64_t lo = bounds[o], hi = bounds[o + 1];
            for (int64_t w = lo >> 6; here && w <= (hi - 1) >> 6; w++) {
                const uint64_t mask = range_mask(w, lo, hi);
                for (uint64_t x = disc[w] & mask; x; x &= x - 1) {
                    const int64_t v = (w << 6) + CTZ64(x);
                    out[slot[owner_at(block_owner, bounds, p[v])]++] = v;
                    dd[o] += offsets[v + 1] - offsets[v];
                }
                disc[w] &= ~mask;
            }
            for (int64_t r = 0; r < nranks; r++)
                slot[r] = 0;
            total += here;
            found -= here;
        }
    }
    out_cuts[nlanes] = total;
    return total;
}
