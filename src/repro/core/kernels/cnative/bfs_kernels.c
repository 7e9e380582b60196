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
 *   - `offsets` is the rank-local CSR (rebased so offsets[0] == 0) and
 *     `targets` holds *global* neighbour ids, exactly as LocalGraph
 *     stores them;
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

/* Bottom-up scan over the whole local vertex range, discovery included.
 *
 * Candidate selection (parent < 0 and degree > 0 — exactly
 * RankState.unvisited_local), the early-exit adjacency walk, *and* the
 * state update are fused into one pass so the Python side does no
 * per-level O(n) work at all.  For each candidate (ascending local id)
 * the adjacency is walked in CSR order until the first neighbour whose
 * in_queue bit is set; that neighbour is written into parent[] and the
 * candidate retires.  Writing parent during the scan cannot perturb
 * later candidates: the walk only reads the frontier bitmaps, never
 * parent, and candidates are visited in ascending order exactly once.
 *
 * Accounting (identical to the reference backend): every edge of the
 * walked prefix counts as examined; an edge falls through to an
 * in_queue word read (inqueue_reads) only when there is no summary or
 * its summary block is non-empty — a zero summary block covers the
 * base bitmap, so skipping the read can never hide a hit.
 *
 * Outputs: out_new[k] = local id of the k-th discovery (ascending, the
 * discovery order), parent[out_new[k]] its global parent id,
 * out_counts = {candidates, examined_edges, inqueue_reads,
 * discovered_degree_sum} (the last maintains unexplored_degree).
 * Returns the number of discoveries.  out_new needs capacity nlocal.
 * summary_words may be NULL (granularity is then ignored).
 */
int64_t repro_bu_scan(
    int64_t nlocal,
    const int64_t *offsets,
    const int64_t *targets,
    const uint64_t *inq_words,
    const uint64_t *summary_words,
    int64_t granularity,
    int64_t *parent,
    int64_t *out_new,
    int64_t *out_counts)
{
    int64_t candidates = 0;
    int64_t examined = 0;
    int64_t reads = 0;
    int64_t nfound = 0;
    int64_t deg_sum = 0;

    /* Hoist the per-edge v / granularity: granularities are typically
     * powers of two (64, 256, ...), where a shift replaces the int64
     * division the compiler cannot strength-reduce for a runtime
     * divisor.  Non-power-of-two multiples of 64 keep the division. */
    int shift = -1;
    if (summary_words != 0) {
        int64_t g = granularity;
        int s = 0;
        while ((g & 1) == 0 && g > 1) {
            g >>= 1;
            s++;
        }
        if (g == 1)
            shift = s;
    }

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
    out_counts[0] = candidates;
    out_counts[1] = examined;
    out_counts[2] = reads;
    out_counts[3] = deg_sum;
    return nfound;
}
