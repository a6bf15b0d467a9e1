/* The native library behind REPRO_SCREENING_BACKEND=native.

   repro.collision.merge_kernel compiles this file once per source digest
   with the system cc and loads it through ctypes.  It holds four kernels,
   each the C twin of a Python/numpy reference that stays the
   no-toolchain path:

   - region_failure_counts: Algorithm 3's per-candidate failed-trial
     count of one local region (YieldSimulator._failure_counts_folded);
   - sabre_pass: one SABRE routing pass (SabreRouter._python_pass);
   - chip_survivors: the full-chip Monte Carlo survivor count
     (YieldSimulator._compacted_survivors);
   - pcg64_normal_fill: numpy's Generator.normal over a PCG64 stream.

   The loader builds with -ffp-contract=off: every kernel must round each
   intermediate exactly as numpy or Python does, and a fused multiply-add
   would not. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ------------------------------------------------------------------------
   Algorithm 3's candidate ranking.

   counts[c] is the number of trials of the (trials, n) noise tensor on
   which some pair (j, k) triggers conditions 1-4 or some triple (j; i, k)
   conditions 5-7, with the scanned qubit designed at candidates[c] and
   every other qubit at base.  It mirrors
   YieldSimulator._failure_counts_folded operation for operation: each
   difference is its designed part (per candidate, computed once) plus its
   noise part (per trial, shared by every candidate), followed by the same
   abs, subtract and compare steps in the same order, so every comparison
   sees the doubles numpy sees; NaN compares false on both sides.  The
   folded form is valid only for thresholds that pass
   YieldSimulator._foldable_thresholds; the caller checks that, and that
   scanned and every index lie in [0, n).  Returns 0, or 1 when the
   scratch allocation fails.
   ------------------------------------------------------------------------ */

int region_failure_counts(
    const double *candidates, int64_t num_candidates, int64_t scanned,
    const double *base, const double *noise, int64_t trials, int64_t n,
    const int64_t *pairs, int64_t num_pairs,
    const int64_t *triples, int64_t num_triples,
    double delta, double t1, double t2, double t3,
    double t5, double t6, double t7,   /* condition 4 has no threshold */
    int64_t *counts   /* (num_candidates,), zeroed */
) {
    double c2 = -delta / 2.0, c34 = -delta - t3, c6 = -delta;
    int64_t width = num_candidates;
    /* Designed differences, one row of width per pair and two per triple,
       then one failure flag per candidate. */
    size_t rows = (size_t)(num_pairs + 2 * num_triples);
    double *designed = (double *)malloc(
        rows * (size_t)width * sizeof(double) + (size_t)width + 1);
    if (!designed) return 1;
    unsigned char *failed = (unsigned char *)(designed + rows * (size_t)width);

#define FREQ(q, c) ((q) == scanned ? candidates[c] : base[q])
    for (int64_t p = 0; p < num_pairs; p++) {
        int64_t j = pairs[2 * p], k = pairs[2 * p + 1];
        double *row = designed + p * width;
        for (int64_t c = 0; c < width; c++) row[c] = FREQ(j, c) - FREQ(k, c);
    }
    for (int64_t p = 0; p < num_triples; p++) {
        int64_t j = triples[3 * p], i = triples[3 * p + 1], k = triples[3 * p + 2];
        double *ik = designed + (num_pairs + 2 * p) * width;
        double *sum = ik + width;
        for (int64_t c = 0; c < width; c++) {
            ik[c] = FREQ(i, c) - FREQ(k, c);
            sum[c] = 2.0 * FREQ(j, c) + delta - FREQ(i, c) - FREQ(k, c);
        }
    }
#undef FREQ

    for (int64_t t = 0; t < trials; t++) {
        const double *row = noise + t * n;
        memset(failed, 0, (size_t)width);
        for (int64_t p = 0; p < num_pairs; p++) {
            double shift = row[pairs[2 * p]] - row[pairs[2 * p + 1]];
            const double *d = designed + p * width;
            for (int64_t c = 0; c < width; c++) {
                double x = fabs(d[c] + shift);
                failed[c] |= (x < t1) | (x > c34) | (fabs(x - c2) < t2);
            }
        }
        for (int64_t p = 0; p < num_triples; p++) {
            int64_t j = triples[3 * p], i = triples[3 * p + 1], k = triples[3 * p + 2];
            double ik_shift = row[i] - row[k];
            double sum_shift = 2.0 * row[j] - row[i] - row[k];
            const double *ik = designed + (num_pairs + 2 * p) * width;
            const double *sum = ik + width;
            for (int64_t c = 0; c < width; c++) {
                double x = fabs(ik[c] + ik_shift);
                double s = fabs(sum[c] + sum_shift);
                failed[c] |= (x < t5) | (fabs(x - c6) < t6) | (s < t7);
            }
        }
        for (int64_t c = 0; c < width; c++) counts[c] += failed[c];
    }
    free(designed);
    return 0;
}

/* ------------------------------------------------------------------------
   One SABRE routing pass, an exact transliteration of
   repro.mapping.sabre.SabreRouter._python_pass (see that module for the
   algorithm and SabreRouter._native_pass for the array layout).
   Distances are small integers held in doubles, so every cost sum is
   exact; the score keeps the Python expression order, and
   -ffp-contract=off keeps it from being fused, so equal scores tie
   exactly as they do in Python.
   ------------------------------------------------------------------------ */

enum { SABRE_OK = 0, SABRE_OVERFLOW = 1, SABRE_FAILED = 2 };

static void sort_small(int32_t *values, int64_t count) {
    for (int64_t i = 1; i < count; i++) {
        int32_t value = values[i];
        int64_t j = i - 1;
        while (j >= 0 && values[j] > value) {
            values[j + 1] = values[j];
            j--;
        }
        values[j + 1] = value;
    }
}

/* Partner lists (the other operand of each gate in nodes) as CSR keyed
   by logical, in node order like repro.mapping.sabre._partners. */
static void build_partners(
    const int32_t *nodes, int64_t count, const int32_t *qa, const int32_t *qb,
    int64_t num_qubits, int32_t *start, int32_t *cursor, int32_t *items
) {
    memset(start, 0, (size_t)(num_qubits + 1) * sizeof(int32_t));
    for (int64_t i = 0; i < count; i++) {
        start[qa[nodes[i]] + 1]++;
        start[qb[nodes[i]] + 1]++;
    }
    for (int64_t l = 0; l < num_qubits; l++) start[l + 1] += start[l];
    memcpy(cursor, start, (size_t)num_qubits * sizeof(int32_t));
    for (int64_t i = 0; i < count; i++) {
        int32_t a = qa[nodes[i]], b = qb[nodes[i]];
        items[cursor[a]++] = b;
        items[cursor[b]++] = a;
    }
}

typedef struct {
    const int64_t *physical;
    const int32_t *key_logical;
    int32_t *pos, *occupant;
    int64_t *events;
    int64_t capacity, length;
    int record;
} sabre_state;

/* The logical at an index when it is a circuit logical, else -1. */
static inline int32_t logical_at(const sabre_state *s, int32_t index) {
    int32_t key = s->occupant[index];
    return key < 0 ? -1 : s->key_logical[key];
}

static inline void record_event(sabre_state *s, int64_t event) {
    if (s->length < s->capacity) s->events[s->length] = event;
    s->length++;
}

static void apply_swap(sabre_state *s, int32_t index_a, int32_t index_b) {
    int32_t key_a = s->occupant[index_a], key_b = s->occupant[index_b];
    s->occupant[index_a] = key_b;
    s->occupant[index_b] = key_a;
    if (key_a >= 0 && s->key_logical[key_a] >= 0) s->pos[s->key_logical[key_a]] = index_b;
    if (key_b >= 0 && s->key_logical[key_b] >= 0) s->pos[s->key_logical[key_b]] = index_a;
    if (s->record) {
        record_event(s, ~s->physical[index_a]);
        record_event(s, ~s->physical[index_b]);
    }
}

int sabre_pass(
    /* router: distances, coupling edges, CSR edges per index, CSR
       ascending-id neighbours per index, physical id per index */
    int64_t positions, const double *dist,
    int64_t num_edges, const int32_t *edge_a, const int32_t *edge_b,
    const int32_t *edges_at_start, const int32_t *edges_at,
    const int32_t *neighbor_start, const int32_t *neighbors,
    const int64_t *physical,
    /* pack: operands (-1 unless two-qubit), CSR successors, predecessor
       counts, sorted initial front */
    int64_t size, int64_t num_qubits, int64_t num_nodes,
    const int32_t *qa, const int32_t *qb,
    const int32_t *succ_start, const int32_t *succ, const int32_t *num_preds,
    const int32_t *front, int64_t front_len,
    /* parameters */
    int64_t extended_set_size, double weight, double decay_factor,
    int64_t decay_reset_interval, int64_t swap_budget, int64_t stall_threshold,
    /* mapping (in/out): index of each circuit logical, mapping-key index
       at each position (-1 when free), circuit logical of each key (-1
       for extra keys) */
    int32_t *pos, int32_t *occupant, const int32_t *key_logical,
    /* event log; record == 0 skips it */
    int record, int64_t *events, int64_t capacity,
    int64_t *out   /* [num_swaps, event count] */
) {
    int64_t depth = extended_set_size > 0 ? extended_set_size : 0;
    if (depth > size) depth = size;
    /* Each node enters the execute queue and the BFS queue at most once
       per walk, so every node-indexed buffer holds size entries. */
    size_t words = (size_t)(7 * size + 3 * depth + 3 * num_qubits + 2 + num_edges);
    int32_t *block = (int32_t *)calloc(words, sizeof(int32_t));
    double *decay = (double *)malloc((size_t)(positions + 1) * sizeof(double));
    if (!block || !decay) { free(block); free(decay); return SABRE_FAILED; }
    int32_t *remaining = block;
    int32_t *queue = remaining + size;
    int32_t *blocked = queue + size;
    int32_t *visited = blocked + size;       /* BFS stamps */
    int32_t *bfs = visited + size;
    int32_t *extended = bfs + size;
    int32_t *front_start = extended + depth;
    int32_t *ext_start = front_start + (num_qubits + 1);
    int32_t *cursor = ext_start + (num_qubits + 1);
    int32_t *front_items = cursor + num_qubits;
    int32_t *ext_items = front_items + 2 * size;
    int32_t *edge_mark = ext_items + 2 * depth;

    sabre_state s = {physical, key_logical, pos, occupant,
                     events, record ? capacity : 0, 0, record};
    for (int64_t i = 0; i < size; i++) remaining[i] = num_preds[i];
    for (int64_t i = 0; i < positions; i++) decay[i] = 1.0;
    int64_t blocked_len = front_len;
    memcpy(blocked, front, (size_t)front_len * sizeof(int32_t));
    int64_t pending = num_nodes;
    int64_t num_swaps = 0, since_reset = 0, since_progress = 0;
    int32_t stamp = 0, edge_stamp = 0;
    int status = SABRE_OK;

    for (;;) {
        /* Execute everything executable, walking the sorted front and
           the nodes it unblocks; what stays blocked is the next front. */
        int64_t head = 0, tail = blocked_len;
        memcpy(queue, blocked, (size_t)blocked_len * sizeof(int32_t));
        blocked_len = 0;
        while (head < tail) {
            int32_t node = queue[head++];
            int32_t a = qa[node];
            if (a >= 0 && dist[(int64_t)pos[a] * positions + pos[qb[node]]] != 1.0) {
                blocked[blocked_len++] = node;
                continue;
            }
            if (record) record_event(&s, node);
            pending--;
            for (int32_t k = succ_start[node]; k < succ_start[node + 1]; k++) {
                int32_t next = succ[k];
                if (!--remaining[next]) queue[tail++] = next;
            }
        }
        if (!pending) break;
        sort_small(blocked, blocked_len);

        /* The extended set: BFS from the sorted front's successors, cut
           after depth two-qubit nodes. */
        int64_t ext_len = 0;
        if (depth > 0) {
            stamp++;
            int64_t bhead = 0, btail = 0;
            for (int64_t i = 0; i < blocked_len; i++) {
                int32_t node = blocked[i];
                for (int32_t k = succ_start[node]; k < succ_start[node + 1]; k++) {
                    int32_t next = succ[k];
                    if (visited[next] != stamp) { visited[next] = stamp; bfs[btail++] = next; }
                }
            }
            while (bhead < btail) {
                int32_t node = bfs[bhead++];
                if (qa[node] >= 0) {
                    extended[ext_len++] = node;
                    if (ext_len >= depth) break;
                }
                for (int32_t k = succ_start[node]; k < succ_start[node + 1]; k++) {
                    int32_t next = succ[k];
                    if (visited[next] != stamp) { visited[next] = stamp; bfs[btail++] = next; }
                }
            }
        }
        build_partners(blocked, blocked_len, qa, qb, num_qubits,
                       front_start, cursor, front_items);
        build_partners(extended, ext_len, qa, qb, num_qubits,
                       ext_start, cursor, ext_items);
        double base_front = 0.0, base_extended = 0.0;
        for (int64_t i = 0; i < blocked_len; i++) {
            int32_t node = blocked[i];
            base_front += dist[(int64_t)pos[qa[node]] * positions + pos[qb[node]]];
        }
        for (int64_t i = 0; i < ext_len; i++) {
            int32_t node = extended[i];
            base_extended += dist[(int64_t)pos[qa[node]] * positions + pos[qb[node]]];
        }
        int64_t front_div = blocked_len > 1 ? blocked_len : 1;

        for (;;) {
            if (since_progress >= stall_threshold) {
                /* Livelock escape: walk the first blocked gate's operands
                   together, stepping to the lowest-id closer neighbour. */
                int32_t la = qa[blocked[0]], lb = qb[blocked[0]];
                for (;;) {
                    int32_t ia = pos[la], ib = pos[lb];
                    double current = dist[(int64_t)ia * positions + ib];
                    if (current <= 1.0) break;
                    int32_t step = -1;
                    for (int32_t k = neighbor_start[ia]; k < neighbor_start[ia + 1]; k++) {
                        if (dist[(int64_t)neighbors[k] * positions + ib] < current) {
                            step = neighbors[k];
                            break;
                        }
                    }
                    if (step < 0) { status = SABRE_FAILED; goto done; }
                    apply_swap(&s, ia, step);
                    num_swaps++;
                }
                since_progress = 0;
                break;
            }

            /* Candidates: every edge at a front logical, ascending id. */
            edge_stamp++;
            for (int64_t l = 0; l < num_qubits; l++) {
                if (front_start[l] == front_start[l + 1]) continue;
                int32_t at = pos[l];
                for (int32_t k = edges_at_start[at]; k < edges_at_start[at + 1]; k++) {
                    edge_mark[edges_at[k]] = edge_stamp;
                }
            }
            int found = 0, found_improving = 0;
            double best_score = 0.0, best_improving_score = 0.0;
            int32_t best_a = 0, best_b = 0, improving_a = 0, improving_b = 0;
            double best_df = 0.0, best_de = 0.0, improving_df = 0.0, improving_de = 0.0;
            for (int64_t e = 0; e < num_edges; e++) {
                if (edge_mark[e] != edge_stamp) continue;
                int32_t ia = edge_a[e], ib = edge_b[e];
                const double *row_a = dist + (int64_t)ia * positions;
                const double *row_b = dist + (int64_t)ib * positions;
                int32_t la = logical_at(&s, ia), lb = logical_at(&s, ib);
                double df = 0.0, de = 0.0;
                if (la >= 0) {
                    for (int32_t k = front_start[la]; k < front_start[la + 1]; k++) {
                        int32_t partner = front_items[k];
                        if (partner != lb) { int32_t at = pos[partner]; df += row_b[at] - row_a[at]; }
                    }
                }
                if (lb >= 0) {
                    for (int32_t k = front_start[lb]; k < front_start[lb + 1]; k++) {
                        int32_t partner = front_items[k];
                        if (partner != la) { int32_t at = pos[partner]; df += row_a[at] - row_b[at]; }
                    }
                }
                if (la >= 0) {
                    for (int32_t k = ext_start[la]; k < ext_start[la + 1]; k++) {
                        int32_t partner = ext_items[k];
                        if (partner != lb) { int32_t at = pos[partner]; de += row_b[at] - row_a[at]; }
                    }
                }
                if (lb >= 0) {
                    for (int32_t k = ext_start[lb]; k < ext_start[lb + 1]; k++) {
                        int32_t partner = ext_items[k];
                        if (partner != la) { int32_t at = pos[partner]; de += row_a[at] - row_b[at]; }
                    }
                }
                double score = (base_front + df) / (double)front_div;
                if (ext_len) score += weight * (base_extended + de) / (double)ext_len;
                double decay_a = decay[ia], decay_b = decay[ib];
                score *= decay_a >= decay_b ? decay_a : decay_b;
                if (!found || score < best_score) {
                    found = 1; best_score = score;
                    best_a = ia; best_b = ib; best_df = df; best_de = de;
                }
                if (df < 0.0 && (!found_improving || score < best_improving_score)) {
                    found_improving = 1; best_improving_score = score;
                    improving_a = ia; improving_b = ib; improving_df = df; improving_de = de;
                }
            }
            if (!found) { status = SABRE_FAILED; goto done; }
            if (found_improving) {
                best_a = improving_a; best_b = improving_b;
                best_df = improving_df; best_de = improving_de;
            }
            base_front += best_df;
            base_extended += best_de;
            apply_swap(&s, best_a, best_b);
            num_swaps++;
            since_reset++;
            since_progress++;
            decay[best_a] += decay_factor;
            decay[best_b] += decay_factor;
            if (since_reset >= decay_reset_interval) {
                for (int64_t i = 0; i < positions; i++) decay[i] = 1.0;
                since_reset = 0;
            }
            if (num_swaps > swap_budget) { status = SABRE_FAILED; goto done; }
            /* Progress: a blocked gate of a moved logical became adjacent. */
            int progressed = 0;
            int32_t moved[2] = {logical_at(&s, best_a), logical_at(&s, best_b)};
            for (int m = 0; m < 2 && !progressed; m++) {
                int32_t logical = moved[m];
                if (logical < 0) continue;
                for (int32_t k = front_start[logical]; k < front_start[logical + 1]; k++) {
                    int32_t partner = front_items[k];
                    if (dist[(int64_t)pos[logical] * positions + pos[partner]] == 1.0) {
                        progressed = 1;
                        break;
                    }
                }
            }
            if (progressed) { since_progress = 0; break; }
        }
    }
    if (s.length > s.capacity) status = SABRE_OVERFLOW;
done:
    out[0] = num_swaps;
    out[1] = s.length;
    free(block);
    free(decay);
    return status;
}

/* ------------------------------------------------------------------------
   The full-chip Monte Carlo survivor count of
   repro.collision.yield_simulator.YieldSimulator.estimate_from_arrays.
   Each comparison mirrors pair_collision_mask/triple_collision_mask
   operation for operation (f[j] + noise[t, j] first, then the same
   subtractions, sums and negations in the same order), and
   -ffp-contract=off keeps them unfused, so every comparison sees the
   doubles numpy sees; NaN compares false on both sides.
   ------------------------------------------------------------------------ */

/* Trials of the (trials, n) noise tensor on which no pair triggers
   conditions 1-4 and no triple (j; i, k) conditions 5-7; each trial
   stops at its first failing connection.  Every index must lie in
   [0, n); the caller checks. */
int64_t chip_survivors(
    const double *freq, const double *noise, int64_t trials, int64_t n,
    const int64_t *pairs, int64_t num_pairs,
    const int64_t *triples, int64_t num_triples,
    double delta, double t1, double t2, double t3,
    double t5, double t6, double t7   /* condition 4 has no threshold */
) {
    double half = delta / 2.0;
    int64_t survivors = 0;
    for (int64_t t = 0; t < trials; t++) {
        const double *row = noise + t * n;
        int failed = 0;
        for (int64_t p = 0; p < num_pairs && !failed; p++) {
            int64_t j = pairs[2 * p], k = pairs[2 * p + 1];
            double fj = freq[j] + row[j];
            double fk = freq[k] + row[k];
            double diff = fj - fk;
            failed = fabs(diff) < t1
                || fabs(diff + half) < t2 || fabs(-diff + half) < t2
                || fabs(diff + delta) < t3 || fabs(-diff + delta) < t3
                || fj > fk - delta || fk > fj - delta;
        }
        for (int64_t p = 0; p < num_triples && !failed; p++) {
            int64_t j = triples[3 * p], i = triples[3 * p + 1], k = triples[3 * p + 2];
            double fj = freq[j] + row[j];
            double fi = freq[i] + row[i];
            double fk = freq[k] + row[k];
            failed = fabs(fi - fk) < t5
                || fabs(fi - fk + delta) < t6 || fabs(fk - fi + delta) < t6
                || fabs(2.0 * fj + delta - (fk + fi)) < t7;
        }
        survivors += !failed;
    }
    return survivors;
}

/* ------------------------------------------------------------------------
   numpy's Generator.normal over a PCG64 stream, value for value:
   repro.collision.yield_simulator.fabrication_noise draws the Monte Carlo
   fabrication noise with it.  The ziggurat keeps numpy's order of raw
   draws, tables and expressions (exp/log1p from the same libm), and
   -ffp-contract=off keeps the wedge test and 0.0 + sigma * z unfused, so
   every value has numpy's bits.
   ------------------------------------------------------------------------ */

/* The ziggurat tables ki_double, wi_double and fi_double are numpy's
   (numpy/random/src/distributions/ziggurat_constants.h), copied value
   for value from the .rodata of numpy/random/lib/libnpyrandom.a in the
   numpy 2.4.6 wheel (symbols of src_distributions_distributions.c.o).
   numpy.random is distributed under this notice:

   Copyright (c) 2019 Kevin Sheppard. All rights reserved.
   Copyright (c) 2005-2025, NumPy Developers. All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:
   1. Redistributions of source code must retain the above copyright
      notice, this list of conditions and the following disclaimer.
   2. Redistributions in binary form must reproduce the above copyright
      notice, this list of conditions and the following disclaimer in the
      documentation and/or other materials provided with the distribution.
   3. Neither the name of the copyright holder nor the names of its
      contributors may be used to endorse or promote products derived from
      this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
   IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED
   TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A
   PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER
   OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
   EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
   PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
   PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
   LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
   NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
   SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE. */
static const uint64_t ki_double[256] = {
    0x0EF33D8025EF6A, 0x00000000000000, 0x0C08BE98FBC6A8, 0x0DA354FABD8142, 0x0E51F67EC1EEEA,
    0x0EB255E9D3F77E, 0x0EEF4B817ECAB9, 0x0F19470AFA44AA, 0x0F37ED61FFCB18, 0x0F4F469561255C,
    0x0F61A5E41BA396, 0x0F707A755396A4, 0x0F7CB2EC28449A, 0x0F86F10C6357D3, 0x0F8FA6578325DE,
    0x0F9724C74DD0DA, 0x0F9DA907DBF509, 0x0FA360F581FA74, 0x0FA86FDE5B4BF8, 0x0FACF160D354DC,
    0x0FB0FB6718B90F, 0x0FB49F8D5374C6, 0x0FB7EC2366FE77, 0x0FBAECE9A1E50E, 0x0FBDAB9D040BED,
    0x0FC03060FF6C57, 0x0FC2821037A248, 0x0FC4A67AE25BD1, 0x0FC6A2977AEE31, 0x0FC87AA92896A4,
    0x0FCA325E4BDE85, 0x0FCBCCE902231A, 0x0FCD4D12F839C4, 0x0FCEB54D8FEC99, 0x0FD007BF1DC930,
    0x0FD1464DD6C4E6, 0x0FD272A8E2F450, 0x0FD38E4FF0C91E, 0x0FD49A9990B478, 0x0FD598B8920F53,
    0x0FD689C08E99EC, 0x0FD76EA9C8E832, 0x0FD848547B08E8, 0x0FD9178BAD2C8C, 0x0FD9DD07A7ADD2,
    0x0FDA9970105E8C, 0x0FDB4D5DC02E20, 0x0FDBF95C5BFCD0, 0x0FDC9DEBB99A7D, 0x0FDD3B8118729D,
    0x0FDDD288342F90, 0x0FDE6364369F64, 0x0FDEEE708D514E, 0x0FDF7401A6B42E, 0x0FDFF46599ED40,
    0x0FE06FE4BC24F2, 0x0FE0E6C225A258, 0x0FE1593C28B84C, 0x0FE1C78CBC3F99, 0x0FE231E9DB1CAA,
    0x0FE29885DA1B91, 0x0FE2FB8FB54186, 0x0FE35B33558D4A, 0x0FE3B799D0002A, 0x0FE410E99EAD7F,
    0x0FE46746D47734, 0x0FE4BAD34C095C, 0x0FE50BAED29524, 0x0FE559F74EBC78, 0x0FE5A5C8E41212,
    0x0FE5EF3E138689, 0x0FE6366FD91078, 0x0FE67B75C6D578, 0x0FE6BE661E11AA, 0x0FE6FF55E5F4F2,
    0x0FE73E5900A702, 0x0FE77B823E9E39, 0x0FE7B6E37070A2, 0x0FE7F08D774243, 0x0FE8289053F08C,
    0x0FE85EFB35173A, 0x0FE893DC840864, 0x0FE8C741F0CEBC, 0x0FE8F9387D4EF6, 0x0FE929CC879B1D,
    0x0FE95909D388EA, 0x0FE986FB939AA2, 0x0FE9B3AC714866, 0x0FE9DF2694B6D5, 0x0FEA0973ABE67C,
    0x0FEA329CF166A4, 0x0FEA5AAB32952C, 0x0FEA81A6D5741A, 0x0FEAA797DE1CF0, 0x0FEACC85F3D920,
    0x0FEAF07865E63C, 0x0FEB13762FEC13, 0x0FEB3585FE2A4A, 0x0FEB56AE3162B4, 0x0FEB76F4E284FA,
    0x0FEB965FE62014, 0x0FEBB4F4CF9D7C, 0x0FEBD2B8F449D0, 0x0FEBEFB16E2E3E, 0x0FEC0BE31EBDE8,
    0x0FEC2752B15A15, 0x0FEC42049DAFD3, 0x0FEC5BFD29F196, 0x0FEC75406CEEF4, 0x0FEC8DD2500CB4,
    0x0FECA5B6911F12, 0x0FECBCF0C427FE, 0x0FECD38454FB15, 0x0FECE97488C8B3, 0x0FECFEC47F91B7,
    0x0FED1377358528, 0x0FED278F844903, 0x0FED3B10242F4C, 0x0FED4DFBAD586E, 0x0FED605498C3DD,
    0x0FED721D414FE8, 0x0FED8357E4A982, 0x0FED9406A42CC8, 0x0FEDA42B85B704, 0x0FEDB3C8746AB4,
    0x0FEDC2DF416652, 0x0FEDD171A46E52, 0x0FEDDF813C8AD3, 0x0FEDED0F909980, 0x0FEDFA1E0FD414,
    0x0FEE06AE124BC4, 0x0FEE12C0D95A06, 0x0FEE1E579006E0, 0x0FEE29734B6524, 0x0FEE34150AE4BC,
    0x0FEE3E3DB89B3C, 0x0FEE47EE2982F4, 0x0FEE51271DB086, 0x0FEE59E9407F41, 0x0FEE623528B42E,
    0x0FEE6A0B5897F1, 0x0FEE716C3E077A, 0x0FEE7858327B82, 0x0FEE7ECF7B06BA, 0x0FEE84D2484AB2,
    0x0FEE8A60B66343, 0x0FEE8F7ACCC851, 0x0FEE94207E25DA, 0x0FEE9851A829EA, 0x0FEE9C0E13485C,
    0x0FEE9F557273F4, 0x0FEEA22762CCAE, 0x0FEEA4836B42AC, 0x0FEEA668FC2D71, 0x0FEEA7D76ED6FA,
    0x0FEEA8CE04FA0A, 0x0FEEA94BE8333B, 0x0FEEA950296410, 0x0FEEA8D9C0075E, 0x0FEEA7E7897654,
    0x0FEEA678481D24, 0x0FEEA48AA29E83, 0x0FEEA21D22E4DA, 0x0FEE9F2E352024, 0x0FEE9BBC26AF2E,
    0x0FEE97C524F2E4, 0x0FEE93473C0A3A, 0x0FEE8E40557516, 0x0FEE88AE369C7A, 0x0FEE828E7F3DFD,
    0x0FEE7BDEA7B888, 0x0FEE749BFF37FF, 0x0FEE6CC3A9BD5E, 0x0FEE64529E007E, 0x0FEE5B45A32888,
    0x0FEE51994E57B6, 0x0FEE474A0006CF, 0x0FEE3C53E12C50, 0x0FEE30B2E02AD8, 0x0FEE2462AD8205,
    0x0FEE175EB83C5A, 0x0FEE09A22A1447, 0x0FEDFB27E349CC, 0x0FEDEBEA76216C, 0x0FEDDBE422047E,
    0x0FEDCB0ECE39D3, 0x0FEDB964042CF4, 0x0FEDA6DCE938C9, 0x0FED937237E98D, 0x0FED7F1C38A836,
    0x0FED69D2B9C02B, 0x0FED538D06AE00, 0x0FED3C41DEA422, 0x0FED23E76A2FD8, 0x0FED0A732FE644,
    0x0FECEFDA07FE34, 0x0FECD4100EB7B8, 0x0FECB708956EB4, 0x0FEC98B61230C1, 0x0FEC790A0DA978,
    0x0FEC57F50F31FE, 0x0FEC356686C962, 0x0FEC114CB4B335, 0x0FEBEB948E6FD0, 0x0FEBC429A0B692,
    0x0FEB9AF5EE0CDC, 0x0FEB6FE1C98542, 0x0FEB42D3AD1F9E, 0x0FEB13B00B2D4B, 0x0FEAE2591A02E9,
    0x0FEAAEAE992257, 0x0FEA788D8EE326, 0x0FEA3FCFFD73E5, 0x0FEA044C8DD9F6, 0x0FE9C5D62F563B,
    0x0FE9843BA947A4, 0x0FE93F471D4728, 0x0FE8F6BD76C5D6, 0x0FE8AA5DC4E8E6, 0x0FE859E07AB1EA,
    0x0FE804F690A940, 0x0FE7AB488233C0, 0x0FE74C751F6AA5, 0x0FE6E8102AA202, 0x0FE67DA0B6ABD8,
    0x0FE60C9F38307E, 0x0FE5947338F742, 0x0FE51470977280, 0x0FE48BD436F458, 0x0FE3F9BFFD1E37,
    0x0FE35D35EEB19C, 0x0FE2B5122FE4FE, 0x0FE20003995557, 0x0FE13C82788314, 0x0FE068C4EE67B0,
    0x0FDF82B02B71AA, 0x0FDE87C57EFEAA, 0x0FDD7509C63BFD, 0x0FDC46E529BF13, 0x0FDAF8F82E0282,
    0x0FD985E1B2BA75, 0x0FD7E6EF48CF04, 0x0FD613ADBD650B, 0x0FD40149E2F012, 0x0FD1A1A7B4C7AC,
    0x0FCEE204761F9E, 0x0FCBA8D85E11B2, 0x0FC7D26ECD2D22, 0x0FC32B2F1E22ED, 0x0FBD6581C0B83A,
    0x0FB606C4005434, 0x0FAC40582A2874, 0x0F9E971E014598, 0x0F89FA48A41DFC, 0x0F66C5F7F0302C,
    0x0F1A5A4B331C4A
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10
};

/* numpy's Generator.normal, value for value: PCG64 (XSL-RR 128/64) feeds
   numpy's ziggurat random_standard_normal, and every value is written as
   0.0 + sigma * z, the expression of numpy's random_normal.  seed holds
   the generator's 128-bit state and increment as {state_hi, state_lo,
   inc_hi, inc_lo}, the point numpy's SeedSequence seeding left it at.
   Eight interleaved lanes, each stepping the state eight times per
   update, fill a buffer of raw outputs in stream order; the ziggurat
   consumes it in that order, so slow-path draws read the same words
   numpy's would.  slow (may be NULL) counts the idx-0 tail and wedge
   tests taken.  Returns the number of raw 64-bit outputs consumed. */
#define NORMAL_LANES 8
#define NORMAL_BUFFER 2048
#define NORMAL_R 3.6541528853610087963519472518
#define NORMAL_INV_R 0.27366123732975827203338247596

typedef unsigned __int128 pcg128_t;

typedef struct {
    pcg128_t lane[NORMAL_LANES];
    pcg128_t mult, inc;
    uint64_t raw[NORMAL_BUFFER];
    int64_t pos, consumed;
} normal_stream;

static void normal_refill(normal_stream *s) {
    for (int round = 0; round < NORMAL_BUFFER / NORMAL_LANES; round++) {
        for (int l = 0; l < NORMAL_LANES; l++) {
            pcg128_t state = s->lane[l];
            uint64_t value = (uint64_t)(state >> 64) ^ (uint64_t)state;
            unsigned rot = (unsigned)(state >> 122);
            s->raw[round * NORMAL_LANES + l] = (value >> rot) | (value << ((-rot) & 63));
            s->lane[l] = state * s->mult + s->inc;
        }
    }
    s->pos = 0;
}

static inline uint64_t normal_next(normal_stream *s) {
    if (s->pos == NORMAL_BUFFER) normal_refill(s);
    s->consumed++;
    return s->raw[s->pos++];
}

static inline double normal_next_double(normal_stream *s) {
    return (double)(normal_next(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* The rest of numpy's rejection loop, entered with the raw word r the
   fast path rejected. */
static double normal_rejected(normal_stream *s, uint64_t r, int64_t *slow) {
    for (;;) {
        int idx = (int)(r & 0xff);
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        double x = (double)rabs * wi_double[idx];
        if (r & 0x1) x = -x;
        if (rabs < ki_double[idx]) return x;
        if (idx == 0) {
            slow[0]++;
            for (;;) {
                double xx = -NORMAL_INV_R * log1p(-normal_next_double(s));
                double yy = -log1p(-normal_next_double(s));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(NORMAL_R + xx) : NORMAL_R + xx;
            }
        }
        slow[1]++;
        if (((fi_double[idx - 1] - fi_double[idx]) * normal_next_double(s)
             + fi_double[idx]) < exp(-0.5 * x * x))
            return x;
        r = normal_next(s);
    }
}

int64_t pcg64_normal_fill(const uint64_t *seed, double sigma, double *out,
                          int64_t count, int64_t *slow) {
    static const pcg128_t multiplier =
        ((pcg128_t)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    int64_t unused[2] = {0, 0};
    normal_stream s;
    pcg128_t state = ((pcg128_t)seed[0] << 64) | seed[1];
    pcg128_t inc = ((pcg128_t)seed[2] << 64) | seed[3];
    pcg128_t mult = 1, step = 0;
    if (slow == NULL) slow = unused;
    for (int l = 0; l < NORMAL_LANES; l++) {
        state = state * multiplier + inc;
        s.lane[l] = state;
        step = step * multiplier + inc;
        mult *= multiplier;
    }
    s.mult = mult;
    s.inc = step;
    s.pos = NORMAL_BUFFER;
    s.consumed = 0;
    for (int64_t i = 0; i < count; i++) {
        if (s.pos == NORMAL_BUFFER) normal_refill(&s);
        uint64_t r = s.raw[s.pos++];
        s.consumed++;
        int idx = (int)(r & 0xff);
        uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
        /* The sign flip of x = rabs * wi as one XOR of the sign bit, with
           no branch on the random bit. */
        union { double d; uint64_t u; } x = {(double)rabs * wi_double[idx]};
        x.u ^= (r << 55) & 0x8000000000000000ULL;
        if (rabs < ki_double[idx]) {
            out[i] = 0.0 + sigma * x.d;
        } else {
            out[i] = 0.0 + sigma * normal_rejected(&s, r, slow);
        }
    }
    return s.consumed;
}
