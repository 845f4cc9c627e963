/* Batch kernels for every organisation with a compiled replay: the
 * set-associative cache under any replacement policy, with optional way
 * prediction (the direct-mapped and fully associative caches run it too),
 * the B-Cache (the three PD scenarios of Section 2.3), the victim buffer,
 * and the column- and skewed-associative caches.  Built and called by
 * repro/caches/native.py.  Each replays one batch against the cache's
 * flat state columns in place, exactly as the per-access `_access_block`
 * does.  tags/blocks: stored tag or block number, -1 invalid; dirty: 0/1.
 *
 * Replacement state (repro/replacement/__init__.py): stamps, one per line,
 * hold the clock at the line's last touch under LRU and at its first touch
 * under fifo, plru and random, 0 until then (a free way); plru keeps
 * `ways` tree bits per domain (a set or a B-Cache row), node 1 the root;
 * random keeps one CPython MT19937 state per domain, 624 words and the
 * index.
 *
 * A kernel's one argument is an int64 column: the batch fields unpacked
 * below (pointers as integers), then its own arguments from arg[OWN].
 * `out` holds the counters of the enum, out[CLOCK] read and written
 * back, then three zeroed `num_sets` columns: per-set accesses, misses,
 * and the sets the batch touched (out[TOUCHED] of them).  The next-level
 * columns (NULL for no stream) have room for 2n entries.
 */
#include <stddef.h>
#include <stdint.h>

enum {
    CLOCK, MISSES, WRITES, EVICTIONS, WRITEBACKS, PD_MISSES,
    SLOW_HITS, SLOW_HIT_CYCLES, EMITTED, PROGRAMS, TOUCHED, COUNTERS,
};
enum { DEMAND = 0, WRITEBACK = 1 };  /* AccessType.READ, AccessType.WRITE */
enum { NO_PREDICTION, PAM, PSA };    /* see way_predicting.py */
enum { LRU, FIFO, PLRU, RANDOM };    /* repro.replacement.POLICIES */
enum { OWN = 8, MT_N = 624, MT_M = 397, MT_WORDS = MT_N + 1 };

#define COLUMN(type, value) ((type *)(intptr_t)(value))

typedef struct {
    const uint64_t *addresses;
    const uint8_t *kinds;  /* NULL: all reads; kind 1 is a write */
    int64_t n, *out, *set_accesses, *set_misses, *touched, *next_positions;
    uint64_t *next_addresses;
    uint8_t *next_kinds;
} batch_t;

static batch_t unpack(const int64_t *arg)
{
    int64_t *out = COLUMN(int64_t, arg[3]), sets = arg[4];
    batch_t b = {
        COLUMN(const uint64_t, arg[0]), COLUMN(const uint8_t, arg[1]), arg[2],
        out, out + COUNTERS, out + COUNTERS + sets, out + COUNTERS + 2 * sets,
        COLUMN(int64_t, arg[5]), COLUMN(uint64_t, arg[6]), COLUMN(uint8_t, arg[7]),
    };
    return b;
}

static int is_write(batch_t *b, int64_t i)
{
    int write = b->kinds != NULL && b->kinds[i] == 1;
    b->out[WRITES] += write;
    return write;
}

static void count_set(batch_t *b, int64_t set, int miss)
{
    if (b->set_accesses[set]++ == 0)
        b->touched[b->out[TOUCHED]++] = set;
    b->set_misses[set] += miss;
}

static void slow_hit(batch_t *b, int64_t set, int64_t cycles)
{
    count_set(b, set, 0);
    b->out[SLOW_HITS] += cycles > 0;
    b->out[SLOW_HIT_CYCLES] += cycles;
}

static void emit(batch_t *b, int64_t i, uint64_t address, uint8_t kind)
{
    if (b->next_positions == NULL)
        return;
    int64_t entry = b->out[EMITTED]++;
    b->next_positions[entry] = i;
    b->next_addresses[entry] = address;
    b->next_kinds[entry] = kind;
}

/* Reference i misses, counted in `set`: the block leaving the cache (a
 * valid `resident`) is an eviction, written back as byte address `victim`
 * if `dirty`. */
static void miss(batch_t *b, int64_t i, int64_t set, int64_t resident, int dirty,
                 uint64_t victim)
{
    b->out[MISSES]++;
    count_set(b, set, 1);
    emit(b, i, b->addresses[i], DEMAND);
    if (resident >= 0) {
        b->out[EVICTIONS]++;
        if (dirty) {
            b->out[WRITEBACKS]++;
            emit(b, i, victim, WRITEBACK);
        }
    }
}

/* ---- Replacement --------------------------------------------------- */

typedef struct {
    int64_t kind, ways, way_step, domain_step, clock;
    int64_t *stamps;  /* NULL: one way, nothing to choose */
    uint8_t *tree;
    uint32_t *mt;
} policy_t;

/* Own arguments policy, stamps, tree, mt at `arg`. */
static policy_t policy_at(const int64_t *arg, int64_t clock, int64_t ways,
                          int64_t way_step, int64_t domain_step)
{
    policy_t p = {
        arg[0], ways, way_step, domain_step, clock,
        COLUMN(int64_t, arg[1]), COLUMN(uint8_t, arg[2]), COLUMN(uint32_t, arg[3]),
    };
    return p;
}

#define STAMP(p, d, w) ((p)->stamps[(d) * (p)->domain_step + (w) * (p)->way_step])

/* CPython's genrand_uint32 (Modules/_randommodule.c). */
static uint32_t genrand(uint32_t *mt)
{
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        for (int k = 0; k < MT_N; k++) {
            y = (mt[k] & 0x80000000U) | (mt[(k + 1) % MT_N] & 0x7fffffffU);
            mt[k] = mt[(k + MT_M) % MT_N] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
        }
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* random.Random._randbelow(n), 0 < n < 2**32: the top n.bit_length()
 * bits of one word, drawn again while they are >= n. */
static int64_t randbelow(uint32_t *mt, int64_t n)
{
    int k = 0;
    while (n >> k)
        k++;
    uint32_t r;
    do
        r = genrand(mt) >> (32 - k);
    while (r >= (uint64_t)n);
    return r;
}

/* Under a PD column, a B-Cache PD miss chooses among the clusters with no
 * programmed entry when there are any. */
static int candidate(const int64_t *pd, int restricted, int64_t w)
{
    return !restricted || pd[w] < 0;
}

/* The way domain d evicts next: free ways first, lowest first (not under
 * LRU, whose fresh stamps order the ways), then the least recent stamp
 * (LRU, FIFO), a uniform draw (RANDOM) or the pseudo-LRU leaf (PLRU). */
static int64_t victim(policy_t *p, int64_t d, const int64_t *pd)
{
    const int64_t ways = p->ways;
    int restricted = 0;
    for (int64_t w = 0; pd != NULL && w < ways; w++)
        restricted |= pd[w] < 0;
    if (p->kind != LRU)
        for (int64_t w = 0; w < ways; w++)
            if (candidate(pd, restricted, w) && STAMP(p, d, w) == 0)
                return w;
    if (p->kind == RANDOM) {
        int64_t count = 0, w = 0;
        for (int64_t c = 0; c < ways; c++)
            count += candidate(pd, restricted, c);
        for (int64_t pick = randbelow(p->mt + d * MT_WORDS, count);; w++)
            if (candidate(pd, restricted, w) && pick-- == 0)
                return w;
    }
    if (p->kind == PLRU) {
        const uint8_t *tree = p->tree + d * ways;
        int64_t node = 1;
        while (node < ways) {
            int64_t next = (node << 1) | tree[node], lo = next, hi = next;
            /* Descend away from the preferred subtree only when it holds
             * no candidate. */
            while (lo < ways) {
                lo <<= 1;
                hi = (hi << 1) | 1;
            }
            int found = !restricted;
            for (int64_t leaf = lo; !found && leaf <= hi; leaf++)
                found = pd[leaf - ways] < 0;
            node = found ? next : next ^ 1;
        }
        return node - ways;
    }
    int64_t best = -1;
    for (int64_t w = 0; w < ways; w++)
        if (candidate(pd, restricted, w) && (best < 0 || STAMP(p, d, w) < STAMP(p, d, best)))
            best = w;
    return best;
}

/* A hit on or a fill of way w of domain d. */
static void touch(policy_t *p, int64_t d, int64_t w)
{
    int64_t *stamp = &STAMP(p, d, w);
    if (p->kind == LRU || *stamp == 0)
        *stamp = ++p->clock;
    if (p->kind == PLRU)
        /* Point each ancestor away from the touched child. */
        for (int64_t node = w + p->ways; node > 1; node >>= 1)
            p->tree[d * p->ways + (node >> 1)] = (uint8_t)(~node & 1);
}

/* ---- Kernels ------------------------------------------------------- */

/* Own arguments: offset_bits, index_bits, ways, tags, dirty, prediction,
 * pad_mask, mru (PSA's predicted way per set), then the policy's.  Lines
 * are set * ways + way.  No stamps: one way (direct-mapped). */
void set_associative(const int64_t *arg)
{
    batch_t b = unpack(arg);
    const int64_t offset_bits = arg[OWN], index_bits = arg[OWN + 1];
    const int64_t ways = arg[OWN + 2], prediction = arg[OWN + 5];
    const int64_t pad_mask = arg[OWN + 6];
    int64_t *tags = COLUMN(int64_t, arg[OWN + 3]), *mru = COLUMN(int64_t, arg[OWN + 7]);
    uint8_t *dirty = COLUMN(uint8_t, arg[OWN + 4]);
    policy_t p = policy_at(arg + OWN + 8, b.out[CLOCK], ways, 1, ways);
    for (int64_t i = 0; i < b.n; i++) {
        const uint64_t block = b.addresses[i] >> offset_bits;
        const int64_t index = (int64_t)(block & (((uint64_t)1 << index_bits) - 1));
        const int64_t tag = (int64_t)(block >> index_bits), base = index * ways;
        const int write = is_write(&b, i);
        int64_t way = 0;
        while (way < ways && tags[base + way] != tag)
            way++;
        if (way < ways) {
            int64_t slow = 0;
            if (prediction == PSA && way != mru[index]) {
                /* Probes: the predicted way, then the others in order. */
                slow = way < mru[index] ? way + 1 : way;
                mru[index] = way;
            } else if (prediction == PAM) {
                int64_t matches = 0;
                for (int64_t w = base; w < base + ways; w++)
                    matches += tags[w] >= 0 && (tags[w] & pad_mask) == (tag & pad_mask);
                slow = matches > 1;
            }
            slow_hit(&b, index, slow);
            dirty[base + way] |= (uint8_t)write;
        } else {
            way = p.stamps != NULL ? victim(&p, index, NULL) : 0;
            const int64_t resident = tags[base + way];
            const uint64_t victim_block = ((uint64_t)resident << index_bits) | (uint64_t)index;
            miss(&b, i, index, resident, dirty[base + way], victim_block << offset_bits);
            tags[base + way] = tag;
            dirty[base + way] = (uint8_t)write;
            if (prediction == PSA)
                mru[index] = way;
        }
        if (p.stamps != NULL)
            touch(&p, index, way);
    }
    b.out[CLOCK] = p.clock;
}

/* Own arguments: offset_bits, npi_bits, pi_bits, clusters, tags, dirty,
 * pd (row by row), then the policy's; set = cluster * rows + row, and a
 * row is a replacement domain. */
void bcache(const int64_t *arg)
{
    batch_t b = unpack(arg);
    const int64_t offset_bits = arg[OWN], npi_bits = arg[OWN + 1];
    const int64_t pi_bits = arg[OWN + 2], clusters = arg[OWN + 3];
    const int64_t rows = (int64_t)1 << npi_bits;
    int64_t *tags = COLUMN(int64_t, arg[OWN + 4]), *pd = COLUMN(int64_t, arg[OWN + 6]);
    uint8_t *dirty = COLUMN(uint8_t, arg[OWN + 5]);
    policy_t p = policy_at(arg + OWN + 7, b.out[CLOCK], clusters, rows, 1);
    for (int64_t i = 0; i < b.n; i++) {
        const uint64_t block = b.addresses[i] >> offset_bits;
        const int64_t row = (int64_t)(block & (uint64_t)(rows - 1));
        const int64_t pi = (int64_t)((block >> npi_bits) & (((uint64_t)1 << pi_bits) - 1));
        const int64_t tag = (int64_t)(block >> (npi_bits + pi_bits));
        const int write = is_write(&b, i);
        int64_t *row_pd = pd + row * clusters, cluster = 0;
        while (cluster < clusters && row_pd[cluster] != pi)
            cluster++;
        if (cluster < clusters && tags[cluster * rows + row] == tag) {
            /* One-cycle hit: exactly one word line fired. */
            count_set(&b, cluster * rows + row, 0);
            dirty[cluster * rows + row] |= (uint8_t)write;
            touch(&p, row, cluster);
            continue;
        }
        if (cluster == clusters) {
            /* Scenarios 1/3, PD miss: the policy's victim.  (Scenario 2,
             * a PD hit with a tag mismatch, keeps the matching cluster:
             * the forced victim.) */
            cluster = victim(&p, row, row_pd);
            b.out[PD_MISSES]++;
        }
        const int64_t set = cluster * rows + row;
        uint64_t victim_block = ((uint64_t)tags[set] << (npi_bits + pi_bits))
                                | ((uint64_t)row_pd[cluster] << npi_bits) | (uint64_t)row;
        miss(&b, i, set, tags[set], dirty[set], victim_block << offset_bits);
        tags[set] = tag;
        dirty[set] = (uint8_t)write;
        b.out[PROGRAMS] += row_pd[cluster] != pi;
        row_pd[cluster] = pi;
        touch(&p, row, cluster);
    }
    b.out[CLOCK] = p.clock;
}

/* Own arguments: offset_bits, index_bits, tags, dirty (the direct-mapped
 * main cache), entries, buffer blocks (-1 free), buffer dirty, buffer
 * stamps (the clock when the block entered; the oldest leaves first). */
void victim_buffer(const int64_t *arg)
{
    batch_t b = unpack(arg);
    const int64_t offset_bits = arg[OWN], index_bits = arg[OWN + 1];
    const int64_t entries = arg[OWN + 4];
    int64_t *tags = COLUMN(int64_t, arg[OWN + 2]), *blocks = COLUMN(int64_t, arg[OWN + 5]);
    uint8_t *dirty = COLUMN(uint8_t, arg[OWN + 3]), *buffer_dirty = COLUMN(uint8_t, arg[OWN + 6]);
    int64_t *stamps = COLUMN(int64_t, arg[OWN + 7]), clock = b.out[CLOCK];
    for (int64_t i = 0; i < b.n; i++) {
        const uint64_t block = b.addresses[i] >> offset_bits;
        const int64_t index = (int64_t)(block & (((uint64_t)1 << index_bits) - 1));
        const int64_t tag = (int64_t)(block >> index_bits), resident = tags[index];
        const int write = is_write(&b, i);
        if (resident == tag) {
            count_set(&b, index, 0);
            dirty[index] |= (uint8_t)write;
            continue;
        }
        /* One scan: the block's entry, else the first free and the oldest. */
        int64_t found = -1, free_entry = -1, oldest = -1;
        for (int64_t e = 0; e < entries && found < 0; e++) {
            if (blocks[e] == (int64_t)block)
                found = e;
            else if (blocks[e] < 0)
                free_entry = free_entry < 0 ? e : free_entry;
            else if (oldest < 0 || stamps[e] < stamps[oldest])
                oldest = e;
        }
        const int64_t displaced = (resident << index_bits) | index;
        const uint8_t displaced_dirty = dirty[index];
        int64_t entry = found;
        if (found >= 0) {
            /* Swap-in: a one-cycle-slower hit that writes nothing back. */
            slow_hit(&b, index, 1);
            tags[index] = tag;
            dirty[index] = buffer_dirty[found] | (uint8_t)write;
            blocks[found] = -1;
            buffer_dirty[found] = 0;
        } else {
            /* A full miss: the displaced block takes a free entry, else
             * the oldest entry's block leaves the system. */
            entry = free_entry >= 0 ? free_entry : oldest;
            const int64_t leaving = resident >= 0 && free_entry < 0 ? blocks[oldest] : -1;
            miss(&b, i, index, leaving, leaving >= 0 && buffer_dirty[oldest],
                 (uint64_t)leaving << offset_bits);
            tags[index] = tag;
            dirty[index] = (uint8_t)write;
        }
        if (resident >= 0) {
            /* The displaced block enters the buffer as its newest entry. */
            blocks[entry] = displaced;
            buffer_dirty[entry] = displaced_dirty;
            stamps[entry] = ++clock;
        }
    }
    b.out[CLOCK] = clock;
}

/* Own arguments: offset_bits, index_bits, flip (the alternate index's
 * bit), blocks, dirty, rehash. */
void column_associative(const int64_t *arg)
{
    batch_t b = unpack(arg);
    const int64_t offset_bits = arg[OWN], index_bits = arg[OWN + 1], flip = arg[OWN + 2];
    int64_t *blocks = COLUMN(int64_t, arg[OWN + 3]);
    uint8_t *dirty = COLUMN(uint8_t, arg[OWN + 4]), *rehash = COLUMN(uint8_t, arg[OWN + 5]);
    for (int64_t i = 0; i < b.n; i++) {
        const int64_t block = (int64_t)(b.addresses[i] >> offset_bits);
        const int64_t first = block & (((int64_t)1 << index_bits) - 1);
        const int write = is_write(&b, i);
        if (blocks[first] == block) {
            count_set(&b, first, 0);
            dirty[first] |= (uint8_t)write;
            continue;
        }
        /* A rehashed block in the first-choice slot leaves the cache;
         * otherwise probe the alternate slot. */
        int64_t out = first;
        if (!rehash[first]) {
            out = first ^ flip;
            if (blocks[out] == block) {
                /* Second-probe hit: swap into the first-choice slot. */
                slow_hit(&b, first, 1);
                const int64_t displaced = blocks[first];
                const uint8_t displaced_dirty = dirty[first];
                blocks[first] = block;
                dirty[first] = dirty[out] | (uint8_t)write;
                blocks[out] = displaced;
                dirty[out] = displaced_dirty;
                rehash[out] = displaced >= 0;
                continue;
            }
        }
        miss(&b, i, first, blocks[out], dirty[out], (uint64_t)blocks[out] << offset_bits);
        if (out != first) {
            /* The displaced first-choice block is rehashed into the
             * alternate slot. */
            blocks[out] = blocks[first];
            dirty[out] = dirty[first];
            rehash[out] = blocks[first] >= 0;
        }
        blocks[first] = block;
        dirty[first] = (uint8_t)write;
        rehash[first] = 0;
    }
}

/* Own arguments: offset_bits, index_bits, ways, blocks, dirty, stamps
 * (the clock at the frame's last touch; every reference advances it),
 * each way * sets_per_way + index.  Way 0 keeps the conventional index;
 * way w XORs it with the tag slice rotated left by (w - 1) bits. */
void skewed_associative(const int64_t *arg)
{
    batch_t b = unpack(arg);
    const int64_t offset_bits = arg[OWN], index_bits = arg[OWN + 1], ways = arg[OWN + 2];
    const int64_t mask = ((int64_t)1 << index_bits) - 1;
    int64_t *blocks = COLUMN(int64_t, arg[OWN + 3]), *stamps = COLUMN(int64_t, arg[OWN + 5]);
    uint8_t *dirty = COLUMN(uint8_t, arg[OWN + 4]);
    int64_t clock = b.out[CLOCK];
    for (int64_t i = 0; i < b.n; i++) {
        const int64_t block = (int64_t)(b.addresses[i] >> offset_bits);
        const int64_t first = block & mask, slice = (block >> index_bits) & mask;
        const int write = is_write(&b, i);
        clock++;
        /* The hit frame, else the first empty frame, else the least
         * recently touched one (ties to the lowest way). */
        int64_t hit = -1, chosen = -1, chosen_index = first;
        for (int64_t way = 0; way < ways && hit < 0; way++) {
            int64_t index = first;
            if (way > 0 && index_bits > 0) {
                const int64_t left = (way - 1) % index_bits;
                index ^= ((slice << left) | (slice >> (index_bits - left))) & mask;
            }
            const int64_t frame = way * (mask + 1) + index;
            if (blocks[frame] == block) {
                hit = frame;
                chosen_index = index;
            } else if (chosen < 0 || (blocks[chosen] >= 0 && (blocks[frame] < 0
                       || stamps[frame] < stamps[chosen]))) {
                chosen = frame;
                chosen_index = index;
            }
        }
        if (hit >= 0) {
            count_set(&b, chosen_index, 0);
            dirty[hit] |= (uint8_t)write;
            stamps[hit] = clock;
            continue;
        }
        miss(&b, i, chosen_index, blocks[chosen], dirty[chosen],
             (uint64_t)blocks[chosen] << offset_bits);
        blocks[chosen] = block;
        dirty[chosen] = (uint8_t)write;
        stamps[chosen] = clock;
    }
    b.out[CLOCK] = clock;
}
