/* Exact-LRU batch kernels: the set-associative cache (with optional way
 * prediction) and the B-Cache (the three PD scenarios of Section 2.3),
 * built and called by repro/caches/native.py.  Each replays one batch
 * against the cache's flat state columns in place, exactly as the
 * per-access `_access_block` does.  tags: stored tag, -1 invalid; dirty:
 * 0/1; stamps: LRU recency, the clock at the line's last touch (every
 * touch advances the clock by one; the least recent line of a set or row
 * has the smallest stamp); pd: the B-Cache's PD values, row by row.
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
enum { OWN = 8 };

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

static void emit(batch_t *b, int64_t i, uint64_t address, uint8_t kind)
{
    if (b->next_positions == NULL)
        return;
    int64_t entry = b->out[EMITTED]++;
    b->next_positions[entry] = i;
    b->next_addresses[entry] = address;
    b->next_kinds[entry] = kind;
}

/* Reference i misses in `set` and fills the line at `tag`/`dirty`; a
 * valid resident is evicted, written back as byte address `victim` if
 * dirty. */
static void fill(batch_t *b, int64_t i, int64_t set, int64_t *tag,
                 uint8_t *dirty, int64_t new_tag, int write, uint64_t victim)
{
    b->out[MISSES]++;
    count_set(b, set, 1);
    emit(b, i, b->addresses[i], DEMAND);
    if (*tag >= 0) {
        b->out[EVICTIONS]++;
        if (*dirty) {
            b->out[WRITEBACKS]++;
            emit(b, i, victim, WRITEBACK);
        }
    }
    *tag = new_tag;
    *dirty = (uint8_t)write;
}

/* Own arguments: offset_bits, index_bits, ways, tags, dirty, stamps,
 * prediction, pad_mask, mru (PSA's predicted way per set). */
void set_associative_lru(const int64_t *arg)
{
    batch_t b = unpack(arg);
    const int64_t offset_bits = arg[OWN], index_bits = arg[OWN + 1];
    const int64_t ways = arg[OWN + 2], prediction = arg[OWN + 6];
    const int64_t pad_mask = arg[OWN + 7];
    int64_t *tags = COLUMN(int64_t, arg[OWN + 3]), *mru = COLUMN(int64_t, arg[OWN + 8]);
    uint8_t *dirty = COLUMN(uint8_t, arg[OWN + 4]);
    int64_t *stamps = COLUMN(int64_t, arg[OWN + 5]), clock = b.out[CLOCK];
    for (int64_t i = 0; i < b.n; i++) {
        const uint64_t block = b.addresses[i] >> offset_bits;
        const int64_t index = (int64_t)(block & (((uint64_t)1 << index_bits) - 1));
        const int64_t tag = (int64_t)(block >> index_bits), base = index * ways;
        const int write = is_write(&b, i);
        int64_t way = 0;
        while (way < ways && tags[base + way] != tag)
            way++;
        if (way < ways) {
            count_set(&b, index, 0);
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
            b.out[SLOW_HITS] += slow > 0;
            b.out[SLOW_HIT_CYCLES] += slow;
            dirty[base + way] |= (uint8_t)write;
        } else {
            way = 0;
            for (int64_t w = 1; w < ways; w++)
                if (stamps[base + w] < stamps[base + way])
                    way = w;
            uint64_t victim = ((uint64_t)tags[base + way] << index_bits) | (uint64_t)index;
            fill(&b, i, index, &tags[base + way], &dirty[base + way], tag, write,
                 victim << offset_bits);
            if (prediction == PSA)
                mru[index] = way;
        }
        stamps[base + way] = ++clock;
    }
    b.out[CLOCK] = clock;
}

/* Own arguments: offset_bits, npi_bits, pi_bits, clusters, tags, dirty,
 * stamps, pd; set = cluster * rows + row. */
void bcache_lru(const int64_t *arg)
{
    batch_t b = unpack(arg);
    const int64_t offset_bits = arg[OWN], npi_bits = arg[OWN + 1];
    const int64_t pi_bits = arg[OWN + 2], clusters = arg[OWN + 3];
    const int64_t rows = (int64_t)1 << npi_bits;
    int64_t *tags = COLUMN(int64_t, arg[OWN + 4]), *pd = COLUMN(int64_t, arg[OWN + 7]);
    uint8_t *dirty = COLUMN(uint8_t, arg[OWN + 5]);
    int64_t *stamps = COLUMN(int64_t, arg[OWN + 6]), clock = b.out[CLOCK];
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
            stamps[cluster * rows + row] = ++clock;
            continue;
        }
        if (cluster == clusters) {
            /* Scenarios 1/3, PD miss: the least recent invalid entry, else
             * the least recent cluster.  (Scenario 2, a PD hit with a tag
             * mismatch, keeps the matching cluster: the forced victim.) */
            int64_t best = -1;
            for (int pass = 0; pass < 2 && best < 0; pass++)
                for (int64_t c = 0; c < clusters; c++)
                    if ((pass || row_pd[c] < 0)
                        && (best < 0 || stamps[c * rows + row] < stamps[best * rows + row]))
                        best = c;
            cluster = best;
            b.out[PD_MISSES]++;
        }
        const int64_t set = cluster * rows + row;
        uint64_t victim = ((uint64_t)tags[set] << (npi_bits + pi_bits))
                          | ((uint64_t)row_pd[cluster] << npi_bits) | (uint64_t)row;
        fill(&b, i, set, &tags[set], &dirty[set], tag, write, victim << offset_bits);
        b.out[PROGRAMS] += row_pd[cluster] != pi;
        row_pd[cluster] = pi;
        stamps[set] = ++clock;
    }
    b.out[CLOCK] = clock;
}
