/*
 * The open-loop queueing simulation's two hot loops.
 *
 * queue_replay() is QueueingObserver's finalize pass, on every device: the
 * Lindley recursion of every shard's FCFS server over the replay's banked
 * columns, on the integer nanosecond clock, folded into exact int64 totals,
 * the delay and sojourn histograms and the departure overhang past the last
 * arrival.
 *
 * poisson_times() draws a block of PoissonArrivals' timestamps: the
 * counter-based splitmix64 uniforms of repro.workloads.arrivals, turned into
 * exponential interarrivals with libm's log -- the function CPython's
 * math.log calls -- and summed in sequence, so every timestamp equals the
 * Python definition bit for bit (the library is built with
 * -ffp-contract=off, so no multiply-add is fused).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The most histogram bounds queue_replay() takes, plus its sentinel. */
#define MAX_BOUNDS 128

/* floor(log2(v)) + 1 for 0 < v < 2**53, read off the exponent of the
 * exactly converted double; 0 for v == 0, and at most 53. */
static int octave(int64_t v)
{
    const double d = (double)v;
    uint64_t bits;
    int e;
    memcpy(&bits, &d, sizeof bits);
    e = (int)(bits >> 52) - 1022;
    e = e > 0 ? e : 0;
    return e < 53 ? e : 53;
}

/* A histogram's bucket search: the count of bounds below a value
 * (searchsorted side="left"), capped at the last bucket. */
typedef struct {
    int64_t bounds[MAX_BOUNDS + 1]; /* the bounds, then INT64_MAX */
    int64_t below[54];              /* below[e]: the count below octave e */
    int64_t last;
} Buckets;

static void buckets_init(Buckets *b, const int64_t *bounds, int64_t n)
{
    int64_t i = 0;
    int e;
    memcpy(b->bounds, bounds, (size_t)n * sizeof *bounds);
    b->bounds[n] = INT64_MAX;
    b->below[0] = 0;
    for (e = 1; e < 54; e++) {
        while (i < n && bounds[i] < ((int64_t)1 << (e - 1))) {
            i++;
        }
        b->below[e] = i;
    }
    b->last = n - 1;
}

/* For v >= 0: start from the count of bounds below v's octave, then step
 * over the bounds inside it -- at most three for bounds 1.3x apart, taken
 * without a branch; the loop covers denser bounds, and the sentinel ends
 * it. */
static int64_t bucket(const Buckets *b, int64_t v)
{
    int64_t k = b->below[octave(v)];
    k += b->bounds[k] < v;
    k += b->bounds[k] < v;
    k += b->bounds[k] < v;
    while (b->bounds[k] < v) {
        k++;
    }
    return k < b->last ? k : b->last;
}

/*
 * Run n requests through shards FCFS single-server queues: request i
 * arrives at arrival[i] (ns, nondecreasing) on server shard[i] (server 0
 * when shard is NULL) and needs service[i] ns; when service is NULL, it
 * needs classes[0] >= 0 ns for a read hit, classes[1] for a read miss and
 * classes[2] for a write (write and hit are 0 or 1).  A value's histogram
 * bucket is the count of the n_bounds (1 to MAX_BOUNDS, ascending) bounds
 * below it, capped at the last bucket.  Writes totals = {delay, sojourn,
 * service, overhang past last_arrival, last departure} and adds to both
 * histograms.  Returns 0; -1 when out of memory; -2 when given a bound
 * count outside that range, fewer than one server or a shard id outside
 * [0, shards), and then the totals are unset and the histograms partial.
 */
int queue_replay(int64_t n, const int64_t *arrival, const uint8_t *write, const uint8_t *hit,
                 const int64_t *shard, int64_t shards, const int64_t *service,
                 const int64_t *classes, const int64_t *bounds, int64_t n_bounds,
                 int64_t last_arrival, int64_t *totals, int64_t *delay_histogram,
                 int64_t *sojourn_histogram)
{
    Buckets buckets;
    int64_t *busy;
    int64_t total_delay = 0, total_sojourn = 0, total_service = 0, overhang = 0;
    int64_t last_departure = 0;
    int64_t i;
    if (n_bounds < 1 || n_bounds > MAX_BOUNDS || shards < 1) {
        return -2;
    }
    busy = calloc((size_t)shards, sizeof(int64_t));
    if (busy == NULL) {
        return -1;
    }
    buckets_init(&buckets, bounds, n_bounds);
    for (i = 0; i < n; i++) {
        const int64_t t = arrival[i];
        const int64_t id = shard == NULL ? 0 : shard[i];
        /* classes: read hit 0, read miss 1, write 2 */
        const int64_t s = service != NULL ? service[i] : classes[write[i] ? 2 : 1 - hit[i]];
        int64_t *server;
        int64_t start, delay, depart;
        if (id < 0 || id >= shards) {
            free(busy);
            return -2;
        }
        server = &busy[id];
        start = *server > t ? *server : t;
        delay = start - t;
        depart = start + s;
        *server = depart;
        total_delay += delay;
        total_sojourn += delay + s;
        total_service += s;
        if (depart > last_arrival) {
            overhang += depart - last_arrival;
        }
        delay_histogram[bucket(&buckets, delay)]++;
        sojourn_histogram[bucket(&buckets, delay + s)]++;
    }
    for (i = 0; i < shards; i++) {
        if (busy[i] > last_departure) {
            last_departure = busy[i];
        }
    }
    free(busy);
    totals[0] = total_delay;
    totals[1] = total_sojourn;
    totals[2] = total_service;
    totals[3] = overhang;
    totals[4] = last_departure;
    return 0;
}

/* splitmix64's finalizer. */
static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/*
 * Write the arrival times (us) of indexes [start, start + n) to out: with
 * u_i the i-th uniform of a stream whose state starts at base, each time
 * is *t += -log(u_i) * scale_us, in index order.  *t holds the time of
 * index start - 1 (0.0 before index 0) and is left at the last one.
 */
void poisson_times(uint64_t base, double scale_us, int64_t start, int64_t n, double *t,
                   double *out)
{
    double time = *t;
    int64_t i;
    for (i = 0; i < n; i++) {
        const uint64_t state = base + (uint64_t)(start + i) * 0x9E3779B97F4A7C15u;
        const double u = ((double)(mix64(state) >> 11) + 0.5) * 0x1p-53;
        time += -log(u) * scale_us;
        out[i] = time;
    }
    *t = time;
}
