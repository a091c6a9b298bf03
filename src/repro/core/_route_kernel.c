/*
 * The sharded cluster's hash router (repro/simulation/cluster.py's
 * HashRouter): each page's shard is the murmur3 fmix64 finalizer of the
 * page, modulo the shard count.
 *
 * Plain page % shards would alias the strided access patterns of the
 * synthetic workloads onto single shards; the mix spreads any page-id
 * structure uniformly.  It is wrapping uint64 arithmetic, so a page gets
 * the same shard in every process.
 */
#include <stdint.h>

/* Write the shard of each of the *n* pages of *page*, of *shards*, to
 * *shard*. */
void route_hash(int64_t n, const int64_t *page, int64_t shards, int64_t *shard)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        uint64_t mix = (uint64_t)page[i];
        mix ^= mix >> 33;
        mix *= 0xFF51AFD7ED558CCDULL;
        mix ^= mix >> 33;
        mix *= 0xC4CEB9FE1A85EC53ULL;
        mix ^= mix >> 33;
        shard[i] = (int64_t)(mix % (uint64_t)shards);
    }
}
