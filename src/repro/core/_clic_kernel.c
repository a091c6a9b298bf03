/*
 * CLIC's replacement state and its per-request loop (paper Figure 4).
 *
 * One Clic handle holds the state of one CLICPolicy instance, and nothing
 * is shared between handles:
 *
 *   - the page map: cached page -> node holding (seq(p), hint id of H(p));
 *   - one recency list of cached pages per hint id, oldest first;
 *   - the Pr table, one priority per hint id, replaced at window closes;
 *   - a lazily validated min-heap of (Pr, head seq, hint id) entries;
 *   - the outqueue: (seq, hint id) of recently requested uncached pages,
 *     evicted oldest-insertion first.
 *
 * repro/core/kernel.py builds this file with the other kernels into one
 * shared library, and repro/core/clic.py calls it through ctypes.  Python owns everything that runs once per window segment:
 * hint-key interning, cutting chunks at window ends, the hint statistics
 * tracker and the Pr table itself.  clic_replay() runs one segment, so
 * priorities are frozen for the whole call.
 *
 * Victim choice.  Priorities change only at a window close, where
 * clic_set_priorities() rebuilds the heap, and a list's head seq only grows
 * while the list is non-empty.  So a stale heap entry's key never exceeds
 * its list's current key, and the first valid top is the minimum
 * (Pr, head seq) over the non-empty lists, whatever the heap's internal
 * order.  That is what lets heap_push() compact the heap at any time.
 */
#include <string.h>

#include "_kernel.h"

/* Cached pages are Nodes in their hint id's recency list, and outqueue
 * entries are Nodes in the outqueue's insertion-order list; either way the
 * node holds (seq, hint id as its tag). */

typedef struct {
    double pr;
    int64_t seq;
    int32_t hint;
} Entry;

typedef struct {
    List list; /* cached pages of this hint id, oldest first */
    double pr;
    /* Segment tallies, reset when a deferred segment reports them. */
    int64_t count; /* requests in the segment */
    int64_t last;  /* position of the last of them */
    /* Read re-reference credits to this hint id: [0] before its first
     * request in the segment, [1] after it. */
    int64_t credits[2];
    int64_t distance[2];
} Hint;

typedef struct {
    int64_t capacity;
    int64_t cached;
    Node *cache;
    int32_t cache_free;
    Table cache_table;

    int64_t oq_capacity;
    Node *oq;
    List oq_list; /* oldest insertion first */
    int32_t oq_free;
    Table oq_table;

    Hint *hint;
    int32_t *requested; /* hint ids requested in the segment, first first */
    int32_t *credited;  /* hint ids credited in the segment, first first */
    int64_t n_requested;
    int64_t n_credited;
    int64_t hints;
    int64_t hint_room;

    Entry *heap;
    int64_t heap_size;
    int64_t heap_room;
} Clic;

typedef struct {
    int64_t key;
    int64_t hint;
} Pair;

/* ------------------------------------------------------------------ heap */

static int entry_less(const Entry *a, const Entry *b)
{
    if (a->pr != b->pr) {
        return a->pr < b->pr;
    }
    if (a->seq != b->seq) {
        return a->seq < b->seq;
    }
    return a->hint < b->hint;
}

static void sift_down(Entry *heap, int64_t size, int64_t i)
{
    Entry item = heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size) {
            break;
        }
        if (child + 1 < size && entry_less(&heap[child + 1], &heap[child])) {
            child++;
        }
        if (!entry_less(&heap[child], &item)) {
            break;
        }
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = item;
}

/* One entry per non-empty list, keyed by its current (Pr, head seq). */
static void heap_rebuild(Clic *c)
{
    int64_t h, i, n = 0;
    for (h = 0; h < c->hints; h++) {
        const Hint *hint = &c->hint[h];
        if (hint->list.head != NONE) {
            c->heap[n].pr = hint->pr;
            c->heap[n].seq = c->cache[hint->list.head].seq;
            c->heap[n].hint = (int32_t)h;
            n++;
        }
    }
    c->heap_size = n;
    for (i = n / 2 - 1; i >= 0; i--) {
        sift_down(c->heap, n, i);
    }
}

/* heap_room is at least twice hint_room, so a compaction always frees
 * room for the push. */
static void heap_push(Clic *c, int32_t h, int64_t seq)
{
    Entry *heap = c->heap;
    Entry item;
    int64_t i;
    if (c->heap_size == c->heap_room) {
        heap_rebuild(c);
    }
    item.pr = c->hint[h].pr;
    item.seq = seq;
    item.hint = h;
    i = c->heap_size++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!entry_less(&item, &heap[parent])) {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

/* The hint id whose oldest page is the eviction candidate, with the heap's
 * top holding its current key; NONE when nothing is cached. */
static int32_t peek_victim(Clic *c)
{
    while (c->heap_size) {
        Entry *top = &c->heap[0];
        const Hint *hint = &c->hint[top->hint];
        int64_t seq;
        if (hint->list.head == NONE) {
            c->heap[0] = c->heap[--c->heap_size];
            sift_down(c->heap, c->heap_size, 0);
            continue;
        }
        seq = c->cache[hint->list.head].seq;
        if (top->pr != hint->pr || top->seq != seq) {
            top->pr = hint->pr;
            top->seq = seq;
            sift_down(c->heap, c->heap_size, 0);
            continue;
        }
        return top->hint;
    }
    return NONE;
}

/* -------------------------------------------------------------- outqueue */

/* Insert or refresh *page*'s entry; a refresh moves it to the newest end,
 * and a full outqueue forgets its oldest entry first.  *n* is the page's
 * entry if the caller already looked it up, or NONE. */
static void oq_put(Clic *c, int32_t n, int64_t page, int64_t seq, int32_t h)
{
    if (c->oq_capacity == 0) {
        return;
    }
    if (n != NONE) {
        list_unlink(c->oq, &c->oq_list, n);
    } else {
        if (c->oq_list.size >= c->oq_capacity) {
            n = c->oq_list.head;
            list_unlink(c->oq, &c->oq_list, n);
            table_remove(&c->oq_table, c->oq[n].page);
        } else {
            n = node_take(c->oq, &c->oq_free);
        }
        c->oq[n].page = page;
        table_insert(&c->oq_table, page, n);
    }
    c->oq[n].seq = seq;
    c->oq[n].tag = h;
    list_append(c->oq, &c->oq_list, n);
}

static void oq_remove(Clic *c, int64_t page)
{
    int32_t n;
    if (c->oq_capacity == 0) {
        return;
    }
    n = table_find(&c->oq_table, page);
    if (n == NONE) {
        return;
    }
    list_unlink(c->oq, &c->oq_list, n);
    table_remove(&c->oq_table, page);
    node_give(c->oq, &c->oq_free, n);
}

/* ------------------------------------------------------------- lifecycle */

void clic_free(Clic *c)
{
    if (c == NULL) {
        return;
    }
    free(c->cache);
    free(c->cache_table.slots);
    free(c->oq);
    free(c->oq_table.slots);
    free(c->hint);
    free(c->requested);
    free(c->credited);
    free(c->heap);
    free(c);
}

/* A handle for a cache of *capacity* usable pages and an outqueue of
 * *oq_capacity* entries; NULL when out of memory or too large. */
Clic *clic_new(int64_t capacity, int64_t oq_capacity)
{
    Clic *c;
    if (capacity < 1 || capacity >= ((int64_t)1 << 29) || oq_capacity < 0
        || oq_capacity >= ((int64_t)1 << 29)) {
        return NULL;
    }
    c = calloc(1, sizeof(Clic));
    if (c == NULL) {
        return NULL;
    }
    c->capacity = capacity;
    c->oq_capacity = oq_capacity;
    list_init(&c->oq_list);
    c->cache = free_chain(capacity);
    c->oq = free_chain(oq_capacity);
    if (c->cache == NULL || c->oq == NULL || table_init(&c->cache_table, capacity)
        || table_init(&c->oq_table, oq_capacity)) {
        clic_free(c);
        return NULL;
    }
    c->cache_free = 0;
    c->oq_free = oq_capacity ? 0 : NONE;
    return c;
}

/* Make room for hint ids [0, hints); new ids start with empty lists and
 * Pr 0.  Returns 0, or -1 when out of memory. */
static int reserve_hints(Clic *c, int64_t hints)
{
    int64_t room = c->hint_room ? c->hint_room : 64;
    int64_t h;
    if (hints <= c->hint_room) {
        if (hints > c->hints) {
            c->hints = hints;
        }
        return 0;
    }
    while (room < hints) {
        room *= 2;
    }
    {
        Hint *hint = realloc(c->hint, (size_t)room * sizeof(Hint));
        int32_t *requested, *credited;
        Entry *heap;
        if (hint == NULL) {
            return -1;
        }
        c->hint = hint;
        requested = realloc(c->requested, (size_t)room * sizeof(int32_t));
        if (requested == NULL) {
            return -1;
        }
        c->requested = requested;
        credited = realloc(c->credited, (size_t)room * sizeof(int32_t));
        if (credited == NULL) {
            return -1;
        }
        c->credited = credited;
        heap = realloc(c->heap, (size_t)(2 * room) * sizeof(Entry));
        if (heap == NULL) {
            return -1;
        }
        c->heap = heap;
    }
    for (h = c->hint_room; h < room; h++) {
        memset(&c->hint[h], 0, sizeof(Hint));
        list_init(&c->hint[h].list);
    }
    c->hint_room = room;
    c->heap_room = 2 * room;
    c->hints = hints;
    return 0;
}

/* Install the Pr table for hint ids [0, n) and rebuild the victim heap
 * (a window closed).  Returns 0, or -1 when out of memory. */
int clic_set_priorities(Clic *c, const double *pr, int64_t n)
{
    int64_t h;
    if (reserve_hints(c, n)) {
        return -1;
    }
    for (h = 0; h < n; h++) {
        c->hint[h].pr = pr[h];
    }
    heap_rebuild(c);
    return 0;
}

int64_t clic_len(const Clic *c)
{
    return c->cached;
}

int clic_contains(const Clic *c, int64_t page)
{
    return table_find(&c->cache_table, page) != NONE;
}

/* Write the cached pages to *out* (room for clic_len() pages). */
void clic_pages(const Clic *c, int64_t *out)
{
    int64_t h, k = 0;
    for (h = 0; h < c->hints; h++) {
        int32_t n;
        for (n = c->hint[h].list.head; n != NONE; n = c->cache[n].next) {
            out[k++] = c->cache[n].page;
        }
    }
}

/* ---------------------------------------------------------------- replay */

static int compare_pairs(const void *a, const void *b)
{
    int64_t x = ((const Pair *)a)->key;
    int64_t y = ((const Pair *)b)->key;
    return (x > y) - (x < y);
}

/* Report and reset a deferred segment's tallies into *tally*:
 *   tally[0] = R, tally[1] = C;
 *   R (hint id, requests) pairs, in last-occurrence order;
 *   C (hint id, credits before its first request, their distance sum,
 *      credits after it, their distance sum) records, in first-credit
 *      order. */
static void report_tallies(Clic *c, int64_t *tally)
{
    Pair *pairs = (Pair *)(tally + 2);
    int64_t *out = tally + 2 + 2 * c->n_requested;
    int64_t k;
    tally[0] = c->n_requested;
    tally[1] = c->n_credited;
    for (k = 0; k < c->n_requested; k++) {
        pairs[k].key = c->hint[c->requested[k]].last;
        pairs[k].hint = c->requested[k];
    }
    qsort(pairs, (size_t)c->n_requested, sizeof(Pair), compare_pairs);
    for (k = 0; k < c->n_requested; k++) {
        Hint *hint = &c->hint[pairs[k].hint];
        pairs[k].key = pairs[k].hint;
        pairs[k].hint = hint->count;
        hint->count = 0;
    }
    for (k = 0; k < c->n_credited; k++) {
        Hint *hint = &c->hint[c->credited[k]];
        out[0] = c->credited[k];
        out[1] = hint->credits[0];
        out[2] = hint->distance[0];
        out[3] = hint->credits[1];
        out[4] = hint->distance[1];
        out += 5;
        hint->credits[0] = hint->credits[1] = 0;
        hint->distance[0] = hint->distance[1] = 0;
    }
    c->n_requested = c->n_credited = 0;
}

/*
 * Replay requests [start, stop) of a chunk's columns, all inside one
 * priority window, with hint ids below *hints*.  columns->offsets[start]
 * must hold the eviction count so far.
 *
 * The tracker side goes to exactly one of:
 *   tally (log == NULL): per-hint tallies, see report_tallies(); credits are
 *     split by whether the credited hint id was requested earlier in the
 *     segment, so Python can gate the others with the tracker's state at
 *     the segment start;
 *   log: three int64 per request -- its hint id, the hint id its read
 *     re-reference credits (or -1) and the distance -- in stream order.
 *
 * Returns 0, or -1 when out of memory (before any request is replayed).
 */
int clic_replay(Clic *c, int64_t start, int64_t stop, int64_t hints,
                const Columns *columns, int64_t *tally, int64_t *log)
{
    const int64_t *page = columns->page;
    const uint8_t *write = columns->write;
    const int64_t *hint = columns->hint;
    const int64_t *seq = columns->seq;
    const int64_t *ids = columns->ids;
    uint8_t *hit = columns->hit;
    uint8_t *admitted = columns->admitted;
    uint8_t *bypassed = columns->bypassed;
    int64_t *offsets = columns->offsets;
    int64_t *evicted = columns->evicted;
    int64_t evictions = offsets[start];
    int64_t i;
    if (reserve_hints(c, hints)) {
        return -1;
    }
    for (i = start; i < stop; i++) {
        const int64_t p = page[i];
        const int64_t s = seq[i];
        const int32_t h = (int32_t)ids[hint[i]];
        const int32_t node = table_find(&c->cache_table, p);
        int32_t oq_node = NONE;
        int32_t credit = NONE;
        int64_t distance = 0;

        /* Hint analysis (Section 3.1): a read re-reference of a page whose
         * previous request is remembered, cached or in the outqueue. */
        if (!write[i]) {
            const Node *prev = NULL;
            if (node != NONE) {
                prev = &c->cache[node];
            } else if (c->oq_capacity) {
                oq_node = table_find(&c->oq_table, p);
                if (oq_node != NONE) {
                    prev = &c->oq[oq_node];
                }
            }
            if (prev != NULL && s > prev->seq) {
                credit = prev->tag;
                distance = s - prev->seq;
            }
        }
        if (log != NULL) {
            int64_t *record = log + 3 * (i - start);
            record[0] = h;
            record[1] = credit;
            record[2] = distance;
        } else if (credit != NONE) {
            Hint *credited = &c->hint[credit];
            int after = credited->count > 0;
            if (!credited->credits[0] && !credited->credits[1]) {
                c->credited[c->n_credited++] = credit;
            }
            credited->credits[after]++;
            credited->distance[after] += distance;
        }

        /* Cache management (Figure 4) with the priorities of previous
         * windows. */
        hit[i] = admitted[i] = bypassed[i] = 0;
        if (node != NONE) {
            Node *cached = &c->cache[node];
            const int32_t old = cached->tag;
            list_unlink(c->cache, &c->hint[old].list, node);
            cached->seq = s;
            cached->tag = h;
            if (old != h && c->hint[h].list.head == NONE) {
                heap_push(c, h, s);
            }
            list_append(c->cache, &c->hint[h].list, node);
            hit[i] = 1;
        } else {
            int admit = c->cached < c->capacity;
            const double priority = c->hint[h].pr;
            /* Pr(H) == 0 never beats the victim's priority (priorities are
             * nonnegative), so the heap is not consulted. */
            if (!admit && priority != 0.0) {
                const int32_t victim_hint = peek_victim(c);
                if (victim_hint != NONE && priority > c->heap[0].pr) {
                    /* Evict the victim; its metadata becomes its outqueue
                     * entry (a cached page has none yet), and its node holds
                     * the admitted page. */
                    const int32_t victim = c->hint[victim_hint].list.head;
                    const Node *v = &c->cache[victim];
                    list_unlink(c->cache, &c->hint[victim_hint].list, victim);
                    table_remove(&c->cache_table, v->page);
                    oq_put(c, NONE, v->page, v->seq, v->tag);
                    evicted[evictions++] = v->page;
                    c->cached--;
                    node_give(c->cache, &c->cache_free, victim);
                    admit = 1;
                }
            }
            if (admit) {
                const int32_t n = node_take(c->cache, &c->cache_free);
                Node *fresh = &c->cache[n];
                c->cached++;
                fresh->page = p;
                fresh->seq = s;
                fresh->tag = h;
                table_insert(&c->cache_table, p, n);
                if (c->hint[h].list.head == NONE) {
                    heap_push(c, h, s);
                }
                list_append(c->cache, &c->hint[h].list, n);
                oq_remove(c, p);
                admitted[i] = 1;
            } else {
                /* Do not cache p; remember its request in the outqueue. */
                if (write[i] && c->oq_capacity) {
                    oq_node = table_find(&c->oq_table, p);
                }
                oq_put(c, oq_node, p, s, h);
                bypassed[i] = 1;
            }
        }
        offsets[i + 1] = evictions;

        /* Window accounting (Section 3.2). */
        if (log == NULL) {
            Hint *requested = &c->hint[h];
            if (requested->count++ == 0) {
                c->requested[c->n_requested++] = h;
            }
            requested->last = i;
        }
    }
    if (log == NULL) {
        report_tallies(c, tally);
    }
    return 0;
}
