/*
 * CLIC's replacement state, its per-request loop (paper Figure 4) and its
 * priority learning (Sections 3.1, 3.2 and 5).
 *
 * One Clic handle holds the state of one CLICPolicy instance, and nothing
 * is shared between handles:
 *
 *   - the page map: cached page -> node holding (seq(p), hint id of H(p));
 *   - per hint id, a recency list of its cached pages, oldest first, and
 *     its priority Pr(H);
 *   - a lazily validated min-heap of (Pr, head seq, hint id) entries;
 *   - the outqueue: (seq, hint id) of recently requested uncached pages,
 *     evicted oldest-insertion first;
 *   - per hint id, the current window's statistics: N(H), Nr(H) and the
 *     sum of the re-reference distances, either for every hint id (the
 *     exact hint table) or for the k hint ids that Space-Saving tracks
 *     (Metwally, Agrawal and El Abbadi, ICDT 2005), whose counters sit in
 *     a second lazily validated min-heap.
 *
 * repro/core/kernel.py builds this file with the other kernels into one
 * shared library, and repro/core/clic.py calls it through ctypes.  Python
 * interns hint-set keys to dense hint ids and reserves room for each new
 * id (clic_reserve), so clic_replay() allocates nothing and replays a
 * whole chunk, and clic_cluster() a whole chunk of a cluster of CLIC
 * shards.  Each request (clic_step) is, in this order:
 *
 *   1. a read re-reference credit to the hint id of the page's previous
 *      request, if that request is remembered (cached or in the outqueue).
 *      Under Space-Saving it counts only while that id is tracked;
 *   2. Figure 4's cache decision, with the priorities of past windows;
 *   3. its count, and at W requests the window close: every hint id with
 *      statistics gets Pr = r * (Nr/N) / (distance sum/Nr) + (1 - r) * Pr,
 *      with r < 1 the others get (1 - r) * Pr, and with r == 1 they leave
 *      the priority map; the statistics are cleared and the victim heap
 *      rebuilt.
 *
 * That order, and every float operation, is the scalar reference's
 * (tests/clic_reference.py), so priorities and outcomes match it bit for
 * bit under the library's -ffp-contract=off.
 *
 * Victim choice.  Priorities change only at a window close, which rebuilds
 * the heap, and a list's head seq only grows while the list is non-empty.
 * So a stale heap entry's key never exceeds its list's current key, and the
 * first valid top is the minimum (Pr, head seq) over the non-empty lists,
 * whatever the heap's internal order.  That is what lets heap_push()
 * compact the heap at any time.
 *
 * Space-Saving.  Every request of a tracked or newly tracked id pushes a
 * (count, tiebreak, hint id) entry, with a tiebreak that grows with every
 * push, and the minimum valid entry -- its id tracked with that count --
 * names the counter to recycle.  Tiebreaks are unique, so any binary heap
 * over the same entries pops them in the same order.  A stale entry never
 * validates: when an id's counter is recycled through its live entry, every
 * older entry of that id has a smaller key and was popped before it.  So
 * the heap may drop its stale entries at any time (the reference does past
 * max(4k, 32) entries).  It does when a push fills its room, twice the
 * reserved hint ids, keeping one entry per tracked id; the push comes
 * first, so a kept entry pairs the id's count with its newest tiebreak.
 */
#include <string.h>

#include "_kernel.h"

/* Cached pages are Nodes in their hint id's recency list, and outqueue
 * entries are Nodes in the outqueue's insertion-order list; either way the
 * node holds (seq, hint id as its tag). */

/* A heap entry: the victim heap's (Pr, head seq, hint id), or a
 * Space-Saving counter's (count, tiebreak, hint id), whose count is exact
 * as a double. */
typedef struct {
    double key;
    int64_t seq;
    int32_t hint;
} Entry;

/* What Figure 4's loop reads of a hint id, apart from its statistics. */
typedef struct {
    List list; /* cached pages of this hint id, oldest first */
    double pr;
} Hint;

/* A hint id's statistics in the current window. */
typedef struct {
    int64_t requests;     /* N(H), or the Space-Saving count */
    int64_t error;        /* Space-Saving error; N(H) = requests - error */
    int64_t rereferences; /* Nr(H) */
    int64_t distance;     /* sum of the re-reference distances */
    int64_t tiebreak;     /* of the newest Space-Saving heap entry */
    int32_t slot;         /* index in tracked, NONE when untracked */
    int32_t mapped;       /* whether the priority map holds this id */
} Stats;

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
    Stats *stats;
    int64_t hints;
    int64_t hint_room;

    Entry *heap;
    int64_t heap_size;
    int64_t heap_room;

    int64_t window;    /* W */
    double decay;      /* r */
    int64_t in_window; /* requests of the current window so far */
    int64_t windows;   /* closed windows */

    int64_t top_k;      /* k, or 0 for the exact hint table */
    int32_t *tracked;   /* the tracked hint ids */
    int64_t n_tracked;
    Entry *counters;    /* Space-Saving's heap: room for 2 * hint_room */
    int64_t counters_size;
    int64_t tiebreak;
} Clic;

/* ----------------------------------------------------------------- heaps */

static int entry_less(const Entry *a, const Entry *b)
{
    if (a->key != b->key) {
        return a->key < b->key;
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

static void sift_up(Entry *heap, int64_t i)
{
    Entry item = heap[i];
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

static void heapify(Entry *heap, int64_t size)
{
    int64_t i;
    for (i = size / 2 - 1; i >= 0; i--) {
        sift_down(heap, size, i);
    }
}

/* Remove the heap's top. */
static void heap_pop(Entry *heap, int64_t *size)
{
    heap[0] = heap[--*size];
    sift_down(heap, *size, 0);
}

/* One entry per non-empty list, keyed by its current (Pr, head seq). */
static void heap_rebuild(Clic *c)
{
    int64_t h, n = 0;
    for (h = 0; h < c->hints; h++) {
        const Hint *hint = &c->hint[h];
        if (hint->list.head != NONE) {
            c->heap[n].key = hint->pr;
            c->heap[n].seq = c->cache[hint->list.head].seq;
            c->heap[n].hint = (int32_t)h;
            n++;
        }
    }
    c->heap_size = n;
    heapify(c->heap, n);
}

/* heap_room is at least twice hint_room, so a compaction always frees
 * room for the push. */
static void heap_push(Clic *c, int32_t h, int64_t seq)
{
    Entry *item;
    if (c->heap_size == c->heap_room) {
        heap_rebuild(c);
    }
    item = &c->heap[c->heap_size];
    item->key = c->hint[h].pr;
    item->seq = seq;
    item->hint = h;
    sift_up(c->heap, c->heap_size++);
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
            heap_pop(c->heap, &c->heap_size);
            continue;
        }
        seq = c->cache[hint->list.head].seq;
        if (top->key != hint->pr || top->seq != seq) {
            top->key = hint->pr;
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

/* ------------------------------------------------------------ statistics */

/* Push hint id h's counter with the next tiebreak; a full heap then keeps
 * only the tracked ids' newest entries. */
static void counter_push(Clic *c, int32_t h)
{
    Stats *s = &c->stats[h];
    Entry *item = &c->counters[c->counters_size];
    s->tiebreak = c->tiebreak++;
    item->key = (double)s->requests;
    item->seq = s->tiebreak;
    item->hint = h;
    sift_up(c->counters, c->counters_size++);
    if (c->counters_size == 2 * c->hint_room) {
        int64_t i;
        for (i = 0; i < c->n_tracked; i++) {
            const Stats *t = &c->stats[c->tracked[i]];
            c->counters[i].key = (double)t->requests;
            c->counters[i].seq = t->tiebreak;
            c->counters[i].hint = c->tracked[i];
        }
        c->counters_size = c->n_tracked;
        heapify(c->counters, c->n_tracked);
    }
}

/* Count a request of hint id h under Space-Saving: a tracked id's count
 * grows; an untracked one takes a free counter, or else the counter of the
 * first valid minimum, whose count becomes its error. */
static void offer(Clic *c, int32_t h)
{
    Stats *s = &c->stats[h];
    if (s->slot == NONE) {
        int64_t slot = c->n_tracked;
        s->error = 0;
        if (slot < c->top_k) {
            c->n_tracked++;
        } else {
            for (;;) {
                const Entry top = c->counters[0];
                Stats *victim = &c->stats[top.hint];
                heap_pop(c->counters, &c->counters_size);
                if (victim->slot != NONE && (double)victim->requests == top.key) {
                    s->error = victim->requests;
                    slot = victim->slot;
                    victim->slot = NONE;
                    break;
                }
            }
        }
        c->tracked[slot] = h;
        s->slot = (int32_t)slot;
        s->requests = s->error;
        s->rereferences = s->distance = 0;
    }
    s->requests++;
    counter_push(c, h);
}

/* Close the window: new priorities, cleared statistics, rebuilt heap. */
static void close_window(Clic *c)
{
    const double r = c->decay;
    int64_t h;
    for (h = 0; h < c->hints; h++) {
        Stats *s = &c->stats[h];
        Hint *hint = &c->hint[h];
        if (c->top_k ? s->slot != NONE : s->requests || s->rereferences) {
            const int64_t n = s->requests - s->error;
            double fresh = 0.0;
            if (s->rereferences && n) {
                fresh = ((double)s->rereferences / (double)n)
                        / ((double)s->distance / (double)s->rereferences);
            }
            hint->pr = r * fresh + (1.0 - r) * hint->pr;
            s->mapped = 1;
        } else if (r < 1.0 && s->mapped) {
            hint->pr = (1.0 - r) * hint->pr;
        } else {
            hint->pr = 0.0;
            s->mapped = 0;
        }
        s->requests = s->error = s->rereferences = s->distance = 0;
        s->slot = NONE;
    }
    c->n_tracked = c->counters_size = c->in_window = 0;
    c->windows++;
    heap_rebuild(c);
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
    free(c->stats);
    free(c->heap);
    free(c->tracked);
    free(c->counters);
    free(c);
}

/* A handle for a cache of *capacity* usable pages, an outqueue of
 * *oq_capacity* entries, windows of *window* requests, decay *decay* and
 * *top_k* tracked hint sets (0: all of them); NULL when out of memory or
 * too large. */
Clic *clic_new(int64_t capacity, int64_t oq_capacity, int64_t window, double decay,
               int64_t top_k)
{
    Clic *c;
    if (capacity < 1 || capacity >= ((int64_t)1 << 29) || oq_capacity < 0
        || oq_capacity >= ((int64_t)1 << 29) || window < 1 || top_k < 0) {
        return NULL;
    }
    c = calloc(1, sizeof(Clic));
    if (c == NULL) {
        return NULL;
    }
    c->capacity = capacity;
    c->oq_capacity = oq_capacity;
    c->window = window;
    c->decay = decay;
    c->top_k = top_k;
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

/* Make room for hint ids [0, hints); new ids start with empty lists, Pr 0
 * and no statistics.  Returns 0, or -1 when out of memory. */
int clic_reserve(Clic *c, int64_t hints)
{
    int64_t room = c->hint_room ? c->hint_room : 64;
    int64_t h;
    if (hints > c->hint_room) {
        Hint *hint;
        Stats *stats;
        int32_t *tracked;
        Entry *heap;
        while (room < hints) {
            room *= 2;
        }
        hint = realloc(c->hint, (size_t)room * sizeof(Hint));
        if (hint == NULL) {
            return -1;
        }
        c->hint = hint;
        stats = realloc(c->stats, (size_t)room * sizeof(Stats));
        if (stats == NULL) {
            return -1;
        }
        c->stats = stats;
        tracked = realloc(c->tracked, (size_t)room * sizeof(int32_t));
        if (tracked == NULL) {
            return -1;
        }
        c->tracked = tracked;
        heap = realloc(c->heap, (size_t)(2 * room) * sizeof(Entry));
        if (heap == NULL) {
            return -1;
        }
        c->heap = heap;
        if (c->top_k) {
            Entry *counters = realloc(c->counters, (size_t)(2 * room) * sizeof(Entry));
            if (counters == NULL) {
                return -1;
            }
            c->counters = counters;
        }
        for (h = c->hint_room; h < room; h++) {
            memset(&c->hint[h], 0, sizeof(Hint));
            list_init(&c->hint[h].list);
            memset(&c->stats[h], 0, sizeof(Stats));
            c->stats[h].slot = NONE;
        }
        c->hint_room = room;
        c->heap_room = 2 * room;
    }
    if (hints > c->hints) {
        c->hints = hints;
    }
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

int64_t clic_windows(const Clic *c)
{
    return c->windows;
}

/* Write the hint ids the priority map holds to *ids* and their Pr to *pr*
 * (room for every reserved id); returns their number. */
int64_t clic_priorities(const Clic *c, int64_t *ids, double *pr)
{
    int64_t h, n = 0;
    for (h = 0; h < c->hints; h++) {
        if (c->stats[h].mapped) {
            ids[n] = h;
            pr[n++] = c->hint[h].pr;
        }
    }
    return n;
}

/* ---------------------------------------------------------------- replay */

/* Step request i (reads page, write, hint and seq, and through hint the
 * lookup column, the hint id of each hint-table entry, which must be
 * reserved). */
STEP clic_step(Clic *c, const Columns *columns, const int64_t *lookup, int64_t i,
               int64_t *evictions)
{
    const int64_t p = columns->page[i];
    const int64_t s = columns->seq[i];
    const uint8_t write = columns->write[i];
    const int32_t h = (int32_t)lookup[columns->hint[i]];
    const int32_t node = table_find(&c->cache_table, p);
    int32_t oq_node = NONE;
    uint8_t hit = 0, admitted = 0, bypassed = 0;

    /* Hint analysis (Section 3.1): a read re-reference of a page whose
     * previous request is remembered, cached or in the outqueue. */
    if (!write) {
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
            Stats *credited = &c->stats[prev->tag];
            if (!c->top_k || credited->slot != NONE) {
                credited->rereferences++;
                credited->distance += s - prev->seq;
            }
        }
    }

    /* Cache management (Figure 4) with the priorities of previous
     * windows. */
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
        hit = 1;
    } else {
        int admit = c->cached < c->capacity;
        const double priority = c->hint[h].pr;
        /* Pr(H) == 0 never beats the victim's priority (priorities are
         * nonnegative), so the heap is not consulted. */
        if (!admit && priority != 0.0) {
            const int32_t victim_hint = peek_victim(c);
            if (victim_hint != NONE && priority > c->heap[0].key) {
                /* Evict the victim; its metadata becomes its outqueue
                 * entry (a cached page has none yet), and its node holds
                 * the admitted page. */
                const int32_t victim = c->hint[victim_hint].list.head;
                const Node *v = &c->cache[victim];
                list_unlink(c->cache, &c->hint[victim_hint].list, victim);
                table_remove(&c->cache_table, v->page);
                oq_put(c, NONE, v->page, v->seq, v->tag);
                columns->evicted[(*evictions)++] = v->page;
                c->cached--;
                node_give(c->cache, &c->cache_free, victim);
                admit = 1;
            }
        }
        if (admit) {
            const int32_t fresh_node = node_take(c->cache, &c->cache_free);
            Node *fresh = &c->cache[fresh_node];
            c->cached++;
            fresh->page = p;
            fresh->seq = s;
            fresh->tag = h;
            table_insert(&c->cache_table, p, fresh_node);
            if (c->hint[h].list.head == NONE) {
                heap_push(c, h, s);
            }
            list_append(c->cache, &c->hint[h].list, fresh_node);
            oq_remove(c, p);
            admitted = 1;
        } else {
            /* Do not cache p; remember its request in the outqueue. */
            if (write && c->oq_capacity) {
                oq_node = table_find(&c->oq_table, p);
            }
            oq_put(c, oq_node, p, s, h);
            bypassed = 1;
        }
    }
    columns->hit[i] = hit;
    columns->admitted[i] = admitted;
    columns->bypassed[i] = bypassed;

    /* Window accounting (Section 3.2). */
    if (c->top_k) {
        offer(c, h);
    } else {
        c->stats[h].requests++;
    }
    if (++c->in_window == c->window) {
        close_window(c);
    }
}

KERNEL_ENTRY_POINTS(clic, Clic)
