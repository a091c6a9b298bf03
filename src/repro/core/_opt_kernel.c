/*
 * OPT's replacement state and its per-request loop: Belady's MIN on future
 * reads, with the bypass optimisation.
 *
 * One Opt handle holds the state of one OPTPolicy instance: the cached
 * pages, each node holding the page's next read, and a max-heap of
 * (next read, page) entries with lazy deletion.  Python keeps the stream's
 * future-read index, one next read per seq, and hands each call that
 * column; a request looks its next read up by its seq.
 *
 * Victim choice.  Every cached page has an entry with its current key, and
 * an entry is live when its key is its page's current one, so the first
 * live top is the cached page read farthest in the future.  Live keys are
 * unique (a next read is the position of a read of that page), so the
 * heap's layout changes no victim; compact() may rebuild it at any time.
 */
#include "_kernel.h"

/* Next-read "time" of a page that is never read again (int64 max). */
#define NEVER INT64_MAX

typedef struct {
    int64_t next_read;
    int64_t page;
} Entry;

typedef struct {
    int64_t capacity;
    int64_t cached;
    Node *nodes; /* tag 1 while the node holds a cached page */
    int32_t free;
    Table table;
    Entry *heap;
    int64_t heap_size;
} Opt;

void opt_free(Opt *c)
{
    if (c == NULL) {
        return;
    }
    free(c->nodes);
    free(c->table.slots);
    free(c->heap);
    free(c);
}

/* A handle for *capacity* pages; NULL when out of memory or too large. */
Opt *opt_new(int64_t capacity)
{
    Opt *c;
    int64_t i;
    if (capacity < 1 || capacity >= ((int64_t)1 << 28)) {
        return NULL;
    }
    c = calloc(1, sizeof(Opt));
    if (c == NULL) {
        return NULL;
    }
    c->capacity = capacity;
    c->nodes = free_chain(capacity);
    /* Compaction keeps at most 2 * capacity entries, plus the push that
     * triggers it. */
    c->heap = malloc((size_t)(2 * capacity + 1) * sizeof(Entry));
    if (c->nodes == NULL || c->heap == NULL || table_init(&c->table, capacity)) {
        opt_free(c);
        return NULL;
    }
    for (i = 0; i < capacity; i++) {
        c->nodes[i].tag = 0;
    }
    return c;
}

int64_t opt_len(const Opt *c)
{
    return c->cached;
}

int opt_contains(const Opt *c, int64_t page)
{
    return table_find(&c->table, page) != NONE;
}

/* Write the cached pages to *out* (room for opt_len() pages). */
void opt_pages(const Opt *c, int64_t *out)
{
    int64_t i;
    for (i = 0; i < c->capacity; i++) {
        if (c->nodes[i].tag) {
            *out++ = c->nodes[i].page;
        }
    }
}

/* ------------------------------------------------------------------ heap */

/* Whether a pops before b: the farther next read, then the smaller page. */
static int entry_before(const Entry *a, const Entry *b)
{
    if (a->next_read != b->next_read) {
        return a->next_read > b->next_read;
    }
    return a->page < b->page;
}

static void sift_down(Entry *heap, int64_t size, int64_t i)
{
    Entry item = heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size) {
            break;
        }
        if (child + 1 < size && entry_before(&heap[child + 1], &heap[child])) {
            child++;
        }
        if (!entry_before(&heap[child], &item)) {
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
        const int64_t parent = (i - 1) / 2;
        if (!entry_before(&item, &heap[parent])) {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

/* Rebuild the heap from the cached pages' current keys only. */
static void compact(Opt *c)
{
    int64_t i, n = 0;
    for (i = 0; i < c->capacity; i++) {
        if (c->nodes[i].tag) {
            c->heap[n].next_read = c->nodes[i].seq;
            c->heap[n].page = c->nodes[i].page;
            n++;
        }
    }
    c->heap_size = n;
    for (i = n / 2 - 1; i >= 0; i--) {
        sift_down(c->heap, n, i);
    }
}

static void push(Opt *c, int64_t next_read, int64_t page)
{
    c->heap[c->heap_size].next_read = next_read;
    c->heap[c->heap_size].page = page;
    sift_up(c->heap, c->heap_size++);
}

/* Pop the live top: the node of the cached page read farthest in the
 * future, NONE when the heap holds no live entry.  Stale tops met on the
 * way are dropped for good. */
static int32_t pop_farthest(Opt *c)
{
    while (c->heap_size) {
        const Entry top = c->heap[0];
        const int32_t n = table_find(&c->table, top.page);
        c->heap[0] = c->heap[--c->heap_size];
        sift_down(c->heap, c->heap_size, 0);
        if (n != NONE && c->nodes[n].seq == top.next_read) {
            return n;
        }
    }
    return NONE;
}

/* ---------------------------------------------------------------- replay */

static void uncache(Opt *c, int32_t n)
{
    table_remove(&c->table, c->nodes[n].page);
    c->nodes[n].tag = 0;
    node_give(c->nodes, &c->free, n);
    c->cached--;
}

/* Step request i (reads page and seq, and through seq the lookup column,
 * the next read of each seq). */
STEP opt_step(Opt *c, const Columns *columns, const int64_t *lookup, int64_t i,
              int64_t *evictions)
{
    const int64_t p = columns->page[i];
    const int64_t next_read = lookup[columns->seq[i]];
    int32_t node = table_find(&c->table, p);
    uint8_t hit = 0, admitted = 0, bypassed = 0;
    if (node != NONE) {
        hit = 1;
        if (next_read == NEVER) {
            /* Never read again: the hit frees the slot at once. */
            uncache(c, node);
            columns->evicted[(*evictions)++] = p;
            node = NONE;
        }
    } else if (next_read == NEVER) {
        bypassed = 1;
    } else if (c->cached >= c->capacity) {
        const int32_t victim = pop_farthest(c);
        if (victim == NONE || c->nodes[victim].seq <= next_read) {
            /* Every cached page is read sooner: bypass, and put the
             * victim's entry back. */
            if (victim != NONE) {
                push(c, c->nodes[victim].seq, c->nodes[victim].page);
            }
            bypassed = 1;
        } else {
            columns->evicted[(*evictions)++] = c->nodes[victim].page;
            uncache(c, victim);
            admitted = 1;
        }
    } else {
        admitted = 1;
    }
    if (admitted) {
        node = node_take(c->nodes, &c->free);
        c->nodes[node].page = p;
        c->nodes[node].tag = 1;
        table_insert(&c->table, p, node);
        c->cached++;
    }
    if (node != NONE) {
        c->nodes[node].seq = next_read;
        push(c, next_read, p);
        if (c->heap_size > 2 * c->capacity) {
            compact(c);
        }
    }
    columns->hit[i] = hit;
    columns->admitted[i] = admitted;
    columns->bypassed[i] = bypassed;
}

KERNEL_ENTRY_POINTS(opt, Opt)
