/*
 * LRU's replacement state and its per-request loop.
 *
 * One Lru handle holds the state of one LRUPolicy instance: a page table
 * over the cached pages and one recency list, least recently used first.
 * Reads and writes both count as uses and always admit.
 */
#include "_kernel.h"

typedef struct {
    int64_t capacity;
    Node *nodes;
    int32_t free;
    Table table;
    List recency;
} Lru;

void lru_free(Lru *c)
{
    if (c == NULL) {
        return;
    }
    free(c->nodes);
    free(c->table.slots);
    free(c);
}

/* A handle for *capacity* pages; NULL when out of memory or too large. */
Lru *lru_new(int64_t capacity)
{
    Lru *c;
    if (capacity < 1 || capacity >= ((int64_t)1 << 29)) {
        return NULL;
    }
    c = calloc(1, sizeof(Lru));
    if (c == NULL) {
        return NULL;
    }
    c->capacity = capacity;
    list_init(&c->recency);
    c->nodes = free_chain(capacity);
    if (c->nodes == NULL || table_init(&c->table, capacity)) {
        lru_free(c);
        return NULL;
    }
    return c;
}

int64_t lru_len(const Lru *c)
{
    return c->recency.size;
}

int lru_contains(const Lru *c, int64_t page)
{
    return table_find(&c->table, page) != NONE;
}

/* Write the cached pages, least recently used first, to *out*. */
void lru_pages(const Lru *c, int64_t *out)
{
    int32_t n;
    for (n = c->recency.head; n != NONE; n = c->nodes[n].next) {
        *out++ = c->nodes[n].page;
    }
}

/* Step request i (reads page). */
STEP lru_step(Lru *c, const Columns *columns, const int64_t *lookup, int64_t i,
              int64_t *evictions)
{
    const int64_t p = columns->page[i];
    int32_t node = table_find(&c->table, p);
    const int hit = node != NONE;
    (void)lookup;
    if (hit) {
        list_unlink(c->nodes, &c->recency, node);
    } else {
        if (c->recency.size >= c->capacity) {
            node = c->recency.head;
            list_unlink(c->nodes, &c->recency, node);
            table_remove(&c->table, c->nodes[node].page);
            columns->evicted[(*evictions)++] = c->nodes[node].page;
        } else {
            node = node_take(c->nodes, &c->free);
        }
        c->nodes[node].page = p;
        table_insert(&c->table, p, node);
    }
    list_append(c->nodes, &c->recency, node);
    columns->hit[i] = (uint8_t)hit;
    columns->admitted[i] = (uint8_t)!hit;
    columns->bypassed[i] = 0;
}

KERNEL_ENTRY_POINTS(lru, Lru)
