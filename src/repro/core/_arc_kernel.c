/*
 * ARC's replacement state and its per-request loop (Megiddo & Modha,
 * FAST '03, Algorithm "ARC(c)").
 *
 * One Arc handle holds the state of one ARCPolicy instance: the cached
 * lists T1 and T2, the ghost lists B1 and B2, each least recently used
 * first, and the adaptation parameter p.  One page table covers the nodes
 * of all four lists (at most 2c), and each node's tag names its list.
 *
 * p is a double updated with the same operations as the Python reference,
 * in the same order, so it rounds the same (the library is built with
 * -ffp-contract=off): the ghost-hit division, min/max against c and 0, and
 * the comparisons len(T1) > p and len(T1) == int(p).
 */
#include "_kernel.h"

enum { T1, T2, B1, B2 };

typedef struct {
    int64_t capacity;
    double p;
    Node *nodes;
    int32_t free;
    Table table;
    List list[4];
} Arc;

void arc_free(Arc *c)
{
    if (c == NULL) {
        return;
    }
    free(c->nodes);
    free(c->table.slots);
    free(c);
}

/* A handle for *capacity* pages; NULL when out of memory or too large. */
Arc *arc_new(int64_t capacity)
{
    Arc *c;
    int k;
    if (capacity < 1 || capacity >= ((int64_t)1 << 28)) {
        return NULL;
    }
    c = calloc(1, sizeof(Arc));
    if (c == NULL) {
        return NULL;
    }
    c->capacity = capacity;
    for (k = 0; k < 4; k++) {
        list_init(&c->list[k]);
    }
    c->nodes = free_chain(2 * capacity);
    if (c->nodes == NULL || table_init(&c->table, 2 * capacity)) {
        arc_free(c);
        return NULL;
    }
    return c;
}

int64_t arc_len(const Arc *c)
{
    return c->list[T1].size + c->list[T2].size;
}

int arc_contains(const Arc *c, int64_t page)
{
    const int32_t n = table_find(&c->table, page);
    return n != NONE && c->nodes[n].tag <= T2;
}

/* Write the cached pages, T1 then T2, each least recently used first. */
void arc_pages(const Arc *c, int64_t *out)
{
    int k;
    for (k = T1; k <= T2; k++) {
        int32_t n;
        for (n = c->list[k].head; n != NONE; n = c->nodes[n].next) {
            *out++ = c->nodes[n].page;
        }
    }
}

/* The adaptation parameter p: the target size of T1. */
double arc_p(const Arc *c)
{
    return c->p;
}

/* Move node n from its list to the most recent end of list k. */
static void move_to(Arc *c, int32_t n, int k)
{
    list_unlink(c->nodes, &c->list[c->nodes[n].tag], n);
    c->nodes[n].tag = k;
    list_append(c->nodes, &c->list[k], n);
}

/* Forget the least recently used page of list k (it leaves the table). */
static void drop_head(Arc *c, int k)
{
    const int32_t n = c->list[k].head;
    list_unlink(c->nodes, &c->list[k], n);
    table_remove(&c->table, c->nodes[n].page);
    node_give(c->nodes, &c->free, n);
}

/* REPLACE(x, p): demote the least recently used page of T1 or T2 to its
 * ghost list; returns the demoted (evicted) page. */
static int64_t replace(Arc *c, int in_b2)
{
    const int64_t t1 = c->list[T1].size;
    int32_t n;
    if (t1 && ((double)t1 > c->p || (in_b2 && t1 == (int64_t)c->p))) {
        n = c->list[T1].head;
        move_to(c, n, B1);
    } else {
        n = c->list[T2].head;
        move_to(c, n, B2);
    }
    return c->nodes[n].page;
}

/* Step request i (reads page). */
STEP arc_step(Arc *c, const Columns *columns, const int64_t *lookup, int64_t i,
              int64_t *evictions)
{
    const int64_t p = columns->page[i];
    const int64_t capacity = c->capacity;
    List *t1 = &c->list[T1], *t2 = &c->list[T2];
    List *b1 = &c->list[B1], *b2 = &c->list[B2];
    int64_t *evicted = columns->evicted;
    const int32_t node = table_find(&c->table, p);
    const int tag = node == NONE ? NONE : c->nodes[node].tag;
    uint8_t hit = 0;
    (void)lookup;
    if (tag == T1 || tag == T2) {
        /* Case I: hit in T1 or T2 -> move to MRU of T2. */
        move_to(c, node, T2);
        hit = 1;
    } else if (tag == B1) {
        /* Case II: ghost hit in B1 -> favour recency (grow p). */
        const double delta =
            b1->size >= b2->size ? 1.0 : (double)b2->size / (double)b1->size;
        const double grown = c->p + delta;
        c->p = (double)capacity < grown ? (double)capacity : grown;
        evicted[(*evictions)++] = replace(c, 0);
        move_to(c, node, T2);
    } else if (tag == B2) {
        /* Case III: ghost hit in B2 -> favour frequency (shrink p). */
        const double delta =
            b2->size >= b1->size ? 1.0 : (double)b1->size / (double)b2->size;
        const double shrunk = c->p - delta;
        c->p = 0.0 > shrunk ? 0.0 : shrunk;
        evicted[(*evictions)++] = replace(c, 1);
        move_to(c, node, T2);
    } else {
        /* Case IV: complete miss. */
        const int64_t l1 = t1->size + b1->size;
        const int64_t l2 = t2->size + b2->size;
        int32_t fresh;
        if (l1 == capacity) {
            if (t1->size < capacity) {
                drop_head(c, B1);
                evicted[(*evictions)++] = replace(c, 0);
            } else {
                /* B1 is empty; evict the LRU page of T1 directly. */
                evicted[(*evictions)++] = c->nodes[t1->head].page;
                drop_head(c, T1);
            }
        } else if (l1 < capacity && l1 + l2 >= capacity) {
            if (l1 + l2 == 2 * capacity) {
                drop_head(c, B2);
            }
            evicted[(*evictions)++] = replace(c, 0);
        }
        fresh = node_take(c->nodes, &c->free);
        c->nodes[fresh].page = p;
        c->nodes[fresh].tag = T1;
        table_insert(&c->table, p, fresh);
        list_append(c->nodes, t1, fresh);
    }
    columns->hit[i] = hit;
    columns->admitted[i] = (uint8_t)!hit;
    columns->bypassed[i] = 0;
}

KERNEL_ENTRY_POINTS(arc, Arc)
