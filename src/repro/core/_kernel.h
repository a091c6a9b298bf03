/*
 * Structures shared by the policy kernels of repro's C library.
 *
 * Every kernel keeps its cached pages (and ghosts or outqueue entries) as
 * Nodes in one fixed array, linked into index-based lists, with unused
 * nodes on a free chain, and finds a page's node through an open-addressing
 * page table.  Everything here is static inline, so each kernel's source
 * compiles its own copy, and the library exports only the kernels' entry
 * points, which KERNEL_ENTRY_POINTS defines around each kernel's step.
 */
#ifndef REPRO_KERNEL_H
#define REPRO_KERNEL_H

#include <stdint.h>
#include <stdlib.h>

#define NONE (-1)

/* A page's node: its page id, a per-kernel int64 (CLIC's seq(p), TQ's
 * enqueue seq, OPT's next read) and int32 tag (CLIC's hint id, the list an
 * ARC or TQ page is on), and its list links. */
typedef struct {
    int64_t page;
    int64_t seq;
    int32_t tag;
    int32_t prev;
    int32_t next;
} Node;

/* An index-linked list of Nodes, oldest (head) to newest (tail). */
typedef struct {
    int32_t head;
    int32_t tail;
    int64_t size;
} List;

/* Open-addressing slot: page -> node index, NONE when empty. */
typedef struct {
    int64_t page;
    int32_t node;
} Slot;

/* Linear probing with backward-shift deletion (no tombstones).  A page's
 * home slot comes from its low 32 bits, which is all that page ids in
 * traces use; pages that differ only above bit 31 share a home slot. */
typedef struct {
    Slot *slots;
    uint32_t mask;
    int shift;
} Table;

/* A chunk's columns, one entry per request: inputs page, write (0/1), hint
 * (an index into the chunk's hint table), seq and, for a sharded cluster,
 * shard (the shard each request is routed to); the kernel's lookup column,
 * read through hint (CLIC's hint id and TQ's write class of each hint-table
 * entry) or through seq (OPT's next read of each seq), and for a cluster
 * lookups, each shard's lookup column; outputs hit, admitted and bypassed
 * (0/1), and the CSR eviction columns -- offsets[i + 1] counts the
 * evictions of requests [0, i], and the evicted pages follow each other in
 * evicted (at most one per request).  A kernel reads only the inputs it
 * needs. */
typedef struct {
    const int64_t *page;
    const uint8_t *write;
    const int64_t *hint;
    const int64_t *seq;
    const int64_t *lookup;
    const int64_t *shard;
    const int64_t *const *lookups;
    uint8_t *hit;
    uint8_t *admitted;
    uint8_t *bypassed;
    int64_t *offsets;
    int64_t *evicted;
} Columns;

/* A kernel's per-request step, inlined into both of its entry points: a
 * step is most of its loop's body, and called from two places a compiler
 * may keep a large one out of line, which costs up to ~15% per request. */
#define STEP static inline __attribute__((always_inline)) void

/* A kernel's two chunk entry points, around its per-request step
 *
 *     STEP k_step(K *c, const Columns *columns, const int64_t *lookup,
 *                 int64_t i, int64_t *evictions);
 *
 * which steps request i on c, reading the kernel's lookup column through
 * *lookup*, writes the request's flags and appends its evicted page at
 * evicted[*evictions].  k_replay steps the n requests of a chunk on one
 * handle, with columns->lookup; k_cluster steps each request i of a sharded
 * cluster's chunk on the handle shards[shard[i]], with lookups[shard[i]],
 * and so writes the whole cluster's outputs in request order.  Each copies
 * the columns to a local first: the flag writes may alias anything, and a
 * local whose address never escapes the inlined step stays in registers. */
#define KERNEL_ENTRY_POINTS(k, K)                                              \
    void k##_replay(K *c, int64_t n, const Columns *columns)                   \
    {                                                                          \
        const Columns local = *columns;                                        \
        int64_t evictions = 0;                                                 \
        int64_t i;                                                             \
        local.offsets[0] = 0;                                                  \
        for (i = 0; i < n; i++) {                                              \
            k##_step(c, &local, local.lookup, i, &evictions);                  \
            local.offsets[i + 1] = evictions;                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    void k##_cluster(K *const *shards, int64_t n, const Columns *columns)      \
    {                                                                          \
        const Columns local = *columns;                                        \
        int64_t evictions = 0;                                                 \
        int64_t i;                                                             \
        local.offsets[0] = 0;                                                  \
        for (i = 0; i < n; i++) {                                              \
            const int64_t s = local.shard[i];                                  \
            k##_step(shards[s], &local, local.lookups[s], i, &evictions);      \
            local.offsets[i + 1] = evictions;                                  \
        }                                                                      \
    }

/* ------------------------------------------------------------ page tables */

/* A table with room for *entries* pages; returns 0, or -1 when out of
 * memory or too large. */
static inline int table_init(Table *t, int64_t entries)
{
    int bits = 4;
    size_t size, i;
    while (((int64_t)1 << bits) < 2 * entries) {
        bits++;
    }
    if (bits > 31) {
        return -1;
    }
    size = (size_t)1 << bits;
    t->slots = malloc(size * sizeof(Slot));
    if (t->slots == NULL) {
        return -1;
    }
    for (i = 0; i < size; i++) {
        t->slots[i].node = NONE;
    }
    t->mask = (uint32_t)(size - 1);
    t->shift = 32 - bits;
    return 0;
}

static inline uint32_t home_slot(const Table *t, int64_t page)
{
    return ((uint32_t)(uint64_t)page * 0x9E3779B1u) >> t->shift;
}

static inline int32_t table_find(const Table *t, int64_t page)
{
    uint32_t i = home_slot(t, page);
    for (;;) {
        const Slot *slot = &t->slots[i];
        if (slot->node == NONE || slot->page == page) {
            return slot->node;
        }
        i = (i + 1) & t->mask;
    }
}

/* Insert a page that is not in the table. */
static inline void table_insert(Table *t, int64_t page, int32_t node)
{
    uint32_t i = home_slot(t, page);
    while (t->slots[i].node != NONE) {
        i = (i + 1) & t->mask;
    }
    t->slots[i].page = page;
    t->slots[i].node = node;
}

/* Remove a page that is in the table, shifting its probe run back. */
static inline void table_remove(Table *t, int64_t page)
{
    uint32_t hole = home_slot(t, page);
    uint32_t j;
    while (t->slots[hole].page != page || t->slots[hole].node == NONE) {
        hole = (hole + 1) & t->mask;
    }
    j = hole;
    for (;;) {
        uint32_t home;
        j = (j + 1) & t->mask;
        if (t->slots[j].node == NONE) {
            break;
        }
        home = home_slot(t, t->slots[j].page);
        /* The entry at j probed from its home past the hole unless its
         * home lies cyclically in (hole, j]; then it must fill the hole. */
        if (((j - home) & t->mask) >= ((j - hole) & t->mask)) {
            t->slots[hole] = t->slots[j];
            hole = j;
        }
    }
    t->slots[hole].node = NONE;
}

/* ----------------------------------------------------------------- lists */

static inline void list_init(List *list)
{
    list->head = list->tail = NONE;
    list->size = 0;
}

static inline void list_append(Node *nodes, List *list, int32_t n)
{
    Node *node = &nodes[n];
    node->prev = list->tail;
    node->next = NONE;
    if (list->tail == NONE) {
        list->head = n;
    } else {
        nodes[list->tail].next = n;
    }
    list->tail = n;
    list->size++;
}

static inline void list_prepend(Node *nodes, List *list, int32_t n)
{
    Node *node = &nodes[n];
    node->prev = NONE;
    node->next = list->head;
    if (list->head == NONE) {
        list->tail = n;
    } else {
        nodes[list->head].prev = n;
    }
    list->head = n;
    list->size++;
}

static inline void list_unlink(Node *nodes, List *list, int32_t n)
{
    const Node *node = &nodes[n];
    if (node->prev == NONE) {
        list->head = node->next;
    } else {
        nodes[node->prev].next = node->next;
    }
    if (node->next == NONE) {
        list->tail = node->prev;
    } else {
        nodes[node->next].prev = node->prev;
    }
    list->size--;
}

/* ----------------------------------------------------------- free chains */

/* *n* nodes chained through next, first free node 0 (NONE when n is 0);
 * NULL when out of memory. */
static inline Node *free_chain(int64_t n)
{
    Node *nodes = malloc((size_t)(n > 0 ? n : 1) * sizeof(Node));
    int64_t i;
    if (nodes == NULL) {
        return NULL;
    }
    for (i = 0; i < n; i++) {
        nodes[i].next = i + 1 < n ? (int32_t)(i + 1) : NONE;
    }
    return nodes;
}

/* Take the first node of the free chain starting at *chain. */
static inline int32_t node_take(Node *nodes, int32_t *chain)
{
    const int32_t n = *chain;
    *chain = nodes[n].next;
    return n;
}

/* Return node n to the free chain starting at *chain. */
static inline void node_give(Node *nodes, int32_t *chain, int32_t n)
{
    nodes[n].next = *chain;
    *chain = n;
}

#endif
