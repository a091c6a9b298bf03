/*
 * TQ's replacement state and its per-request loop (Li et al., FAST '05).
 *
 * One Tq handle holds the state of one TQPolicy instance: one page table
 * and two queues, each least recently used first -- the high queue of
 * pages whose latest request was a replacement write, each node holding
 * its enqueue seq, and the low queue of everything else.  A node's tag
 * names its queue.  High-queue pages older than the lifetime are demoted
 * to the cold end of the low queue before each request.
 *
 * A request's write class depends only on its hint set, so Python computes
 * it once per hint-table entry; the kernel reads it as lookup[hint[i]] for
 * writes (reads are always OTHER).
 */
#include "_kernel.h"

enum { OTHER, REPLACEMENT, RECOVERY };
enum { LOW, HIGH };

typedef struct {
    int64_t capacity;
    int64_t lifetime;
    int bypass_recovery;
    Node *nodes;
    int32_t free;
    Table table;
    List queue[2];
} Tq;

void tq_free(Tq *c)
{
    if (c == NULL) {
        return;
    }
    free(c->nodes);
    free(c->table.slots);
    free(c);
}

/* A handle for *capacity* pages whose replacement-written pages stay in
 * the high queue for *lifetime* requests, bypassing recovery writes when
 * *bypass_recovery*; NULL when out of memory or too large. */
Tq *tq_new(int64_t capacity, int64_t lifetime, int bypass_recovery)
{
    Tq *c;
    if (capacity < 1 || capacity >= ((int64_t)1 << 29)) {
        return NULL;
    }
    c = calloc(1, sizeof(Tq));
    if (c == NULL) {
        return NULL;
    }
    c->capacity = capacity;
    c->lifetime = lifetime;
    c->bypass_recovery = bypass_recovery;
    list_init(&c->queue[LOW]);
    list_init(&c->queue[HIGH]);
    c->nodes = free_chain(capacity);
    if (c->nodes == NULL || table_init(&c->table, capacity)) {
        tq_free(c);
        return NULL;
    }
    return c;
}

int64_t tq_len(const Tq *c)
{
    return c->queue[LOW].size + c->queue[HIGH].size;
}

int tq_contains(const Tq *c, int64_t page)
{
    return table_find(&c->table, page) != NONE;
}

/* Write the cached pages, the low queue then the high queue, each least
 * recently used first. */
void tq_pages(const Tq *c, int64_t *out)
{
    int k;
    for (k = LOW; k <= HIGH; k++) {
        int32_t n;
        for (n = c->queue[k].head; n != NONE; n = c->nodes[n].next) {
            *out++ = c->nodes[n].page;
        }
    }
}

/* Step request i (reads page, write, hint and seq, and through hint the
 * lookup column, the write class of each hint-table entry). */
STEP tq_step(Tq *c, const Columns *columns, const int64_t *lookup, int64_t i,
             int64_t *evictions)
{
    List *high = &c->queue[HIGH], *low = &c->queue[LOW];
    Node *nodes = c->nodes;
    const int64_t p = columns->page[i];
    const int64_t s = columns->seq[i];
    const int64_t klass = columns->write[i] ? lookup[columns->hint[i]] : OTHER;
    int32_t node = table_find(&c->table, p);
    uint8_t hit = 0, admitted = 0, bypassed = 0;

    /* Replacement-written pages never read back lose their protection
     * and become the low queue's coldest entries. */
    while (high->size) {
        const int32_t oldest = high->head;
        if (s - nodes[oldest].seq <= c->lifetime) {
            break;
        }
        list_unlink(nodes, high, oldest);
        nodes[oldest].tag = LOW;
        list_prepend(nodes, low, oldest);
    }

    if (node != NONE) {
        /* Re-queue according to the class of the most recent request. */
        list_unlink(nodes, &c->queue[nodes[node].tag], node);
        hit = 1;
    } else if (klass == RECOVERY && c->bypass_recovery) {
        bypassed = 1;
    } else {
        if (high->size + low->size >= c->capacity) {
            List *from = low->size ? low : high;
            node = from->head;
            list_unlink(nodes, from, node);
            table_remove(&c->table, nodes[node].page);
            columns->evicted[(*evictions)++] = nodes[node].page;
        } else {
            node = node_take(nodes, &c->free);
        }
        nodes[node].page = p;
        table_insert(&c->table, p, node);
        admitted = 1;
    }
    if (!bypassed) {
        if (klass == REPLACEMENT) {
            nodes[node].seq = s;
            nodes[node].tag = HIGH;
            list_append(nodes, high, node);
        } else {
            nodes[node].tag = LOW;
            list_append(nodes, low, node);
        }
    }
    columns->hit[i] = hit;
    columns->admitted[i] = admitted;
    columns->bypassed[i] = bypassed;
}

KERNEL_ENTRY_POINTS(tq, Tq)
