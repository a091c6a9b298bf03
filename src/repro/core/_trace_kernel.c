/*
 * The binary trace format's BLOCK decoder (docs/trace-format.md).
 *
 * A BLOCK body is a run of request records: a flags byte, then the page
 * and the hint-set reference as unsigned LEB128 varints, then, when flags
 * bit 1 is set, an explicit client id (a varint byte count and the UTF-8
 * bytes).  trace_block walks a body once: it writes the page, hint-ref,
 * client-index and write columns and checks the body's structure.  Python
 * turns a failing status and its position into the TraceFormatError
 * message, and decodes the explicit client ids, whose byte spans this walk
 * reports.
 */
#include <stddef.h>
#include <stdint.h>

#define FLAG_WRITE 0x01
#define FLAG_CLIENT_ID 0x02

/* trace_block's statuses, in the order a block reports them: the first
 * record that runs off the body or names an undefined hint set stops the
 * walk; a walk that reaches the end checks the record count, and then
 * that every page fits an int64. */
enum {
    BLOCK_OK = 0,
    BLOCK_RAN_OFF = 1,
    BLOCK_UNDEFINED_HINT = 2,
    BLOCK_COUNT = 3,
    BLOCK_PAGE_OVERFLOW = 4
};

/* Read the varint at body[*pos] into *value and move *pos past it.
 * Returns 0; 1 when the value exceeds 2**63 - 1 (*value is then not the
 * value); -1 when the varint runs off the body's *size* bytes. */
static int varint(const uint8_t *body, int64_t size, int64_t *pos, uint64_t *value)
{
    uint64_t v = 0;
    int64_t p = *pos;
    int shift = 0;
    int wide = 0;
    for (;;) {
        uint8_t byte;
        if (p >= size) {
            return -1;
        }
        byte = body[p++];
        if (shift < 63) {
            v |= (uint64_t)(byte & 0x7F) << shift;
            shift += 7;
        } else if (byte & 0x7F) {
            wide = 1;
        }
        if (!(byte & 0x80)) {
            break;
        }
    }
    *pos = p;
    *value = v;
    return wide;
}

/* Decode the *size*-byte BLOCK body that declares *expected* records,
 * against a hint table of *hints* entries (ref 0, the empty hint set,
 * included) whose client indexes are hint_client.  Each record's page,
 * hint ref, hint set's client index and write bit (0/1) go to page, hint,
 * client and write, which hold size / 3 entries: a record is at least
 * three bytes.  When spans is not NULL, each explicit client id's record
 * index and the start and stop of its bytes go to it, three entries per
 * id.  result receives the records decoded, the position where the walk
 * stopped (the failing field's first byte, else size) and the explicit
 * client ids read. */
int trace_block(const uint8_t *body, int64_t size, int64_t expected, int64_t hints,
                const int64_t *hint_client, int64_t *page, int64_t *hint,
                int64_t *client, uint8_t *write, int64_t *spans, int64_t *result)
{
    int64_t pos = 0;
    int64_t field = 0;
    int64_t n = 0;
    int64_t explicit = 0;
    int status = BLOCK_OK;
    int overflow = 0;
    while (pos < size) {
        const uint8_t flags = body[pos++];
        uint64_t p, ref, length;
        int wide;
        field = pos;
        wide = varint(body, size, &pos, &p);
        if (wide < 0) {
            status = BLOCK_RAN_OFF;
            break;
        }
        overflow |= wide;
        field = pos;
        wide = varint(body, size, &pos, &ref);
        if (wide < 0) {
            status = BLOCK_RAN_OFF;
            break;
        }
        if (wide || ref >= (uint64_t)hints) {
            status = BLOCK_UNDEFINED_HINT;
            break;
        }
        if (flags & FLAG_CLIENT_ID) {
            field = pos;
            if (varint(body, size, &pos, &length) != 0 || length > (uint64_t)(size - pos)) {
                status = BLOCK_RAN_OFF;
                break;
            }
            if (spans != NULL) {
                spans[3 * explicit] = n;
                spans[3 * explicit + 1] = pos;
                spans[3 * explicit + 2] = pos + (int64_t)length;
            }
            explicit++;
            pos += (int64_t)length;
        }
        page[n] = (int64_t)p;
        hint[n] = (int64_t)ref;
        client[n] = hint_client[ref];
        write[n] = flags & FLAG_WRITE;
        n++;
    }
    result[0] = n;
    result[1] = status == BLOCK_OK ? pos : field;
    result[2] = explicit;
    if (status != BLOCK_OK) {
        return status;
    }
    if (n != expected) {
        return BLOCK_COUNT;
    }
    return overflow ? BLOCK_PAGE_OVERFLOW : BLOCK_OK;
}
