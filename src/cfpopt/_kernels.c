/* Row sweeps and the QPS scan of cfpopt._kernels, compiled on first use and
 * loaded by ctypes.
 *
 * Each sweep has a numpy twin in _kernels.py that takes the same arguments
 * and computes the same bits: the same branch order and the same operation
 * order in every update, and every dot product summed left to right from
 * 0.0.  Build with -ffp-contract=off and without -ffast-math, so that no
 * multiply-add is fused and no sum is reordered.  cfp_qps_scan, at the end
 * of this file, reads QPS text: it numbers each call's distinct name tokens
 * in a hash table and converts the numbers as Python's float does, exactly
 * in 64- and 128-bit integers where it can (number()).  The sweep comments
 * below do not concern it, and its reference is the Python reader of
 * cfpopt.qps.
 *
 * A is row-major m x n; lo, hi, norm2 and coord have m entries; q, xend and
 * x have n entries, and x is updated in place.  A moved row steps x by
 * -coef * h with coef >= 0 off its violated side h . y <= beta (h = A_i,
 * beta = hi_i above the row's interval; h = -A_i, beta = -lo_i below it).  Both passes store the sums of
 * coef * (beta + tol), coef * (|beta| + tol) and coef * |h| over their moved
 * rows in out[0], out[1] and out[2], for the emptiness test of the caller
 * (feasibility.py), and the number of rows they evaluated in out[3].
 *
 * Both passes screen their rows.  Row i owns screen[5i .. 5i+5): its
 * violation v_i = max(r - hi_i, lo_i - r) at its last evaluation, the path
 * sum then (v_i = +inf before the first one), |A_i|_2 computed from A,
 * |A_i|_1 + |A_i|_2, and the larger finite one of |lo_i|, |hi_i| (plus a
 * floor).  path[0] is the path sum P of the solve, which every step adds
 * coef * |h|_2 to (the passes add it for their moves), path[1] is |x0|_2 and
 * path[2] the relative slack rel of the margin, whose bound is derived at
 * screen_rtol in _kernels.py.
 *
 * A row whose only nonzero entry is in column j = coord[i] (a box row, or
 * any singleton row) is screened by how far x_j alone has moved: its path
 * sum is q[j], where q is the binding's per-coordinate path.  Each pass
 * first adds |x - xend| to q, xend being x at the end of the binding's last
 * pass, so q takes every change of x made outside the pass; each move adds
 * |fl(coef a_ik)| to q[k]; and the pass ends by copying x to xend.  A row
 * with more than one nonzero entry has coord[i] = -1 and the path sum P.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static double row_dot(const double *a, const double *x, int64_t n)
{
    double r = 0.0;
    for (int64_t j = 0; j < n; j++)
        r += a[j] * x[j];
    return r;
}

/* x -= coef * a, adding the length of each coordinate's step to q */
static void row_sub(double *x, double *q, double coef, const double *a, int64_t n)
{
    for (int64_t j = 0; j < n; j++) {
        double d = coef * a[j];
        x[j] -= d;
        q[j] += fabs(d);
    }
}

/* x += coef * a, adding the length of each coordinate's step to q */
static void row_add(double *x, double *q, double coef, const double *a, int64_t n)
{
    for (int64_t j = 0; j < n; j++) {
        double d = coef * a[j];
        x[j] += d;
        q[j] += fabs(d);
    }
}

/* q += |x - xend|: the moves of x since the binding's last pass ended */
static void catch_up(double *q, const double *xend, const double *x, int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        q[j] += fabs(x[j] - xend[j]);
}

static void copy_x(double *xend, const double *x, int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        xend[j] = x[j];
}

/* True when the screen state s of a row proves it satisfied at path sum P:
 * v_i + |A_i|_2 (P - P_i) + margin <= tol.  The row would then measure
 * itself satisfied, in either pass's test, and make no move, so skipping it
 * changes no bit of x, of the moves, of the sums or of whether the pass
 * certifies. */
static int screened(const double *s, double P, double x0n, double rel, double tol)
{
    double bound = s[0] + s[2] * (P - s[1]);
    bound += rel * (s[3] * (x0n + P) + s[2] * P + fabs(s[0]) + s[4]);
    return bound <= tol;
}

/* True when the screen state s of row i, whose nonzero entries are all in
 * column j (j = coord[i]; j = -1 for any other row), proves it satisfied.
 * Sets *at to the path sum it reads, which an evaluation records: q[j] for
 * such a row, tested as v_i + |a_ij| (q[j] - Q_i) + margin <= tol with the
 * margin derived at screen_rtol, and P for any other row. */
static int screen_row(const double *s, int64_t j, const double *q, double P, double x0n,
                      double rel, double tol, double *at)
{
    if (j < 0) {
        *at = P;
        return screened(s, P, x0n, rel, tol);
    }
    double Q = *at = q[j];
    double bound = s[0] + s[2] * (Q - s[1]);
    bound += rel * (s[2] * Q + fabs(s[0]) + s[4]);
    return bound <= tol;
}

/* One cyclic pass of relaxed projections onto lo_i <= A_i . x <= hi_i.
 * Returns the number of rows whose violation exceeded tol (each of which
 * moved x), and stores out[0..3] and the largest violation among the rows
 * evaluated in out[4].  A row the screen proves satisfied is skipped. */
int64_t cfp_cspm_sweep(const double *A, const double *lo, const double *hi,
                       const double *norm2, double *screen, double *path,
                       const int64_t *coord, double *q, double *xend, double *x,
                       int64_t m, int64_t n, double lam, double tol, double *out)
{
    double vmax = 0.0;
    double b = 0.0, size = 0.0, steps = 0.0;
    double P = path[0];
    const double x0n = path[1], rel = path[2];
    int64_t moves = 0, seen = 0;
    catch_up(q, xend, x, n);
    for (int64_t i = 0; i < m; i++) {
        double *s = screen + 5 * i;
        double at;
        if (screen_row(s, coord[i], q, P, x0n, rel, tol, &at))
            continue;
        seen++;
        const double *a = A + i * n;
        double r = row_dot(a, x, n);
        double over = r - hi[i];
        double under = lo[i] - r;
        double v = over >= under ? over : under;
        s[0] = v;
        s[1] = at;
        if (v > vmax)
            vmax = v;
        if (v > tol) {
            moves++;
            double coef = lam * v / norm2[i];
            double beta;
            if (over >= under) {
                row_sub(x, q, coef, a, n);
                beta = hi[i];
            } else {
                row_add(x, q, coef, a, n);
                beta = -lo[i];
            }
            b += coef * (beta + tol);
            size += coef * (fabs(beta) + tol);
            steps += coef * sqrt(norm2[i]);
            P += coef * s[2];
        }
    }
    copy_x(xend, x, n);
    path[0] = P;
    out[0] = b;
    out[1] = size;
    out[2] = steps;
    out[3] = (double)seen;
    out[4] = vmax;
    return moves;
}

/* One ART3+ pass over the row indices in queue[0..nq).  Writes the indices
 * violated at their visit to kept, stores out[0..3] and returns how many
 * rows it kept, or -1, before touching anything, when a queue entry is
 * outside [0, m).  kept may be queue: kept[j] is written only once queue[j]
 * has been read.
 *
 * A row is satisfied when lo_i - tol <= A_i . x <= hi_i + tol; a violated
 * row reflects or projects onto the midline.  A row the screen proves
 * satisfied is skipped, as if it had been found satisfied. */
int64_t cfp_art3_pass(const double *A, const double *lo, const double *hi,
                      const double *norm2, double *screen, double *path,
                      const int64_t *coord, double *q, double *xend, double *x,
                      int64_t m, int64_t n, const int64_t *queue, int64_t nq, double tol,
                      int64_t *kept, double *out)
{
    for (int64_t qi = 0; qi < nq; qi++)
        if (queue[qi] < 0 || queue[qi] >= m)
            return -1;
    double b = 0.0, size = 0.0, steps = 0.0;
    double P = path[0];
    const double x0n = path[1], rel = path[2];
    int64_t nk = 0, seen = 0;
    catch_up(q, xend, x, n);
    for (int64_t qi = 0; qi < nq; qi++) {
        int64_t i = queue[qi];
        double *s = screen + 5 * i;
        double at;
        if (screen_row(s, coord[i], q, P, x0n, rel, tol, &at))
            continue;
        seen++;
        const double *a = A + i * n;
        double r = row_dot(a, x, n);
        double over = r - hi[i];
        double under = lo[i] - r;
        s[0] = over >= under ? over : under;
        s[1] = at;
        if (lo[i] - tol <= r && r <= hi[i] + tol)
            continue;
        kept[nk++] = i;
        double width = hi[i] - lo[i];
        double coef, beta;
        if (r > hi[i]) {
            /* reflect across the upper face, or project onto the midline */
            coef = over <= width ? 2.0 * over / norm2[i]
                                 : (r - 0.5 * (lo[i] + hi[i])) / norm2[i];
            row_sub(x, q, coef, a, n);
            beta = hi[i];
        } else {
            coef = under <= width ? 2.0 * under / norm2[i]
                                  : (0.5 * (lo[i] + hi[i]) - r) / norm2[i];
            row_add(x, q, coef, a, n);
            beta = -lo[i];
        }
        b += coef * (beta + tol);
        size += coef * (fabs(beta) + tol);
        steps += coef * sqrt(norm2[i]);
        P += coef * s[2];
    }
    copy_x(xend, x, n);
    path[0] = P;
    out[0] = b;
    out[1] = size;
    out[2] = steps;
    out[3] = (double)seen;
    return nk;
}

/* ---- QPS scan -------------------------------------------------------- */

/* The scan's modes: QPS_SKIP for a section whose lines it only counts, and
 * the two forms of data line it converts to entries.  qps_scan in
 * _kernels.py maps the section names to these. */
enum { QPS_SKIP, QPS_PAIRS, QPS_QUAD };

/* A token byte: printable ASCII but '*' (a comment mark).  A plain line is
 * token bytes, spaces and tabs, ended by '\n', "\r\n" or the buffer's end. */
static int token_byte(unsigned char c)
{
    return c > ' ' && c < 0x7f && c != '*';
}

/* The next token at or after *p on the line, or 0 when the line ends; moves
 * *p past the token, or past the line's break.  Sets *bad when a byte is
 * neither a token byte, a space, a tab nor part of a line break. */
static int next_token(const char **p, const char *end, const char **tok, int64_t *len, int *bad)
{
    const char *q = *p;
    while (q < end && (*q == ' ' || *q == '\t'))
        q++;
    if (q == end || *q == '\n' || *q == '\r') {
        if (q < end && *q == '\r') {
            if (q + 1 == end || q[1] != '\n') {
                *bad = 1;
                return 0;
            }
            q++;
        }
        *p = q < end ? q + 1 : q;
        return 0;
    }
    *tok = q;
    while (q < end && token_byte((unsigned char)*q))
        q++;
    if (q == *tok || (q < end && *q != ' ' && *q != '\t' && *q != '\n' && *q != '\r')) {
        *bad = 1;
        return 0;
    }
    *len = q - *tok;
    *p = q;
    return 1;
}

#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 u128;

/* 10^0 .. 10^19 and 5^0 .. 5^27: the powers that fit in 64 bits */
static const uint64_t POW10[20] = {
    1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull, 100000000ull,
    1000000000ull, 10000000000ull, 100000000000ull, 1000000000000ull, 10000000000000ull,
    100000000000000ull, 1000000000000000ull, 10000000000000000ull, 100000000000000000ull,
    1000000000000000000ull, 10000000000000000000ull};
static const uint64_t POW5[28] = {
    1ull, 5ull, 25ull, 125ull, 625ull, 3125ull, 15625ull, 78125ull, 390625ull, 1953125ull,
    9765625ull, 48828125ull, 244140625ull, 1220703125ull, 6103515625ull, 30517578125ull,
    152587890625ull, 762939453125ull, 3814697265625ull, 19073486328125ull, 95367431640625ull,
    476837158203125ull, 2384185791015625ull, 11920928955078125ull, 59604644775390625ull,
    298023223876953125ull, 1490116119384765625ull, 7450580596923828125ull};

/* The double nearest to (m + f) * 2^b, ties to even, for an m > 0 and a
 * fraction 0 <= f < 1 that is nonzero when sticky is set (m then has more
 * than 53 bits); the result must be a normal double. */
static double nearest(u128 m, int sticky, int64_t b)
{
    uint64_t hi = (uint64_t)(m >> 64), lo = (uint64_t)m;
    int top = hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll(lo);
    uint64_t mant;
    if (top > 53) {
        int drop = top - 53;
        u128 rest = m & (((u128)1 << drop) - 1), half = (u128)1 << (drop - 1);
        mant = (uint64_t)(m >> drop);
        if (rest > half || (rest == half && (sticky || (mant & 1))))
            mant++;
        b += drop;
        if (mant >> 53) {
            mant >>= 1;
            b++;
        }
    } else {
        mant = lo << (53 - top);
        b -= 53 - top;
    }
    /* mant is in [2^52, 2^53): the value is 1.f * 2^(b + 52) */
    uint64_t bits = ((uint64_t)(b + 52 + 1023) << 52) | (mant & ((1ull << 52) - 1));
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}
#endif

/* Sets *v to the value of the token s[0..n) and returns 1 when it reads
 * [+-]?(d+[.d*]|.d+)([eE][+-]?d+)? to a finite value; else returns 0.  The
 * value is the double nearest to the decimal's, as strtod and Python's float
 * read it.  A token of w * 10^e, w an integer of at most 19 significant
 * digits and -27 <= e <= 19, is converted exactly in integers (Clinger,
 * "How to read floating point numbers accurately", PLDI 1990): w * 10^e
 * rounded for e >= 0, else (w << S) / 5^-e with a sticky remainder; both
 * land in the normal range.  Any other token goes to strtod, which must take
 * all of it: the byte after the token is a space, a tab, a line break or the
 * buffer's NUL, so it stops there. */
static int number(const char *s, int64_t n, double *v)
{
    const char *p = s, *e = s + n;
    int neg = 0;
    int64_t digits = 0, sig = 0, scale = 0;
    uint64_t w = 0;
    if (p < e && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    for (; p < e && *p >= '0' && *p <= '9'; p++, digits++)
        if ((sig || *p != '0') && ++sig <= 19)
            w = 10 * w + (uint64_t)(*p - '0');
    if (p < e && *p == '.')
        for (p++; p < e && *p >= '0' && *p <= '9'; p++, digits++, scale--)
            if ((sig || *p != '0') && ++sig <= 19)
                w = 10 * w + (uint64_t)(*p - '0');
    if (digits == 0)
        return 0;
    int64_t x = 0;
    if (p < e && (*p == 'e' || *p == 'E')) {
        int xneg = 0;
        p++;
        if (p < e && (*p == '+' || *p == '-'))
            xneg = *p++ == '-';
        const char *d = p;
        for (; p < e && *p >= '0' && *p <= '9'; p++)
            if (x < 100000)
                x = 10 * x + (*p - '0');
        if (p == d)
            return 0;
        if (xneg)
            x = -x;
    }
    if (p != e)
        return 0;
#ifdef __SIZEOF_INT128__
    int64_t e10 = x + scale;  /* the value is w * 10^e10 */
    if (sig <= 19 && (w == 0 || (e10 >= -27 && e10 <= 19))) {
        double a = 0.0;
        if (w != 0 && e10 >= 0) {
            a = nearest((u128)w * POW10[e10], 0, 0);
        } else if (w != 0) {
            /* with f = 5^-e10 and S = 63 + bits(f) - bits(w), the quotient q
             * of w << S by f has 63 or 64 bits, and w * 10^e10 is
             * (q + r / f) * 2^(e10 - S) */
            uint64_t f = POW5[-e10];
            int S = 63 + __builtin_clzll(w) - __builtin_clzll(f);
            u128 num = (u128)w << S;
            uint64_t q = (uint64_t)(num / f);
            a = nearest(q, (uint64_t)num - q * f != 0, e10 - S);
        }
        *v = neg ? -a : a;
        return 1;
    }
#else
    (void)neg;  /* strtod reads the sign itself */
#endif
    char *stop;
    *v = strtod(s, &stop);
    return stop == e && isfinite(*v);
}

/* The slot of the name token s[0..n) of buf in a name table: the slot that
 * holds the name's id + 1, or the empty slot (0) where the name would go.
 * The table has mask + 1 slots, a power of two at least twice the names it
 * holds, and names[2 i], names[2 i + 1] are the span of the name with id i. */
static uint64_t name_slot(const char *buf, const char *s, int64_t n, const int64_t *table,
                          uint64_t mask, const int64_t *names)
{
    uint64_t h = 14695981039346656037ull;  /* FNV-1a */
    for (int64_t i = 0; i < n; i++)
        h = (h ^ (unsigned char)s[i]) * 1099511628211ull;
    for (uint64_t j = (h ^ (h >> 32)) & mask;; j = (j + 1) & mask) {
        int64_t id = table[j] - 1;
        if (id < 0 || (names[2 * id + 1] - names[2 * id] == n
                       && memcmp(buf + names[2 * id], s, (size_t)n) == 0))
            return j;
    }
}

/* Scan the lines of buf[pos..size) up to the first header line (one whose
 * first byte is not a space, a tab or a line break), or until a room is
 * full.  buf[size] must be readable and not a digit (a Python bytes object
 * ends in a NUL).
 *
 * In the modes but QPS_SKIP each data line is converted to entries:
 *   QPS_PAIRS: 'FIRST NAME VAL [NAME VAL]' (COLUMNS, RHS, RANGES), one
 *     entry per pair;
 *   QPS_QUAD: 'FIRST NAME VAL' (QUADOBJ, QMATRIX), one entry.
 * An entry's ia is the run of its line's FIRST, ib the id of its NAME and
 * val its value.  A run starts at each data line whose FIRST differs from
 * the line before's, and runs[2 r], runs[2 r + 1] receive the span (start
 * and end offsets in buf) of run r's FIRST.  The distinct NAME tokens are
 * numbered from 0 in the order they first appear, through a hash table
 * (table, with room for the least power of two at least 2 room slots), and
 * names[2 i], names[2 i + 1] receive the span of the name with id i.  Names
 * are not resolved: the caller looks them up.
 *
 * The rooms are cap lines, cap entries and room names.  The scan stops
 * before a data line whose entries or new names would not fit, and refuses
 * one that would not fit into an empty call.  out[0] receives the offset
 * where the scan stopped (the header line's start, else the first line not
 * scanned, or size), out[1] the number of lines scanned (the header line
 * among them), out[2] of entries, out[3] of runs, out[4] of names, and
 * out[5] the offset where the next scan starts (after the header line,
 * else out[0]).
 *
 * Returns 1 when it stopped at a header, 0 otherwise, and -1 when it
 * refuses: a byte that is not plain (see token_byte), a token count the
 * mode does not take, a value number() rejects or a line too large for the
 * rooms.  A refused scan leaves its outputs unspecified; the caller reads
 * the lines another way.  ia, ib and val need room for cap entries,
 * runs for 2 cap and names for 2 room. */
int64_t cfp_qps_scan(const char *buf, int64_t size, int64_t pos, int64_t mode, int64_t cap,
                     int64_t room, int64_t *ia, int64_t *ib, double *val,
                     int64_t *runs, int64_t *names, int64_t *table, int64_t *out)
{
    const char *p = buf + pos, *end = buf + size;
    const char *prev = NULL;
    int64_t prev_len = 0, lines = 0, k = 0, r = 0, count = 0;
    int header = 0, bad = 0;
    uint64_t mask = 1;
    while (mask < 2 * (uint64_t)room)
        mask <<= 1;
    if (mode != QPS_SKIP)
        memset(table, 0, mask * sizeof *table);
    mask--;
    while (p < end && !header && lines < cap) {
        const char *start = p;
        const char *tok[5];
        int64_t len[5], nt = 0;
        header = *p != ' ' && *p != '\t' && *p != '\n' && *p != '\r';
        const char *t;
        int64_t n;
        while (next_token(&p, end, &t, &n, &bad)) {
            if (nt < 5) {
                tok[nt] = t;
                len[nt] = n;
            }
            nt++;
        }
        if (bad)
            return -1;
        if (header) {
            lines++;
            out[0] = start - buf;
            out[5] = p - buf;
            break;
        }
        if (mode != QPS_SKIP && nt > 0) {
            if (nt != 3 && (mode == QPS_QUAD || nt != 5))
                return -1;
            int64_t id[2], fresh = 0;
            for (int64_t j = 1; j < nt; j += 2) {
                id[j / 2] = table[name_slot(buf, tok[j], len[j], table, mask, names)] - 1;
                fresh += id[j / 2] < 0;
            }
            if (k + nt / 2 > cap || count + fresh > room) {
                if (k == 0)
                    return -1;
                p = start;
                break;
            }
            if (prev == NULL || prev_len != len[0] || memcmp(prev, tok[0], (size_t)len[0]) != 0) {
                runs[2 * r] = tok[0] - buf;
                runs[2 * r + 1] = tok[0] - buf + len[0];
                r++;
                prev = tok[0];
                prev_len = len[0];
            }
            for (int64_t j = 1; j < nt; j += 2) {
                if (!number(tok[j + 1], len[j + 1], &val[k]))
                    return -1;
                if (id[j / 2] < 0) {
                    /* a new name, unless it is the line's other name; its
                     * slot may have been taken by that name */
                    uint64_t at = name_slot(buf, tok[j], len[j], table, mask, names);
                    if (table[at] == 0) {
                        names[2 * count] = tok[j] - buf;
                        names[2 * count + 1] = tok[j] - buf + len[j];
                        table[at] = ++count;
                    }
                    id[j / 2] = table[at] - 1;
                }
                ia[k] = r - 1;
                ib[k] = id[j / 2];
                k++;
            }
        }
        lines++;
    }
    if (!header)
        out[0] = out[5] = p - buf;
    out[1] = lines;
    out[2] = k;
    out[3] = r;
    out[4] = count;
    return header;
}
