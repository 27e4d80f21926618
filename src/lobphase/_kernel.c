/* Six passes of lobphase, compiled.
 *
 * uniforms writes a stretch of the uniform draws of one Philox4x64-10 stream,
 * numpy's Philox bit for bit: output j is a function of the stream's key and
 * j alone, so a chunk's draws need no generator state.
 *
 * draw splits a chunk of arrivals between the sides and prices each by its
 * side's uniform or piecewise-linear quantile, with the expression and tables
 * of dist.py's quantile objects, so its prices equal the numpy ones bit for
 * bit.
 *
 * match, the arrival loop of match_chunks, mirrors book._match_py step for
 * step: the same tests in the same order, on double heaps (bids negated), so
 * the event log's arrays equal the Python ones bit for bit and the final
 * heaps hold the same book, each a valid heap, though not in heapq's layout.
 * It runs one chunk on the book's own heap arrays, which have room for its
 * arrivals, and updates their lengths nb and na in place.  bins is NULL for
 * the ordinary rule, where arrival i of the chunk has bin i+1.
 *
 * binned is the binned recorder of book._binned_sums, five_bin the pass of
 * book._five_bin_sums and refinement the domination pass of
 * book._refinement_maxima.  Every float sum is added to in the order the
 * numpy pass adds to it, and the build forbids contracting a*b + c into one
 * fused multiply-add, so the sums equal the numpy ones bit for bit.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
 * easy as 1, 2, 3", SC 2011) with the Random123 constants numpy uses.  Its
 * block for counter c and key k is ten rounds; before each round but the
 * first, k moves on by the Weyl increments. */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* the low word of a * b, its high word in *hi */
#ifdef __SIZEOF_INT128__
static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi) {
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}
#else
static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi) {
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
}
#endif

/* The blocks for counters (c, 0, 0, 0) and (c + 1, 0, 0, 0) into w[0..3] and
 * w[4..7], computed side by side so that their multiplies overlap. */
static inline void philox_pair(uint64_t c, uint64_t k0, uint64_t k1, uint64_t w[8]) {
    uint64_t x[8] = {c, 0, 0, 0, c + 1, 0, 0, 0};
    _Pragma("GCC unroll 10")
    for (int r = 0; r < 10; r++) {
        if (r) { k0 += PHILOX_W0; k1 += PHILOX_W1; }
        _Pragma("GCC unroll 2")
        for (int b = 0; b < 8; b += 4) {
            uint64_t hi0, hi1;
            uint64_t lo0 = mulhilo(PHILOX_M0, x[b], &hi0);
            uint64_t lo1 = mulhilo(PHILOX_M1, x[b + 2], &hi1);
            uint64_t x1 = x[b + 1], x3 = x[b + 3];
            x[b] = hi1 ^ x1 ^ k0;
            x[b + 1] = lo1;
            x[b + 2] = hi0 ^ x3 ^ k1;
            x[b + 3] = lo0;
        }
    }
    memcpy(w, x, sizeof x);
}

/* A raw word's double, as numpy's: its top 53 bits times 2^-53. */
static inline double to_unit(uint64_t w) { return (double)(w >> 11) * 0x1.0p-53; }

/* Draws first .. first + n - 1 of the uniform stream keyed (k0, k1) into out.
 * numpy's Philox counts its counter up before each block, from 0, so draw j
 * is word j % 4 of the block for counter (j / 4 + 1, 0, 0, 0). */
void uniforms(long n, uint64_t k0, uint64_t k1, uint64_t first, double *out) {
    uint64_t w[8];
    long i = 0;
    for (uint64_t c = first / 4 + 1, j = first % 4; i < n; c += 2, j = 0) {
        philox_pair(c, k0, k1, w);
        for (; j < 8 && i < n; j++) out[i++] = to_unit(w[j]);
    }
}

/* A uniform or piecewise-linear quantile: the fields of dist.py's object. */
enum { UNIFORM, PIECEWISE };

struct law {
    long kind, n;                   /* n knots */
    double lo, width;               /* uniform */
    const double *xs, *cdf;         /* the knots and the CDF there */
    const double *y0, *y_lin, *y_sq, *two_s, *slopes;    /* per segment, piecewise */
    const uint8_t *quadratic;
};

/* bisect_right(a, x): the count of the n sorted a that are <= x.  Without
 * a branch on the comparison, which a random x would mispredict. */
static long bisect_right(const double *a, long n, double x) {
    const double *base = a;
    if (n == 0) return 0;
    while (n > 1) {
        long half = n / 2;
        base = x < base[half] ? base : base + half;
        n -= half;
    }
    return (base - a) + !(x < *base);
}

/* _PiecewiseQuantile's expression for segment i = bisect_right(cdf[1:-1], u).
 * As numpy's, the root's np.maximum(r, 0.0) keeps r only when it is NaN or
 * above 0 (so -0.0 gives 0.0), and the clip keeps x on a tie with a bound. */
static double piecewise(const struct law *q, double u) {
    long i = bisect_right(q->cdf + 1, q->n - 2, u);
    double t = u - q->cdf[i], d;
    if (q->quadratic[i]) {
        double r = q->y_sq[i] + q->two_s[i] * t;
        d = (sqrt(isnan(r) || r > 0.0 ? r : 0.0) - q->y0[i]) / q->slopes[i];
    } else {
        d = t / q->y_lin[i];
    }
    double x = q->xs[i] + d, lo = q->xs[0], hi = q->xs[q->n - 1];
    x = x < lo ? lo : x;
    return x > hi ? hi : x;
}

static double quantile(const struct law *q, double u) {
    return q->kind == UNIFORM ? q->lo + u * q->width : piecewise(q, u);
}

/* Arrival i is a bid when side_u[i] < p_b and is priced at its side's
 * quantile of price_u[i]. */
void draw(long n, const double *side_u, const double *price_u, double p_b,
          const struct law *bid_law, const struct law *ask_law, uint8_t *is_bid,
          double *prices) {
    for (long i = 0; i < n; i++) {
        uint8_t bid = side_u[i] < p_b;
        is_bid[i] = bid;
        prices[i] = quantile(bid ? bid_law : ask_law, price_u[i]);
    }
}

static void sift_down(double *h, long start, long pos) {
    double item = h[pos];
    while (pos > start) {
        long parent = (pos - 1) >> 1;
        if (!(item < h[parent])) break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

static void pop(double *h, long *n) {
    double item = h[--*n];
    long end = *n, pos = 0, child = 1;
    if (end == 0) return;
    while (child < end) {
        if (child + 1 < end && !(h[child] < h[child + 1])) child++;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h[pos] = item;
    sift_down(h, 0, pos);
}

static void push(double *h, long *n, double x) {
    h[*n] = x;
    sift_down(h, 0, (*n)++);
}

/* One side of the book during a match call.  Keys are prices, bids negated,
 * so the smallest key is the best order.  The best orders sit in a short
 * sorted run, hot, best last, and the rest in the binary heap `heap` of
 * length n, with every hot key <= cut <= every heap key.  Most joins land
 * within a few places of the best, and every execution takes the best, so
 * neither climbs over the orders buried deep in the book. */
#define HOT 128

struct side {
    double *heap;
    long n, nhot;
    double cut;
    double hot[HOT];
};

static void open_side(struct side *s, double *heap, long n) {
    s->heap = heap;
    s->n = n;
    s->nhot = 0;
    s->cut = n ? heap[0] : INFINITY;
}

static long size(const struct side *s) { return s->n + s->nhot; }

/* the best key; the side must hold an order */
static double best(const struct side *s) { return s->nhot ? s->hot[s->nhot - 1] : s->heap[0]; }

static void join(struct side *s, double key) {
    if (key < s->cut && s->nhot == HOT) {
        /* the run is full: its worse half goes onto the heap */
        for (long j = 0; j < HOT / 2; j++) push(s->heap, &s->n, s->hot[j]);
        s->nhot = HOT - HOT / 2;
        memmove(s->hot, s->hot + HOT / 2, s->nhot * sizeof(double));
        s->cut = s->hot[0];
    }
    if (!(key < s->cut)) {
        push(s->heap, &s->n, key);
        return;
    }
    long j = s->nhot++;
    for (; j > 0 && s->hot[j - 1] < key; j--) s->hot[j] = s->hot[j - 1];
    s->hot[j] = key;
}

/* removes the best order; the side must hold one */
static void take(struct side *s) {
    if (s->nhot) {
        s->nhot--;
    } else {
        s->cut = s->heap[0];
        pop(s->heap, &s->n);
    }
}

/* pushes the run onto the heap and returns the heap's length */
static long close_side(struct side *s) {
    for (long j = 0; j < s->nhot; j++) push(s->heap, &s->n, s->hot[j]);
    s->nhot = 0;
    return s->n;
}

/* bisect_right(cuts, x), or -1 for an empty side's quote */
static int64_t bin_of(const double *cuts, long ncuts, double x, double empty) {
    return x == empty ? -1 : bisect_right(cuts, ncuts, x);
}

/* Event i's log: its outcome, the best quotes after it, the side, price and
 * sign (+1 joined, -1 executed, 0 reservoir) of the resting order it changes,
 * and the heap lengths after it.  Returns the first arrival priced exactly at
 * the opposite best quote, or -1; the loop runs on past it. */
long match(long n, const uint8_t *is_bid, const double *prices, const int64_t *bins,
           const double *cuts, long ncuts, int strict, double rb, double ra,
           double *bids, long *nb, double *asks, long *na,
           uint8_t *outcome, double *beta_out, double *alpha_out, uint8_t *changed_bid,
           double *price, int8_t *sign, int64_t *n_bids, int64_t *n_asks) {
    struct side b, a;
    open_side(&b, bids, *nb);
    open_side(&a, asks, *na);
    double beta = size(&b) && -best(&b) > rb ? -best(&b) : rb;
    double alpha = size(&a) && best(&a) < ra ? best(&a) : ra;
    int64_t bbin = bin_of(cuts, ncuts, beta, -INFINITY);
    int64_t abin = bin_of(cuts, ncuts, alpha, INFINITY);
    long tie = -1;
    for (long i = 0; i < n; i++) {
        double p = prices[i];
        int64_t k = bins ? bins[i] : i + 1;
        uint8_t bid = is_bid[i];
        if (tie < 0 && p == (bid ? alpha : beta)) tie = i;
        changed_bid[i] = bid;
        price[i] = p;
        if (bid) {
            if (strict ? (p > alpha && k != abin) : (p > alpha || k == abin)) {
                if (alpha == ra) {
                    outcome[i] = 2; sign[i] = 0;
                } else {
                    changed_bid[i] = 0; price[i] = alpha;
                    take(&a);
                    alpha = size(&a) && best(&a) < ra ? best(&a) : ra;
                    abin = bin_of(cuts, ncuts, alpha, INFINITY);
                    outcome[i] = 1; sign[i] = -1;
                }
            } else {
                join(&b, -p);
                if (p > beta) { beta = p; bbin = k; }
                outcome[i] = 0; sign[i] = 1;
            }
        } else if (strict ? (p < beta && k != bbin) : (p < beta || k == bbin)) {
            if (beta == rb) {
                outcome[i] = 2; sign[i] = 0;
            } else {
                changed_bid[i] = 1; price[i] = beta;
                take(&b);
                beta = size(&b) && -best(&b) > rb ? -best(&b) : rb;
                bbin = bin_of(cuts, ncuts, beta, -INFINITY);
                outcome[i] = 1; sign[i] = -1;
            }
        } else {
            join(&a, p);
            if (p < alpha) { alpha = p; abin = k; }
            outcome[i] = 0; sign[i] = 1;
        }
        beta_out[i] = beta;
        alpha_out[i] = alpha;
        n_bids[i] = size(&b);
        n_asks[i] = size(&a);
    }
    *nb = close_side(&b);
    *na = close_side(&a);
    return tie;
}

/* One chunk of the binned recorder.  Event i ends the interval dt = times[i]
 * - t, t the time of the event before it (t0 for the first), spent in the
 * state before it, whose best bid and ask lie in bins pre[0] and pre[1] (-1
 * for an empty side).  dt goes to the cells (half of the run, bin + 1) of the
 * elapsed row (cell 0), the best-bid row and the best-ask row of time (3 x 2 x
 * (nbins + 1)), the second half from event `half` on.  After the event the
 * best bid and ask lie in bins b and a: beta_bin[i] and alpha_bin[i], or -1
 * where beta[i] = -inf or alpha[i] = +inf.  visits[b] counts it when the bid
 * side holds orders and joint[b][a] when both do.  A change of a bid moves
 * the resting-bid count of bin price_bin[i] by sign[i]; then sums[b][j] adds
 * counts[b - j] for j = 0..min(max_offset, b).  pre, time, joint, visits,
 * counts and sums carry over from the previous chunk of the run, all zeroed
 * before the first but pre. */
void binned(long n, const double *times, double t, long half, const double *beta,
            const double *alpha, const int64_t *beta_bin, const int64_t *alpha_bin,
            const int64_t *price_bin, const uint8_t *changed_bid, const int8_t *sign,
            long nbins, long max_offset, int64_t *pre, double *time, int64_t *joint,
            int64_t *visits, int64_t *counts, int64_t *sums) {
    long row = nbins + 1;
    int64_t pre_b = pre[0], pre_a = pre[1];
    for (long i = 0; i < n; i++) {
        double dt = times[i] - t, *cells = i < half ? time : time + row;
        cells[0] += dt;
        cells[2 * row + pre_b + 1] += dt;
        cells[4 * row + pre_a + 1] += dt;
        t = times[i];
        int64_t b = beta[i] == -INFINITY ? -1 : beta_bin[i];
        int64_t a = alpha[i] == INFINITY ? -1 : alpha_bin[i];
        if (b >= 0) {
            visits[b]++;
            if (a >= 0) joint[b * nbins + a]++;
        }
        if (changed_bid[i]) counts[price_bin[i]] += sign[i];
        for (long j = 0; j <= max_offset && j <= b; j++)
            sums[b * (max_offset + 1) + j] += counts[b - j];
        pre_b = b;
        pre_a = a;
    }
    pre[0] = pre_b;
    pre[1] = pre_a;
}

/* The largest of the m products <x, normals[j]>: the polytope gauge. */
static double gauge(const double *normals, long m, const int64_t *x) {
    double g = -INFINITY;
    for (long j = 0; j < m; j++) {
        const double *v = normals + 3 * j;
        double s = v[0] * (double)x[0] + v[1] * (double)x[1] + v[2] * (double)x[2];
        if (s > g) g = s;
    }
    return g;
}

/* The five-bin book's state x is the signed order count (bids positive) of
 * its middle bins 1..3; change i moves bin bins[i], if a middle one, by
 * sign[i] for a bid and -sign[i] for an ask.  The state before each change
 * lies in cell 6 b + a, b the highest bin holding bids (1, the bid
 * reservoir's, if no middle bin does) and a the lowest holding asks (5 if
 * none).  The cell's visits count it and its dx_sum row adds the change to
 * x.  Where the state's gauge exceeds K, above[i] is set, and the cell's
 * visits_hi counts it and dgauge_sum and dgauge_sq add the gauge's change and
 * its square.  x and the sums carry over from the previous chunk of the run,
 * all zeroed before the first; x ends at the state after the chunk.  Returns
 * -1, or the first change whose state has b >= a, where the pass stops with x
 * at that state. */
long five_bin(long n, const int64_t *bins, const uint8_t *changed_bid, const int8_t *sign,
              const double *normals, long m, double K, int64_t *x, int64_t *visits,
              double *dx_sum, int64_t *visits_hi, double *dgauge_sum, double *dgauge_sq,
              uint8_t *above) {
    double g = gauge(normals, m, x);
    for (long i = 0; i < n; i++) {
        int b = x[2] > 0 ? 4 : x[1] > 0 ? 3 : x[0] > 0 ? 2 : 1;
        int a = x[0] < 0 ? 2 : x[1] < 0 ? 3 : x[2] < 0 ? 4 : 5;
        if (b >= a) return i;
        long cell = 6 * b + a;
        int64_t k = bins[i];
        visits[cell]++;
        if (1 <= k && k <= 3) {
            int64_t dx = changed_bid[i] ? sign[i] : -sign[i];
            x[k - 1] += dx;
            dx_sum[3 * cell + k - 1] += (double)dx;
        }
        double next = gauge(normals, m, x);
        above[i] = g > K;
        if (above[i]) {
            double dg = next - g;
            visits_hi[cell]++;
            dgauge_sum[cell] += dg;
            dgauge_sq[cell] += dg * dg;
        }
        g = next;
    }
    return -1;
}

/* Point i carries two changes, 2i and 2i + 1: change j moves the bid count
 * (is_bid[j]) or the ask count of bin bins[j] by steps[j].  After both, the
 * largest prefix sum of the bid counts from bin 0 up goes to max_b[i], and of
 * the ask counts from bin nbins - 1 down to max_a[i]; a side that neither
 * change touched keeps its last maximum.  bid and ask (nbins each) start
 * zeroed, so each maximum starts at 0. */
void refinement(long n, const uint8_t *is_bid, const int64_t *bins, const int64_t *steps,
                long nbins, int64_t *bid, int64_t *ask, int64_t *max_b, int64_t *max_a) {
    int64_t best_b = 0, best_a = 0;
    for (long i = 0; i < n; i++) {
        int moved_b = 0, moved_a = 0;
        for (long j = 2 * i; j < 2 * i + 2; j++) {
            if (is_bid[j]) { bid[bins[j]] += steps[j]; moved_b = 1; }
            else { ask[bins[j]] += steps[j]; moved_a = 1; }
        }
        if (moved_b) {
            int64_t s = 0;
            best_b = INT64_MIN;
            for (long k = 0; k < nbins; k++) {
                s += bid[k];
                if (s > best_b) best_b = s;
            }
        }
        if (moved_a) {
            int64_t s = 0;
            best_a = INT64_MIN;
            for (long k = nbins - 1; k >= 0; k--) {
                s += ask[k];
                if (s > best_a) best_a = s;
            }
        }
        max_b[i] = best_b;
        max_a[i] = best_a;
    }
}
