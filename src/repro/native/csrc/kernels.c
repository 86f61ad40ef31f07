/* Fused modular kernels for the repro.native backend.
 *
 * Compiled on first use by repro/native/build.py with the system C
 * compiler into a cached shared library and driven through ctypes.
 * Every function is the single-memory-pass counterpart of a serial
 * oracle kernel (repro.native.tables.SERIAL, over repro.modmath.ops /
 * barrett and repro.ntt.radix2): instead of one full-array traversal
 * per primitive ufunc (~20-45 passes per modular op in NumPy), each
 * element is loaded once, carried through the whole Harvey/Barrett
 * arithmetic chain in registers, and stored once.  The paper's fused-butterfly argument (Sec. III-B) applied to
 * the CPU backend.
 *
 * Threading: every kernel decomposes into independent (batch, limb)
 * rows, which a small in-tree pthread worker pool (no OpenMP, so the
 * plain system-``cc`` build path keeps working) spreads across cores.
 * Each row is computed by exactly the same value sequence regardless of
 * which thread runs it, so thread count never changes outputs — the
 * A/B suite pins REPRO_NATIVE_THREADS=1 vs N bit-identical.  The pool
 * width is set from Python (repro_native_set_threads); tiny stacks run
 * inline because a dispatch costs more than it saves, and a thread that
 * finds the pool busy (concurrent server workers) computes its call
 * inline rather than queueing behind the other region.
 *
 * Bit-identicality contract: all outputs equal the serial oracle's
 * outputs exactly — same canonical values, same lazy-reduction windows
 * ([0, 4p) forward NTT, [0, 2p) inverse, canonical [0, p) elsewhere).
 * The arithmetic below uses exact modular identities (64-bit operations
 * wrap mod 2**64, 128-bit intermediates wrap mod 2**128, exactly like
 * the emulated uint128 path) and the oracle's butterfly sequences, and
 * tests/test_backend_ab.py enforces equality per element.
 *
 * SIMD NTT rows: the forward/inverse row transforms and the key switch's
 * Barrett pass have an AVX-512F/DQ form that runs eight butterflies per
 * instruction with the same wrapping-u64 formula per lane (the paper's
 * SIMD butterfly stages, Sec. III-B, in HEXL's layout), so its outputs are
 * bit-identical to the scalar rows on every input, in range or not.  It
 * is compiled under `#if defined(__x86_64__) && defined(__GNUC__)` with a
 * per-function target attribute (the build passes no -march, so the
 * cached library stays portable) and chosen once, when the library is
 * loaded, from __builtin_cpu_supports; rows with n < 16 stay scalar.
 * repro_native_ntt_isa reports the choice, and
 * repro_native_force_scalar_rows lets the tests pin the scalar rows.
 *
 * Layout conventions (all arrays C-contiguous uint64):
 *   - data tensors are (rows, k, n): `rows` flattened leading axes,
 *     `k` the RNS limb axis (second-to-last), `n` the trailing axis;
 *   - per-limb constants are flat (k,) arrays indexed by the limb row;
 *   - NTT twiddle tables are (k, n) in the bit-reversed HEXL layout of
 *     repro.ntt.tables (index m..2m-1 holds stage-m operands).
 *
 * All moduli satisfy p < 2**61 (enforced by repro.modmath.Modulus), so
 * 4p < 2**63: lazy sums never wrap and the conditional-subtract chains
 * below are exact.
 */

#include <stdint.h>
#include <stddef.h>
#include <string.h>

#if !defined(_WIN32)
#include <pthread.h>
#define REPRO_HAVE_THREADS 1
#endif

typedef uint64_t u64;
typedef int64_t i64;
typedef unsigned __int128 u128;

#if defined(_MSC_VER)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

static inline u64 mulhi(u64 a, u64 b) {
    return (u64)(((u128)a * b) >> 64);
}

/* Harvey lazy product w*y - floor(w*2^64/p as wq) -> [0, 2p). */
static inline u64 harvey_lazy(u64 y, u64 w, u64 wq, u64 p) {
    return w * y - mulhi(wq, y) * p;
}

/* x - b if x >= b else x (b <= 2^63). */
static inline u64 csub(u64 x, u64 b) {
    return x >= b ? x - b : x;
}

/* Canonical x mod p for x < 2^64 (single-word Barrett). */
static inline u64 barrett64(u64 x, u64 p, u64 rhi) {
    u64 r = x - mulhi(x, rhi) * p;
    return csub(r, p);
}

/* Canonical (hi*2^64 + lo) mod p: Harvey(hi; 2^64 mod p) + Barrett64(lo),
 * both lazy in [0, 2p), folded with two conditional subtracts — the same
 * canonical value as the serial oracle's two-round barrett_reduce_128. */
static inline u64 reduce128(u64 hi, u64 lo, u64 p, u64 two_p,
                            u64 rhi, u64 c64, u64 c64q) {
    u64 t1 = c64 * hi - mulhi(c64q, hi) * p;
    u64 r2 = lo - mulhi(lo, rhi) * p;
    u64 s = t1 + r2;
    s = csub(s, two_p);
    return csub(s, p);
}

/* ---------------------------------------------------------------------------
 * Worker pool: fixed detached threads, one broadcast job at a time.
 *
 * A job is (fn, ctx, total): fn(ctx, begin, end) must process the
 * half-open unit range [begin, end), units being independent rows.  The
 * dispatching thread takes part 0 itself and waits for the workers, so
 * a pool of W threads runs W-wide.  Dispatch is guarded by a trylock:
 * a second thread arriving while a region is in flight (e.g. a server
 * worker pool above the native pool) runs its call inline instead of
 * blocking, which avoids oversubscription and cannot deadlock.
 * ------------------------------------------------------------------------- */

typedef void (*job_fn)(void *ctx, i64 begin, i64 end);

/* Work below this many element-ops runs inline: waking the pool costs
 * tens of microseconds, which tiny test-scale stacks cannot amortize. */
#define PAR_MIN_ELEMOPS 32768

#ifdef REPRO_HAVE_THREADS

#define POOL_MAX_THREADS 64

static pthread_mutex_t pool_region_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t pool_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t pool_go = PTHREAD_COND_INITIALIZER;
static pthread_cond_t pool_done = PTHREAD_COND_INITIALIZER;
static i64 pool_width = 1;   /* configured parallel width incl. caller */
static i64 pool_spawned = 0; /* worker threads running (never shrinks) */
static u64 pool_gen = 0;
static i64 pool_pending = 0;
static job_fn pool_fn;
static void *pool_ctx;
static i64 pool_total;
static i64 pool_parts;

typedef struct {
    i64 part;  /* fixed 1-based part index of this worker */
    u64 seen;  /* generation at spawn: earlier jobs are not ours */
} worker_boot;

static worker_boot pool_boot[POOL_MAX_THREADS];

static void *pool_worker(void *arg) {
    const worker_boot *boot = (const worker_boot *)arg;
    const i64 me = boot->part;
    u64 seen = boot->seen;
    pthread_mutex_lock(&pool_mu);
    for (;;) {
        while (pool_gen == seen)
            pthread_cond_wait(&pool_go, &pool_mu);
        seen = pool_gen;
        const job_fn fn = pool_fn;
        void *const ctx = pool_ctx;
        const i64 total = pool_total, parts = pool_parts;
        pthread_mutex_unlock(&pool_mu);
        if (me < parts) {
            const i64 b = total * me / parts;
            const i64 e = total * (me + 1) / parts;
            if (b < e)
                fn(ctx, b, e);
        }
        pthread_mutex_lock(&pool_mu);
        if (--pool_pending == 0)
            pthread_cond_signal(&pool_done);
    }
    return NULL; /* unreachable */
}

#endif /* REPRO_HAVE_THREADS */

/* Set the pool width (callers + workers); returns the width in effect.
 * Threads spawn lazily and are never torn down — shrinking just idles
 * the extras, so repeated set/restore cycles stay cheap. */
EXPORT i64 repro_native_set_threads(i64 want) {
#ifdef REPRO_HAVE_THREADS
    i64 got;
    if (want < 1)
        want = 1;
    if (want > POOL_MAX_THREADS)
        want = POOL_MAX_THREADS;
    pthread_mutex_lock(&pool_region_mu);
    while (pool_spawned < want - 1) {
        pthread_t tid;
        pthread_attr_t attr;
        worker_boot *boot = &pool_boot[pool_spawned];
        boot->part = pool_spawned + 1;
        pthread_mutex_lock(&pool_mu);
        boot->seen = pool_gen;
        pthread_mutex_unlock(&pool_mu);
        pthread_attr_init(&attr);
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        if (pthread_create(&tid, &attr, pool_worker, boot) != 0) {
            pthread_attr_destroy(&attr);
            break; /* keep whatever width we reached */
        }
        pthread_attr_destroy(&attr);
        pool_spawned++;
    }
    pool_width = want <= pool_spawned + 1 ? want : pool_spawned + 1;
    got = pool_width;
    pthread_mutex_unlock(&pool_region_mu);
    return got;
#else
    (void)want;
    return 1;
#endif
}

EXPORT i64 repro_native_get_threads(void) {
#ifdef REPRO_HAVE_THREADS
    pthread_mutex_lock(&pool_region_mu);
    i64 got = pool_width;
    pthread_mutex_unlock(&pool_region_mu);
    return got;
#else
    return 1;
#endif
}

/* Run fn over [0, total) units, splitting across the pool when the
 * work (total * elemops_per_unit element-operations) warrants it. */
static void run_rows(job_fn fn, void *ctx, i64 total, i64 elemops_per_unit) {
#ifdef REPRO_HAVE_THREADS
    i64 parts = pool_width;
    if (parts > total)
        parts = total;
    if (parts > 1 && total * elemops_per_unit >= PAR_MIN_ELEMOPS
        && pthread_mutex_trylock(&pool_region_mu) == 0) {
        parts = pool_width < total ? pool_width : total;
        if (parts > 1) {
            pthread_mutex_lock(&pool_mu);
            pool_fn = fn;
            pool_ctx = ctx;
            pool_total = total;
            pool_parts = parts;
            pool_pending = pool_spawned;
            pool_gen++;
            pthread_cond_broadcast(&pool_go);
            pthread_mutex_unlock(&pool_mu);
            const i64 e0 = total / parts; /* part 0 runs on this thread */
            if (e0 > 0)
                fn(ctx, 0, e0);
            pthread_mutex_lock(&pool_mu);
            while (pool_pending)
                pthread_cond_wait(&pool_done, &pool_mu);
            pthread_mutex_unlock(&pool_mu);
            pthread_mutex_unlock(&pool_region_mu);
            return;
        }
        pthread_mutex_unlock(&pool_region_mu);
    }
#endif
    fn(ctx, 0, total);
}

/* Shared operand block for the row jobs: each kernel fills what it
 * uses.  a..d are inputs, o0..o2 outputs, the rest per-limb constant
 * tables indexed by the limb row (flat row index mod k). */
typedef struct {
    const u64 *a, *b, *c, *d;
    u64 *o0, *o1, *o2;
    i64 k, n;
    const u64 *p, *two_p, *rhi, *c64, *c64q, *w, *wq;
    u64 half_d;
    i64 lazy;
} rowctx;

/* ---------------------------------------------------------------------------
 * Fused stacked NTT: all log2(n) butterfly stages of every (batch, limb)
 * row in one call — one twiddle-multiply + lazy reduction + add/sub per
 * butterfly, data touched log2(n) times total instead of ~20 numpy
 * passes per stage.  Rows are independent, so the pool splits them.
 *
 * Each row function has a scalar and an AVX-512 form computing the same
 * integer formula per element; ntt_rows names the set in effect.
 * ------------------------------------------------------------------------- */

static void ntt_fwd_row_scalar(u64 *row, i64 n, const u64 *wr, const u64 *wqr,
                               u64 p, u64 two_p, i64 lazy) {
    for (i64 m = 1; m < n; m <<= 1) {
        const i64 t = n / (2 * m);
        for (i64 g = 0; g < m; ++g) {
            const u64 W = wr[m + g], Wq = wqr[m + g];
            u64 *restrict X = row + (size_t)(2 * g) * t;
            u64 *restrict Y = X + t;
            for (i64 i = 0; i < t; ++i) {
                const u64 xv = csub(X[i], two_p);
                const u64 tt = harvey_lazy(Y[i], W, Wq, p);
                X[i] = xv + tt;
                Y[i] = xv - tt + two_p;
            }
        }
    }
    if (!lazy) {
        /* "Last round processing": [0, 4p) -> [0, p). */
        for (i64 i = 0; i < n; ++i)
            row[i] = csub(csub(row[i], two_p), p);
    }
}

static void ntt_inv_row_scalar(u64 *row, i64 n, const u64 *wr, const u64 *wqr,
                               u64 p, u64 two_p, u64 nw, u64 nq, i64 lazy) {
    for (i64 h = n / 2; h >= 1; h >>= 1) {
        const i64 t = n / (2 * h);
        for (i64 g = 0; g < h; ++g) {
            const u64 W = wr[h + g], Wq = wqr[h + g];
            u64 *restrict X = row + (size_t)(2 * g) * t;
            u64 *restrict Y = X + t;
            for (i64 i = 0; i < t; ++i) {
                const u64 xv = X[i], yv = Y[i];
                X[i] = csub(xv + yv, two_p);
                Y[i] = harvey_lazy(xv + two_p - yv, W, Wq, p);
            }
        }
    }
    /* Final n^{-1} scaling, fused with the correction pass. */
    if (lazy) {
        for (i64 i = 0; i < n; ++i)
            row[i] = csub(harvey_lazy(row[i], nw, nq, p), two_p);
    } else {
        for (i64 i = 0; i < n; ++i) {
            u64 v = csub(harvey_lazy(row[i], nw, nq, p), two_p);
            row[i] = csub(v, p);
        }
    }
}

/* Canonical dst = src mod p per element (the key switch's Barrett pass). */
static void barrett_row_scalar(u64 *dst, const u64 *src, i64 n,
                               u64 p, u64 rhi) {
    for (i64 i = 0; i < n; ++i)
        dst[i] = barrett64(src[i], p, rhi);
}

typedef struct {
    void (*fwd)(u64 *row, i64 n, const u64 *wr, const u64 *wqr,
                u64 p, u64 two_p, i64 lazy);
    void (*inv)(u64 *row, i64 n, const u64 *wr, const u64 *wqr,
                u64 p, u64 two_p, u64 nw, u64 nq, i64 lazy);
    void (*barrett)(u64 *dst, const u64 *src, i64 n, u64 p, u64 rhi);
    i64 isa; /* what repro_native_ntt_isa reports: 0 scalar, 1 AVX-512 */
} ntt_row_set;

static const ntt_row_set SCALAR_ROWS = {
    ntt_fwd_row_scalar, ntt_inv_row_scalar, barrett_row_scalar, 0,
};

/* The row set chosen at load, and the one in effect (the two differ only
 * while repro_native_force_scalar_rows pins the scalar rows). */
static const ntt_row_set *load_rows = &SCALAR_ROWS;
static const ntt_row_set *ntt_rows = &SCALAR_ROWS;

#if defined(__x86_64__) && defined(__GNUC__)
/* ---------------------------------------------------------------------------
 * AVX-512F/DQ rows (see the header comment), after the layout of Intel
 * HEXL (Boemer et al., WAHC 2021) over Harvey's lazy butterfly.  IFMA52 is
 * not used: its 52-bit lazy representatives would differ from the scalar
 * rows' values.
 *
 * Stages with t >= 8 pair X[i..i+8) with Y[i..i+8) under one broadcast
 * twiddle.  The last three forward stages (t = 4, 2, 1), and the first
 * three inverse ones, stay inside an aligned 16-element block: the block
 * is loaded into two registers once, permuted so lane j of X meets lane
 * j of Y for each stage, and stored once (register-resident stages).
 * ------------------------------------------------------------------------- */

#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512dq")))

typedef __m512i v8;

#define V_LOAD(a) _mm512_loadu_si512((const void *)(a))

/* csub lane-wise: x - b wraps above x exactly when x < b (b <= 2^63). */
AVX512 static inline v8 v_csub(v8 x, v8 b) {
    return _mm512_min_epu64(x, _mm512_sub_epi64(x, b));
}

/* High word of a*b per lane from four 32x32 -> 64 partial products;
 * bh = b >> 32 is passed in so broadcast operands split once. */
AVX512 static inline v8 v_mulhi(v8 a, v8 b, v8 bh) {
    const v8 lo32 = _mm512_set1_epi64(0xffffffffLL);
    const v8 ah = _mm512_srli_epi64(a, 32);
    const v8 ll = _mm512_mul_epu32(a, b);
    const v8 lh = _mm512_mul_epu32(a, bh);
    const v8 hl = _mm512_mul_epu32(ah, b);
    const v8 hh = _mm512_mul_epu32(ah, bh);
    const v8 mid = _mm512_add_epi64(lh, _mm512_srli_epi64(ll, 32));
    const v8 mid2 = _mm512_add_epi64(hl, _mm512_and_si512(mid, lo32));
    return _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_srli_epi64(mid, 32)),
                            _mm512_srli_epi64(mid2, 32));
}

/* harvey_lazy lane-wise: w*y - mulhi(wq, y)*p, both products wrapping. */
AVX512 static inline v8 v_harvey(v8 y, v8 w, v8 wq, v8 wqh, v8 p) {
    const v8 q = v_mulhi(y, wq, wqh);
    return _mm512_sub_epi64(_mm512_mullo_epi64(w, y),
                            _mm512_mullo_epi64(q, p));
}

/* One twiddle operand (w, wq, wq >> 32) for eight lanes. */
typedef struct { v8 w, q, qh; } v_tw;

AVX512 static inline v_tw v_tw_bcast(u64 w, u64 wq) {
    v_tw r = {_mm512_set1_epi64((i64)w), _mm512_set1_epi64((i64)wq),
              _mm512_set1_epi64((i64)(wq >> 32))};
    return r;
}

/* Eight consecutive twiddles, one per lane. */
AVX512 static inline v_tw v_tw_load(const u64 *wr, const u64 *wqr) {
    v_tw r = {V_LOAD(wr), V_LOAD(wqr), _mm512_setzero_si512()};
    r.qh = _mm512_srli_epi64(r.q, 32);
    return r;
}

/* The twiddles at wr/wqr that `mask` loads, spread over the lanes by
 * `spread`. */
AVX512 static inline v_tw v_tw_spread(const u64 *wr, const u64 *wqr,
                                      __mmask8 mask, v8 spread) {
    v_tw r;
    r.w = _mm512_permutexvar_epi64(spread, _mm512_maskz_loadu_epi64(mask, wr));
    r.q = _mm512_permutexvar_epi64(spread, _mm512_maskz_loadu_epi64(mask, wqr));
    r.qh = _mm512_srli_epi64(r.q, 32);
    return r;
}

AVX512 static inline void v_fwd_bfly(v8 *x, v8 *y, v_tw tw, v8 p, v8 two_p) {
    const v8 xv = v_csub(*x, two_p);
    const v8 tt = v_harvey(*y, tw.w, tw.q, tw.qh, p);
    *x = _mm512_add_epi64(xv, tt);
    *y = _mm512_add_epi64(_mm512_sub_epi64(xv, tt), two_p);
}

AVX512 static inline void v_inv_bfly(v8 *x, v8 *y, v_tw tw, v8 p, v8 two_p) {
    const v8 xv = *x, yv = *y;
    *x = v_csub(_mm512_add_epi64(xv, yv), two_p);
    *y = v_harvey(_mm512_sub_epi64(_mm512_add_epi64(xv, two_p), yv),
                  tw.w, tw.q, tw.qh, p);
}

/* The inverse row's final pass: csub(harvey(v, n^{-1}), 2p), then to
 * [0, p) unless lazy. */
AVX512 static inline v8 v_inv_scale(v8 v, v_tw ninv, v8 p, v8 two_p,
                                    i64 lazy) {
    v = v_csub(v_harvey(v, ninv.w, ninv.q, ninv.qh, p), two_p);
    return lazy ? v : v_csub(v, p);
}

/* (x, y) <- lanes idx[0..8) and idx[8..16) of the 16-lane pair x:y. */
AVX512 static inline void v_perm2(v8 *x, v8 *y, v8 lo, v8 hi) {
    const v8 a = *x, b = *y;
    *x = _mm512_permutex2var_epi64(a, lo, b);
    *y = _mm512_permutex2var_epi64(a, hi, b);
}

/* Lane permutes of a 16-element block.  Layout Lt puts the X operands of
 * the t-stage (elements e with (e / t) even) in x and their Y partners
 * in y.  P4 maps natural <-> L4, P42 L4 <-> L2, P21 L2 <-> L1 (each is
 * its own inverse); G1 maps natural -> L1 and S1 back.  SPREADt repeats
 * each of a block's 8/t twiddles over its t lanes. */
static const u64 P4[16] = {0, 1, 2, 3, 8, 9, 10, 11,
                           4, 5, 6, 7, 12, 13, 14, 15};
static const u64 P42[16] = {0, 1, 8, 9, 4, 5, 12, 13,
                            2, 3, 10, 11, 6, 7, 14, 15};
static const u64 P21[16] = {0, 8, 2, 10, 4, 12, 6, 14,
                            1, 9, 3, 11, 5, 13, 7, 15};
static const u64 G1[16] = {0, 2, 4, 6, 8, 10, 12, 14,
                           1, 3, 5, 7, 9, 11, 13, 15};
static const u64 S1[16] = {0, 8, 1, 9, 2, 10, 3, 11,
                           4, 12, 5, 13, 6, 14, 7, 15};
static const u64 SPREAD4[8] = {0, 0, 0, 0, 1, 1, 1, 1};
static const u64 SPREAD2[8] = {0, 0, 1, 1, 2, 2, 3, 3};

AVX512 static void ntt_fwd_row_avx512(u64 *row, i64 n, const u64 *wr,
                                      const u64 *wqr, u64 p_, u64 two_p_,
                                      i64 lazy) {
    if (n < 16) {
        ntt_fwd_row_scalar(row, n, wr, wqr, p_, two_p_, lazy);
        return;
    }
    const v8 p = _mm512_set1_epi64((i64)p_);
    const v8 two_p = _mm512_set1_epi64((i64)two_p_);
    for (i64 m = 1; 16 * m <= n; m <<= 1) { /* t = n / 2m >= 8 */
        const i64 t = n / (2 * m);
        for (i64 g = 0; g < m; ++g) {
            const v_tw tw = v_tw_bcast(wr[m + g], wqr[m + g]);
            u64 *X = row + (size_t)(2 * g) * t;
            u64 *Y = X + t;
            for (i64 i = 0; i < t; i += 8) {
                v8 x = V_LOAD(X + i), y = V_LOAD(Y + i);
                v_fwd_bfly(&x, &y, tw, p, two_p);
                _mm512_storeu_si512((void *)(X + i), x);
                _mm512_storeu_si512((void *)(Y + i), y);
            }
        }
    }
    const v8 p4lo = V_LOAD(P4), p4hi = V_LOAD(P4 + 8);
    const v8 p42lo = V_LOAD(P42), p42hi = V_LOAD(P42 + 8);
    const v8 p21lo = V_LOAD(P21), p21hi = V_LOAD(P21 + 8);
    const v8 s1lo = V_LOAD(S1), s1hi = V_LOAD(S1 + 8);
    const v8 sp4 = V_LOAD(SPREAD4), sp2 = V_LOAD(SPREAD2);
    const i64 m4 = n / 8, m2 = n / 4, m1 = n / 2;
    for (i64 b = 0; b < n / 16; ++b) {
        u64 *blk = row + (size_t)16 * b;
        v8 x = V_LOAD(blk), y = V_LOAD(blk + 8);
        v_perm2(&x, &y, p4lo, p4hi);
        v_fwd_bfly(&x, &y, v_tw_spread(wr + m4 + 2 * b, wqr + m4 + 2 * b,
                                       0x03, sp4), p, two_p);
        v_perm2(&x, &y, p42lo, p42hi);
        v_fwd_bfly(&x, &y, v_tw_spread(wr + m2 + 4 * b, wqr + m2 + 4 * b,
                                       0x0f, sp2), p, two_p);
        v_perm2(&x, &y, p21lo, p21hi);
        v_fwd_bfly(&x, &y, v_tw_load(wr + m1 + 8 * b, wqr + m1 + 8 * b),
                   p, two_p);
        v_perm2(&x, &y, s1lo, s1hi);
        if (!lazy) { /* [0, 4p) -> [0, p), as the scalar last pass */
            x = v_csub(v_csub(x, two_p), p);
            y = v_csub(v_csub(y, two_p), p);
        }
        _mm512_storeu_si512((void *)blk, x);
        _mm512_storeu_si512((void *)(blk + 8), y);
    }
}

AVX512 static void ntt_inv_row_avx512(u64 *row, i64 n, const u64 *wr,
                                      const u64 *wqr, u64 p_, u64 two_p_,
                                      u64 nw, u64 nq, i64 lazy) {
    if (n < 16) {
        ntt_inv_row_scalar(row, n, wr, wqr, p_, two_p_, nw, nq, lazy);
        return;
    }
    const v8 p = _mm512_set1_epi64((i64)p_);
    const v8 two_p = _mm512_set1_epi64((i64)two_p_);
    const v8 g1lo = V_LOAD(G1), g1hi = V_LOAD(G1 + 8);
    const v8 p21lo = V_LOAD(P21), p21hi = V_LOAD(P21 + 8);
    const v8 p42lo = V_LOAD(P42), p42hi = V_LOAD(P42 + 8);
    const v8 p4lo = V_LOAD(P4), p4hi = V_LOAD(P4 + 8);
    const v8 sp4 = V_LOAD(SPREAD4), sp2 = V_LOAD(SPREAD2);
    const i64 h1 = n / 2, h2 = n / 4, h4 = n / 8;
    for (i64 b = 0; b < n / 16; ++b) {
        u64 *blk = row + (size_t)16 * b;
        v8 x = V_LOAD(blk), y = V_LOAD(blk + 8);
        v_perm2(&x, &y, g1lo, g1hi);
        v_inv_bfly(&x, &y, v_tw_load(wr + h1 + 8 * b, wqr + h1 + 8 * b),
                   p, two_p);
        v_perm2(&x, &y, p21lo, p21hi);
        v_inv_bfly(&x, &y, v_tw_spread(wr + h2 + 4 * b, wqr + h2 + 4 * b,
                                       0x0f, sp2), p, two_p);
        v_perm2(&x, &y, p42lo, p42hi);
        v_inv_bfly(&x, &y, v_tw_spread(wr + h4 + 2 * b, wqr + h4 + 2 * b,
                                       0x03, sp4), p, two_p);
        v_perm2(&x, &y, p4lo, p4hi);
        _mm512_storeu_si512((void *)blk, x);
        _mm512_storeu_si512((void *)(blk + 8), y);
    }
    /* The last stage (h = 1) also applies the scalar row's final pass,
     * n^{-1} scaling and correction, to each output as it is stored. */
    const v_tw ninv = v_tw_bcast(nw, nq);
    for (i64 h = n / 16; h >= 1; h >>= 1) { /* t = n / 2h >= 8 */
        const i64 t = n / (2 * h);
        for (i64 g = 0; g < h; ++g) {
            const v_tw tw = v_tw_bcast(wr[h + g], wqr[h + g]);
            u64 *X = row + (size_t)(2 * g) * t;
            u64 *Y = X + t;
            for (i64 i = 0; i < t; i += 8) {
                v8 x = V_LOAD(X + i), y = V_LOAD(Y + i);
                v_inv_bfly(&x, &y, tw, p, two_p);
                if (h == 1) {
                    x = v_inv_scale(x, ninv, p, two_p, lazy);
                    y = v_inv_scale(y, ninv, p, two_p, lazy);
                }
                _mm512_storeu_si512((void *)(X + i), x);
                _mm512_storeu_si512((void *)(Y + i), y);
            }
        }
    }
}

AVX512 static void barrett_row_avx512(u64 *dst, const u64 *src, i64 n,
                                      u64 p_, u64 rhi_) {
    if (n < 16) {
        barrett_row_scalar(dst, src, n, p_, rhi_);
        return;
    }
    const v8 p = _mm512_set1_epi64((i64)p_);
    const v8 rhi = _mm512_set1_epi64((i64)rhi_);
    const v8 rhih = _mm512_srli_epi64(rhi, 32);
    for (i64 i = 0; i < n; i += 8) {
        const v8 x = V_LOAD(src + i);
        const v8 r = _mm512_sub_epi64(
            x, _mm512_mullo_epi64(v_mulhi(x, rhi, rhih), p));
        _mm512_storeu_si512((void *)(dst + i), v_csub(r, p));
    }
}

#undef V_LOAD

static const ntt_row_set AVX512_ROWS = {
    ntt_fwd_row_avx512, ntt_inv_row_avx512, barrett_row_avx512, 1,
};

/* At load: the AVX-512 rows when the CPU (and OS) support AVX-512F and
 * DQ, else the scalar rows stay. */
__attribute__((constructor)) static void select_ntt_rows(void) {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
        load_rows = &AVX512_ROWS;
    ntt_rows = load_rows;
}
#endif /* __x86_64__ && __GNUC__ */

/* 1 when the AVX-512 rows are in effect, 0 for the scalar rows. */
EXPORT i64 repro_native_ntt_isa(void) {
    return ntt_rows->isa;
}

/* Test hook: force the scalar rows (on != 0) or restore the load-time
 * choice (on == 0); returns the isa then in effect.  Not thread-safe
 * against running kernels: set it between calls. */
EXPORT i64 repro_native_force_scalar_rows(i64 on) {
    ntt_rows = on ? &SCALAR_ROWS : load_rows;
    return ntt_rows->isa;
}

/* NTT jobs reuse rowctx: o0 = data, a = ninv_w column, b = ninv_q. */

static void job_ntt_forward(void *vctx, i64 begin, i64 end) {
    const rowctx *C = (const rowctx *)vctx;
    const i64 n = C->n;
    for (i64 r = begin; r < end; ++r) {
        const i64 j = r % C->k;
        ntt_rows->fwd(C->o0 + (size_t)r * n, n,
                    C->w + (size_t)j * n, C->wq + (size_t)j * n,
                    C->p[j], C->two_p[j], C->lazy);
    }
}

EXPORT void repro_ntt_forward(u64 *x, i64 batch, i64 k, i64 n,
                              const u64 *w, const u64 *wq,
                              const u64 *p_arr, const u64 *two_p_arr,
                              i64 lazy) {
    rowctx C = {0};
    C.o0 = x;
    C.k = k;
    C.n = n;
    C.w = w;
    C.wq = wq;
    C.p = p_arr;
    C.two_p = two_p_arr;
    C.lazy = lazy;
    run_rows(job_ntt_forward, &C, batch * k, 12 * n);
}

static void job_ntt_inverse(void *vctx, i64 begin, i64 end) {
    const rowctx *C = (const rowctx *)vctx;
    const i64 n = C->n;
    for (i64 r = begin; r < end; ++r) {
        const i64 j = r % C->k;
        ntt_rows->inv(C->o0 + (size_t)r * n, n,
                    C->w + (size_t)j * n, C->wq + (size_t)j * n,
                    C->p[j], C->two_p[j], C->a[j], C->b[j], C->lazy);
    }
}

EXPORT void repro_ntt_inverse(u64 *x, i64 batch, i64 k, i64 n,
                              const u64 *iw, const u64 *iwq,
                              const u64 *p_arr, const u64 *two_p_arr,
                              const u64 *ninv_w, const u64 *ninv_q,
                              i64 lazy) {
    rowctx C = {0};
    C.o0 = x;
    C.k = k;
    C.n = n;
    C.w = iw;
    C.wq = iwq;
    C.p = p_arr;
    C.two_p = two_p_arr;
    C.a = ninv_w;
    C.b = ninv_q;
    C.lazy = lazy;
    run_rows(job_ntt_inverse, &C, batch * k, 12 * n);
}

/* ---------------------------------------------------------------------------
 * Fused key-switch decompose (iNTT -> Barrett -> NTT in one call).
 *
 * Input poly is (level, n), row i the NTT-form residue of source prime
 * q_i.  Output is (level, level+1, n): out[i, r] = NTT_r(Barrett_r(
 * iNTT_i(poly[i]))) over the target rows (current primes + special
 * prime) — the hoisting-shared half of _switch_key, without the two
 * full-size intermediate tensors the three-call serial path writes.
 * Source primes are independent, so the pool splits on i.  Scratch-free:
 * out[i, 0] holds the canonical iNTT while rows 1.. are produced, then
 * reduces/transforms itself in place.
 *
 * The diagonal out[i, i] (target prime == source prime) is a copy of
 * poly[i] when every element of that row is below p_i: the non-lazy
 * iNTT, Barrett and NTT are then exact inverses (equal primes get equal
 * tables, the root being a function of (n, p)), so the copy is
 * bit-identical.  A row with a non-canonical element is transformed.
 * ------------------------------------------------------------------------- */

/* 1 when every x[i] < p (one compare pass). */
static int row_below(const u64 *x, i64 n, u64 p) {
    u64 bad = 0;
    for (i64 i = 0; i < n; ++i)
        bad |= (u64)(x[i] >= p);
    return bad == 0;
}

typedef struct {
    const u64 *poly;
    u64 *out;
    i64 level, n;
    const u64 *iw, *iwq, *src_p, *src_two_p, *ninv_w, *ninv_q;
    const u64 *fw, *fwq, *tgt_p, *tgt_two_p, *tgt_rhi;
} ksctx;

static void job_ks_decompose(void *vctx, i64 begin, i64 end) {
    const ksctx *C = (const ksctx *)vctx;
    const i64 n = C->n, tk = C->level + 1;
    const ntt_row_set *rows = ntt_rows;
    for (i64 i = begin; i < end; ++i) {
        u64 *base = C->out + (size_t)i * tk * n;
        const u64 *src = C->poly + (size_t)i * n;
        const i64 diag = C->tgt_p[i] == C->src_p[i]
                         && row_below(src, n, C->src_p[i]) ? i : -1;
        memcpy(base, src, (size_t)n * sizeof(u64));
        rows->inv(base, n, C->iw + (size_t)i * n, C->iwq + (size_t)i * n,
                    C->src_p[i], C->src_two_p[i],
                    C->ninv_w[i], C->ninv_q[i], 0);
        /* Row 0 holds the iNTT, so it is produced last. */
        for (i64 r = tk - 1; r >= 0; --r) {
            u64 *orow = base + (size_t)r * n;
            if (r == diag) {
                memcpy(orow, src, (size_t)n * sizeof(u64));
                continue;
            }
            const u64 p = C->tgt_p[r];
            rows->barrett(orow, base, n, p, C->tgt_rhi[r]);
            rows->fwd(orow, n, C->fw + (size_t)r * n,
                        C->fwq + (size_t)r * n, p, C->tgt_two_p[r], 0);
        }
    }
}

EXPORT void repro_ks_decompose(const u64 *poly, u64 *out, i64 level, i64 n,
                               const u64 *iw, const u64 *iwq,
                               const u64 *src_p, const u64 *src_two_p,
                               const u64 *ninv_w, const u64 *ninv_q,
                               const u64 *fw, const u64 *fwq,
                               const u64 *tgt_p, const u64 *tgt_two_p,
                               const u64 *tgt_rhi) {
    ksctx C = {poly, out, level, n, iw, iwq, src_p, src_two_p,
               ninv_w, ninv_q, fw, fwq, tgt_p, tgt_two_p, tgt_rhi};
    run_rows(job_ks_decompose, &C, level, 12 * (level + 2) * n);
}

/* ---------------------------------------------------------------------------
 * Elementwise modular kernels over (rows, k, n) stacks.  Every job
 * walks flat (row, limb) indices [begin, end): limb j = index mod k.
 * ------------------------------------------------------------------------- */

/* Declares job_<name> over flat rows with the body run per row; the
 * body sees j (limb), off (element offset) and the rowctx fields via C.
 * Variadic so top-level commas in the body survive preprocessing. */
#define ROW_JOB(name, ...)                                                  \
    static void job_##name(void *vctx, i64 begin, i64 end) {                \
        const rowctx *C = (const rowctx *)vctx;                             \
        const i64 n = C->n;                                                 \
        for (i64 r = begin; r < end; ++r) {                                 \
            const i64 j = r % C->k;                                         \
            const size_t off = (size_t)r * n;                               \
            __VA_ARGS__                                                     \
        }                                                                   \
    }

ROW_JOB(add_mod, {
    const u64 p = C->p[j];
    for (i64 i = 0; i < n; ++i)
        C->o0[off + i] = csub(C->a[off + i] + C->b[off + i], p);
})

EXPORT void repro_add_mod(const u64 *a, const u64 *b, u64 *out,
                          i64 rows, i64 k, i64 n, const u64 *p_arr) {
    rowctx C = {0};
    C.a = a;
    C.b = b;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    run_rows(job_add_mod, &C, rows * k, n);
}

ROW_JOB(sub_mod, {
    const u64 p = C->p[j];
    for (i64 i = 0; i < n; ++i)
        C->o0[off + i] = csub(C->a[off + i] + p - C->b[off + i], p);
})

EXPORT void repro_sub_mod(const u64 *a, const u64 *b, u64 *out,
                          i64 rows, i64 k, i64 n, const u64 *p_arr) {
    rowctx C = {0};
    C.a = a;
    C.b = b;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    run_rows(job_sub_mod, &C, rows * k, n);
}

ROW_JOB(neg_mod, {
    const u64 p = C->p[j];
    for (i64 i = 0; i < n; ++i) {
        const u64 v = C->a[off + i];
        C->o0[off + i] = v ? p - v : 0;
    }
})

EXPORT void repro_neg_mod(const u64 *a, u64 *out,
                          i64 rows, i64 k, i64 n, const u64 *p_arr) {
    rowctx C = {0};
    C.a = a;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    run_rows(job_neg_mod, &C, rows * k, n);
}

ROW_JOB(conditional_sub, {
    const u64 p = C->p[j];
    for (i64 i = 0; i < n; ++i)
        C->o0[off + i] = csub(C->a[off + i], p);
})

EXPORT void repro_conditional_sub(const u64 *a, u64 *out,
                                  i64 rows, i64 k, i64 n, const u64 *p_arr) {
    rowctx C = {0};
    C.a = a;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    run_rows(job_conditional_sub, &C, rows * k, n);
}

ROW_JOB(barrett64_rows, {
    const u64 p = C->p[j], rhi = C->rhi[j];
    for (i64 i = 0; i < n; ++i)
        C->o0[off + i] = barrett64(C->a[off + i], p, rhi);
})

EXPORT void repro_barrett64(const u64 *a, u64 *out,
                            i64 rows, i64 k, i64 n,
                            const u64 *p_arr, const u64 *rhi_arr) {
    rowctx C = {0};
    C.a = a;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    C.rhi = rhi_arr;
    run_rows(job_barrett64_rows, &C, rows * k, 2 * n);
}

ROW_JOB(barrett128_rows, {
    const u64 p = C->p[j], two_p = C->two_p[j], rhi = C->rhi[j];
    const u64 c64 = C->c64[j], c64q = C->c64q[j];
    for (i64 i = 0; i < n; ++i)
        C->o0[off + i] = reduce128(C->a[off + i], C->b[off + i],
                                   p, two_p, rhi, c64, c64q);
})

EXPORT void repro_barrett128(const u64 *hi, const u64 *lo, u64 *out,
                             i64 rows, i64 k, i64 n,
                             const u64 *p_arr, const u64 *two_p_arr,
                             const u64 *rhi_arr, const u64 *c64_arr,
                             const u64 *c64q_arr) {
    rowctx C = {0};
    C.a = hi;
    C.b = lo;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    C.two_p = two_p_arr;
    C.rhi = rhi_arr;
    C.c64 = c64_arr;
    C.c64q = c64q_arr;
    run_rows(job_barrett128_rows, &C, rows * k, 3 * n);
}

ROW_JOB(mul_mod, {
    const u64 p = C->p[j], two_p = C->two_p[j], rhi = C->rhi[j];
    const u64 c64 = C->c64[j], c64q = C->c64q[j];
    for (i64 i = 0; i < n; ++i) {
        const u128 pr = (u128)C->a[off + i] * C->b[off + i];
        C->o0[off + i] = reduce128((u64)(pr >> 64), (u64)pr,
                                   p, two_p, rhi, c64, c64q);
    }
})

EXPORT void repro_mul_mod(const u64 *a, const u64 *b, u64 *out,
                          i64 rows, i64 k, i64 n,
                          const u64 *p_arr, const u64 *two_p_arr,
                          const u64 *rhi_arr, const u64 *c64_arr,
                          const u64 *c64q_arr) {
    rowctx C = {0};
    C.a = a;
    C.b = b;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    C.two_p = two_p_arr;
    C.rhi = rhi_arr;
    C.c64 = c64_arr;
    C.c64q = c64q_arr;
    run_rows(job_mul_mod, &C, rows * k, 4 * n);
}

/* Fused multiply-add: one reduction after a*b + c (the paper's mad_mod).
 * The 128-bit sum wraps mod 2**128 exactly like the NumPy carry chain. */
ROW_JOB(mad_mod, {
    const u64 p = C->p[j], two_p = C->two_p[j], rhi = C->rhi[j];
    const u64 c64 = C->c64[j], c64q = C->c64q[j];
    for (i64 i = 0; i < n; ++i) {
        const u128 pr = (u128)C->a[off + i] * C->b[off + i] + C->c[off + i];
        C->o0[off + i] = reduce128((u64)(pr >> 64), (u64)pr,
                                   p, two_p, rhi, c64, c64q);
    }
})

EXPORT void repro_mad_mod(const u64 *a, const u64 *b, const u64 *c, u64 *out,
                          i64 rows, i64 k, i64 n,
                          const u64 *p_arr, const u64 *two_p_arr,
                          const u64 *rhi_arr, const u64 *c64_arr,
                          const u64 *c64q_arr) {
    rowctx C = {0};
    C.a = a;
    C.b = b;
    C.c = c;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    C.two_p = two_p_arr;
    C.rhi = rhi_arr;
    C.c64 = c64_arr;
    C.c64q = c64q_arr;
    run_rows(job_mad_mod, &C, rows * k, 4 * n);
}

/* Ciphertext tensor product (a0 b0, a0 b1 + a1 b0, a1 b1), each element
 * finished in one pass: three wide multiplies, three reductions.  Cross
 * products sum at 128 bits before the one reduction (valid for lazy NTT
 * operands < 2**63: the sum stays < 2**127). */
ROW_JOB(dyadic_product, {
    const u64 p = C->p[j], two_p = C->two_p[j], rhi = C->rhi[j];
    const u64 c64 = C->c64[j], c64q = C->c64q[j];
    for (i64 i = 0; i < n; ++i) {
        const u64 x0 = C->a[off + i], x1 = C->b[off + i];
        const u64 y0 = C->c[off + i], y1 = C->d[off + i];
        const u128 p00 = (u128)x0 * y0;
        const u128 p11 = (u128)x1 * y1;
        const u128 px = (u128)x0 * y1 + (u128)x1 * y0;
        C->o0[off + i] = reduce128((u64)(p00 >> 64), (u64)p00,
                                   p, two_p, rhi, c64, c64q);
        C->o1[off + i] = reduce128((u64)(px >> 64), (u64)px,
                                   p, two_p, rhi, c64, c64q);
        C->o2[off + i] = reduce128((u64)(p11 >> 64), (u64)p11,
                                   p, two_p, rhi, c64, c64q);
    }
})

EXPORT void repro_dyadic_product(const u64 *a0, const u64 *a1,
                                 const u64 *b0, const u64 *b1,
                                 u64 *o0, u64 *o1, u64 *o2,
                                 i64 rows, i64 k, i64 n,
                                 const u64 *p_arr, const u64 *two_p_arr,
                                 const u64 *rhi_arr, const u64 *c64_arr,
                                 const u64 *c64q_arr) {
    rowctx C = {0};
    C.a = a0;
    C.b = a1;
    C.c = b0;
    C.d = b1;
    C.o0 = o0;
    C.o1 = o1;
    C.o2 = o2;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    C.two_p = two_p_arr;
    C.rhi = rhi_arr;
    C.c64 = c64_arr;
    C.c64q = c64q_arr;
    run_rows(job_dyadic_product, &C, rows * k, 12 * n);
}

ROW_JOB(dyadic_square, {
    const u64 p = C->p[j], two_p = C->two_p[j], rhi = C->rhi[j];
    const u64 c64 = C->c64[j], c64q = C->c64q[j];
    for (i64 i = 0; i < n; ++i) {
        const u64 x0 = C->a[off + i], x1 = C->b[off + i];
        const u128 p00 = (u128)x0 * x0;
        const u128 p11 = (u128)x1 * x1;
        const u128 px = ((u128)x0 * x1) << 1; /* wraps mod 2^128 */
        C->o0[off + i] = reduce128((u64)(p00 >> 64), (u64)p00,
                                   p, two_p, rhi, c64, c64q);
        C->o1[off + i] = reduce128((u64)(px >> 64), (u64)px,
                                   p, two_p, rhi, c64, c64q);
        C->o2[off + i] = reduce128((u64)(p11 >> 64), (u64)p11,
                                   p, two_p, rhi, c64, c64q);
    }
})

EXPORT void repro_dyadic_square(const u64 *a0, const u64 *a1,
                                u64 *o0, u64 *o1, u64 *o2,
                                i64 rows, i64 k, i64 n,
                                const u64 *p_arr, const u64 *two_p_arr,
                                const u64 *rhi_arr, const u64 *c64_arr,
                                const u64 *c64q_arr) {
    rowctx C = {0};
    C.a = a0;
    C.b = a1;
    C.o0 = o0;
    C.o1 = o1;
    C.o2 = o2;
    C.k = k;
    C.n = n;
    C.p = p_arr;
    C.two_p = two_p_arr;
    C.rhi = rhi_arr;
    C.c64 = c64_arr;
    C.c64q = c64q_arr;
    run_rows(job_dyadic_square, &C, rows * k, 10 * n);
}

/* Canonical w*x mod p for a fixed per-limb Harvey operand w. */
ROW_JOB(mul_operand, {
    const u64 w = C->w[j], wq = C->wq[j], p = C->p[j];
    for (i64 i = 0; i < n; ++i)
        C->o0[off + i] = csub(harvey_lazy(C->a[off + i], w, wq, p), p);
})

EXPORT void repro_mul_operand(const u64 *x, u64 *out,
                              i64 rows, i64 k, i64 n,
                              const u64 *w_arr, const u64 *wq_arr,
                              const u64 *p_arr) {
    rowctx C = {0};
    C.a = x;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.w = w_arr;
    C.wq = wq_arr;
    C.p = p_arr;
    run_rows(job_mul_operand, &C, rows * k, 2 * n);
}

/* The divide-round tail: w*(m - r) mod p with r lazy in [0, 4p) —
 * one pass over the data instead of the serial oracle's ~12.  out may
 * alias r (the NTT-form mod-down computes r in the output row). */
static inline void lazy_diff_mul_row(u64 *out, const u64 *m, const u64 *r,
                                     i64 n, u64 w, u64 wq, u64 p) {
    const u64 four_p = 4 * p;
    for (i64 i = 0; i < n; ++i)
        out[i] = csub(harvey_lazy(m[i] + four_p - r[i], w, wq, p), p);
}

ROW_JOB(lazy_diff_mul_operand, {
    lazy_diff_mul_row(C->o0 + off, C->a + off, C->b + off, n,
                      C->w[j], C->wq[j], C->p[j]);
})

EXPORT void repro_lazy_diff_mul_operand(const u64 *m_arr, const u64 *r_arr,
                                        u64 *out, i64 rows, i64 k, i64 n,
                                        const u64 *w_arr, const u64 *wq_arr,
                                        const u64 *p_arr,
                                        const u64 *two_p_arr) {
    rowctx C = {0};
    C.a = m_arr;
    C.b = r_arr;
    C.o0 = out;
    C.k = k;
    C.n = n;
    C.w = w_arr;
    C.wq = wq_arr;
    C.p = p_arr;
    C.two_p = two_p_arr;
    run_rows(job_lazy_diff_mul_operand, &C, rows * k, 2 * n);
}

/* LastModulusScaler.divide_round fused: given the (k, n) residue matrix
 * whose last row holds the dropped modulus' residues, emit the (k-1, n)
 * divide-and-rounded kept rows.  Per element: Barrett64 of the dropped
 * residue into q_j, centered-representative correction, modular
 * difference, Harvey multiply by d^{-1} — one load/store per output.
 * Kept rows are independent, so the pool splits on j (a/b double as the
 * matrix/last-row pointers, w/wq as the d^{-1} Harvey operands, c64 as
 * the d-mod-p column). */
ROW_JOB(scaler_tail, {
    const u64 p = C->p[j], rhi = C->rhi[j];
    const u64 w = C->w[j], wq = C->wq[j], dm = C->c64[j];
    const u64 *row = C->a + off;
    u64 *orow = C->o0 + off;
    for (i64 i = 0; i < n; ++i) {
        const u64 lv = C->b[i];
        u64 rr = barrett64(lv, p, rhi);
        if (lv > C->half_d)
            rr = csub(rr + p - dm, p);
        const u64 diff = csub(row[i] + p - rr, p);
        orow[i] = csub(harvey_lazy(diff, w, wq, p), p);
    }
})

EXPORT void repro_scaler_tail(const u64 *matrix, u64 *out,
                              i64 k, i64 n, u64 half_d,
                              const u64 *p_arr, const u64 *rhi_arr,
                              const u64 *inv_w, const u64 *inv_wq,
                              const u64 *d_mod) {
    rowctx C = {0};
    C.a = matrix;
    C.b = matrix + (size_t)(k - 1) * n; /* dropped modulus' residues */
    C.o0 = out;
    C.k = k - 1;
    C.n = n;
    C.p = p_arr;
    C.rhi = rhi_arr;
    C.w = inv_w;
    C.wq = inv_wq;
    C.c64 = d_mod;
    C.half_d = half_d;
    run_rows(job_scaler_tail, &C, k - 1, 4 * n);
}

/* ---------------------------------------------------------------------------
 * NTT-form mod-down: divide-and-round by the last prime d of a k-row
 * stack, in NTT form (CkksContext.divide_round_drop_ntt, SEAL's
 * sequence).  For each batch b the dropped row is iNTT-ed once into
 * canonical coefficients `last`; then each kept row j is one pass over
 * one output row: Barrett of `last` into q_j, the centering correction
 * (subtract d mod q_j where the coefficient is above d/2), the lazy
 * forward NTT, and the lazy difference times d^{-1} against the kept
 * row m_j.  r lives in the output row itself, so `last` is the only
 * scratch.  Tables and constants are the stack's: rows 0..k-2 are the
 * kept primes, row k-1 (= kept) the dropped one.
 * ------------------------------------------------------------------------- */

typedef struct {
    const u64 *m;       /* kept row j of batch b at m + (b*mk + j)*n */
    u64 *last;          /* dropped row of batch b at last + b*stride */
    u64 *out;           /* (batch, kept, n) */
    i64 mk, stride, batch, kept, n;
    const u64 *w, *wq, *iw, *iwq;               /* (k, n) */
    const u64 *p, *two_p, *rhi, *ninv_w, *ninv_q; /* (k,) */
    const u64 *inv_w, *inv_wq, *d_mod;          /* (kept,) */
} mdctx;

static void job_moddown_last(void *vctx, i64 begin, i64 end) {
    const mdctx *C = (const mdctx *)vctx;
    const i64 d = C->kept, n = C->n;
    for (i64 b = begin; b < end; ++b)
        ntt_rows->inv(C->last + (size_t)b * C->stride, n,
                      C->iw + (size_t)d * n, C->iwq + (size_t)d * n,
                      C->p[d], C->two_p[d], C->ninv_w[d], C->ninv_q[d], 0);
}

static void job_moddown_rows(void *vctx, i64 begin, i64 end) {
    const mdctx *C = (const mdctx *)vctx;
    const i64 n = C->n;
    const u64 half = C->p[C->kept] >> 1;
    const ntt_row_set *rows = ntt_rows;
    for (i64 u = begin; u < end; ++u) {
        const i64 b = u / C->kept, j = u % C->kept;
        const u64 *last = C->last + (size_t)b * C->stride;
        const u64 p = C->p[j], dm = C->d_mod[j];
        u64 *o = C->out + (size_t)u * n;
        rows->barrett(o, last, n, p, C->rhi[j]);
        for (i64 i = 0; i < n; ++i)
            o[i] = csub(o[i] + p - (last[i] > half ? dm : 0), p);
        rows->fwd(o, n, C->w + (size_t)j * n, C->wq + (size_t)j * n,
                  p, C->two_p[j], 1);
        lazy_diff_mul_row(o, C->m + ((size_t)b * C->mk + j) * n, o, n,
                          C->inv_w[j], C->inv_wq[j], p);
    }
}

static void moddown(const mdctx *C) {
    run_rows(job_moddown_last, (void *)C, C->batch, 12 * C->n);
    run_rows(job_moddown_rows, (void *)C, C->batch * C->kept, 16 * C->n);
}

/* matrix (batch, k, n) -> out (batch, k-1, n); `last` is (batch, n)
 * scratch for the dropped rows. */
EXPORT void repro_divide_round_drop(const u64 *matrix, u64 *last, u64 *out,
                                    i64 batch, i64 k, i64 n,
                                    const u64 *w, const u64 *wq,
                                    const u64 *iw, const u64 *iwq,
                                    const u64 *p_arr, const u64 *two_p_arr,
                                    const u64 *rhi_arr,
                                    const u64 *ninv_w, const u64 *ninv_q,
                                    const u64 *inv_w, const u64 *inv_wq,
                                    const u64 *d_mod) {
    for (i64 b = 0; b < batch; ++b)
        memcpy(last + (size_t)b * n, matrix + ((size_t)b * k + k - 1) * n,
               (size_t)n * sizeof(u64));
    const mdctx C = {matrix, last, out, k, n, batch, k - 1, n,
                     w, wq, iw, iwq, p_arr, two_p_arr, rhi_arr,
                     ninv_w, ninv_q, inv_w, inv_wq, d_mod};
    moddown(&C);
}

/* ---------------------------------------------------------------------------
 * Key-switch dyadic half: acc[c, r] = sum_i D[i, r] * key_i[c][row_r]
 * (mod p_r) for both key components c and every target row r (the
 * level primes, then the special prime), then the mod-down by the
 * special prime onto the level primes — the paper's mad_mod
 * accumulation with no intermediate writeback (Sec. III-A.1).
 *
 * Each output is accumulated in 128 bits over the source primes and
 * reduced once (Harvey's lazy reduction).  D and the keys are canonical
 * (< p_r), so a term is below 2^(2b) for a b-bit p_r: 2^(128 - 2b) terms
 * plus a carried canonical value stay below 2^128, and the sum is
 * reduced early after each such group (every 64 terms for 61-bit
 * primes).  reduce128 of the exact sum is the canonical residue the
 * serial mad_mod chain ends on, so the output is bit-identical.
 *
 * The key rows are read in place: key_ptrs holds the address of each
 * source prime's (2, K, n) key block and key_rows the key-base row of
 * each target row, so no row is gathered or copied.  The pool splits
 * the accumulation on target rows; `acc` is the (2, T, n) scratch of
 * canonical sums, whose special-prime rows the mod-down iNTTs in place.
 * Tables and constants are the (T,)-row target stack's.
 * ------------------------------------------------------------------------- */

#define KS_BLOCK 256

typedef struct {
    const u64 *D;
    const u64 *keys;    /* (level,) addresses of the (2, K, n) key blocks */
    const i64 *key_rows;
    u64 *acc;
    i64 level, T, K, n;
    const u64 *p, *two_p, *rhi, *c64, *c64q;
} kactx;

static inline void reduce_block(u128 *a, i64 len, u64 p, u64 two_p, u64 rhi,
                                u64 c64, u64 c64q) {
    for (i64 c = 0; c < len; ++c)
        a[c] = reduce128((u64)(a[c] >> 64), (u64)a[c],
                         p, two_p, rhi, c64, c64q);
}

static void job_ks_accumulate(void *vctx, i64 begin, i64 end) {
    const kactx *C = (const kactx *)vctx;
    const i64 n = C->n, T = C->T;
    u128 a0[KS_BLOCK], a1[KS_BLOCK];
    for (i64 r = begin; r < end; ++r) {
        const u64 p = C->p[r], two_p = C->two_p[r], rhi = C->rhi[r];
        const u64 c64 = C->c64[r], c64q = C->c64q[r];
        const int bits = 64 - __builtin_clzll(p);
        const i64 group = 128 - 2 * bits >= 62 ? C->level
                          : (i64)1 << (128 - 2 * bits);
        const size_t k0 = (size_t)C->key_rows[r] * n;
        const size_t k1 = k0 + (size_t)C->K * n;
        u64 *out0 = C->acc + (size_t)r * n;
        u64 *out1 = out0 + (size_t)T * n;
        for (i64 b0 = 0; b0 < n; b0 += KS_BLOCK) {
            const i64 len = n - b0 < KS_BLOCK ? n - b0 : KS_BLOCK;
            memset(a0, 0, (size_t)len * sizeof(u128));
            memset(a1, 0, (size_t)len * sizeof(u128));
            for (i64 i = 0; i < C->level; ++i) {
                if (i > 0 && i % group == 0) {
                    reduce_block(a0, len, p, two_p, rhi, c64, c64q);
                    reduce_block(a1, len, p, two_p, rhi, c64, c64q);
                }
                const u64 *d = C->D + ((size_t)i * T + r) * n + b0;
                const u64 *key = (const u64 *)(uintptr_t)C->keys[i];
                const u64 *x0 = key + k0 + b0;
                const u64 *x1 = key + k1 + b0;
                for (i64 c = 0; c < len; ++c) {
                    a0[c] += (u128)d[c] * x0[c];
                    a1[c] += (u128)d[c] * x1[c];
                }
            }
            for (i64 c = 0; c < len; ++c) {
                out0[b0 + c] = reduce128((u64)(a0[c] >> 64), (u64)a0[c],
                                         p, two_p, rhi, c64, c64q);
                out1[b0 + c] = reduce128((u64)(a1[c] >> 64), (u64)a1[c],
                                         p, two_p, rhi, c64, c64q);
            }
        }
    }
}

/* D (level, T, n) with T = level + 1, key blocks (2, K, n) -> out
 * (2, level, n), through the (2, T, n) scratch acc. */
EXPORT void repro_ks_accumulate(const u64 *D, const u64 *key_ptrs,
                                const i64 *key_rows, u64 *acc, u64 *out,
                                i64 level, i64 K, i64 n,
                                const u64 *w, const u64 *wq,
                                const u64 *iw, const u64 *iwq,
                                const u64 *p_arr, const u64 *two_p_arr,
                                const u64 *rhi_arr, const u64 *c64_arr,
                                const u64 *c64q_arr,
                                const u64 *ninv_w, const u64 *ninv_q,
                                const u64 *inv_w, const u64 *inv_wq,
                                const u64 *d_mod) {
    const i64 T = level + 1;
    const kactx A = {D, key_ptrs, key_rows, acc, level, T, K, n,
                     p_arr, two_p_arr, rhi_arr, c64_arr, c64q_arr};
    run_rows(job_ks_accumulate, (void *)&A, T, 8 * level * n);
    const mdctx C = {acc, acc + (size_t)level * n, out, T, T * n, 2, level,
                     n, w, wq, iw, iwq, p_arr, two_p_arr, rhi_arr,
                     ninv_w, ninv_q, inv_w, inv_wq, d_mod};
    moddown(&C);
}

/* Sanity hook: lets the loader verify the ABI after a cache hit.
 * v2: threaded row pool + repro_ks_decompose + thread controls.
 * v3: load-time NTT row selection (repro_native_ntt_isa and
 *     repro_native_force_scalar_rows).
 * v4: repro_ks_accumulate and repro_divide_round_drop. */
EXPORT i64 repro_native_abi_version(void) {
    return 4;
}
