/* The R-MAT level loop over an xoshiro256** state ([Rng.t]).
 *
 * Per edge, [scale] levels each take one xoshiro256** step, keep the top
 * 53 bits [x] of its output, and pick the quadrant [q] of [x]: the number
 * of thresholds [ta <= tab <= tabc] that are <= [x] (0 = a, 1 = b, 2 = c,
 * 3 = d; the thresholds are those [Generators.rmat_fill] derives from the
 * quadrant probabilities).  Bit 1 of [q] is the level's bit of the source
 * endpoint and bit 0 that of the destination.  The step is [Rng.int64]'s
 * and [x] is [Rng.bits53]'s, so the edges are those of the per-level
 * float chain the tests compare against.
 *
 * Threshold normalization.  [Rng.rmat_edges] promises the source bit
 * [x >= ta && x >= tab] and the destination bit
 * [x >= ta && (x < tab || x >= tabc)] for any three thresholds.  With
 * [tab' = max ta tab] and [tabc' = max tab' tabc] these are
 * [x >= tab'] and [x >= ta && (x < tab' || x >= tabc')]: given [x >= ta],
 * [x < tab] iff [x < tab']; given also [x >= tab'], [x >= tabc] iff
 * [x >= tabc'].  Those are bits 1 and 0 of the count of
 * [ta <= tab' <= tabc'] that are <= [x], so the kernel counts against the
 * normalized thresholds.  Compares are signed, as OCaml's are.
 *
 * Quadrant table.  The count is monotone in [x], so over an interval it
 * is constant iff it is equal at both ends.  The table has one byte per
 * bucket of 2^43 values of [x] (1,024 buckets, indexed by the top 10 bits
 * of [x], i.e. [r >> 54] of the 64-bit output [r]): the count at both
 * ends of the bucket when they agree, otherwise [CUT], and then the three
 * exact compares decide.  A threshold cuts a bucket only if it lies
 * strictly inside it (one at the bucket's first value, such as
 * [ta = 2^51], counts for the whole bucket), so at most 3 of the 1,024
 * buckets are cut and almost every level is one lookup.  The table is
 * built on every call, by [quadrant_table] in four [memset]s and at most
 * three marks: about 65 ns, under 0.1% of a 2,048-edge call at scale 16.
 *
 * Quadrants are accumulated at 2 bits per level into one word per group
 * of at most 32 levels, and split into the two endpoints' bits once per
 * group by [even_bits], a portable shift/mask bit compaction.
 *
 * The state is the 32-byte [Bytes.t] of [rng.ml]: four native-endian
 * 64-bit words s0..s3, read into locals once per call and written back
 * before returning, so the caller's next draw continues the stream.
 *
 * Like [flat_atomic_stubs.c], the stub stores only immediates into the
 * [int array]s, so it needs no write barrier, and it allocates nothing, so
 * it is declared [@@noalloc].  A domain inside a [@@noalloc] call does not
 * answer a stop-the-world minor-GC request: every other domain waits until
 * the call returns.  Callers therefore hand it bounded sub-ranges (a few
 * thousand edges, about 0.11 ms at scale 16) rather than a whole chunk. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#define BUCKET_BITS 10
#define BUCKETS (1 << BUCKET_BITS)
/* log2 of a bucket's width in [x]: 53 - BUCKET_BITS. */
#define BUCKET_SHIFT 43
#define CUT 4

static inline uint64_t rotl(uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
}

static inline unsigned quadrant(int64_t x, int64_t ta, int64_t tab,
                                int64_t tabc)
{
  return (x >= ta) + (x >= tab) + (x >= tabc);
}

/* Bits 0, 2, 4, ..., 62 of [w], packed into bits 0..31. */
static inline uint64_t even_bits(uint64_t w)
{
  w &= 0x5555555555555555ULL;
  w = (w | (w >> 1)) & 0x3333333333333333ULL;
  w = (w | (w >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  w = (w | (w >> 4)) & 0x00FF00FF00FF00FFULL;
  w = (w | (w >> 8)) & 0x0000FFFF0000FFFFULL;
  return (w | (w >> 16)) & 0x00000000FFFFFFFFULL;
}

/* Fills [table] for the thresholds [t0 <= t1 <= t2].  Bucket [i] covers
 * [lo, lo + 2^43) with [lo = i * 2^43], so its count at [lo] is the [q]
 * with [t_(q-1) <= lo < t_q]: the buckets from [ceil (t_(q-1) / 2^43)] up
 * to [ceil (t_q / 2^43)] hold [q].  A threshold strictly inside a bucket
 * then marks that bucket [CUT]. */
static void quadrant_table(unsigned char *table, int64_t t0, int64_t t1,
                           int64_t t2)
{
  const int64_t t[3] = { t0, t1, t2 };
  const int64_t width = (int64_t)1 << BUCKET_SHIFT;
  const int64_t end = (int64_t)BUCKETS << BUCKET_SHIFT;
  int from = 0;
  for (int q = 0; q < 3; q++) {
    int upto = t[q] <= 0 ? 0
      : t[q] >= end ? BUCKETS
      : (int)((t[q] + width - 1) >> BUCKET_SHIFT);
    if (upto > from) {
      memset(table + from, q, upto - from);
      from = upto;
    }
  }
  memset(table + from, 3, BUCKETS - from);
  for (int q = 0; q < 3; q++)
    if (t[q] > 0 && t[q] < end && (t[q] & (width - 1)) != 0)
      table[t[q] >> BUCKET_SHIFT] = CUT;
}

/* Edges [from, upto) into [src]/[dst]; returns the index of the first
 * self-loop when [simple] is set (its endpoints are stored, the state is
 * written back), otherwise [upto]. */
CAMLprim value dsu_rng_rmat_edges(value rng, value vscale, value vta,
                                  value vtab, value vtabc, value vsimple,
                                  value src, value dst, value vfrom,
                                  value vupto)
{
  uint64_t s[4];
  memcpy(s, Bytes_val(rng), sizeof s);
  uint64_t s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
  const intnat scale = Long_val(vscale);
  const int64_t ta = Long_val(vta);
  int64_t tab = Long_val(vtab);
  int64_t tabc = Long_val(vtabc);
  if (tab < ta) tab = ta;
  if (tabc < tab) tabc = tab;
  const int simple = Bool_val(vsimple);
  const intnat upto = Long_val(vupto);
  unsigned char table[BUCKETS];
  quadrant_table(table, ta, tab, tabc);
  intnat k;
  for (k = Long_val(vfrom); k < upto; k++) {
    uint64_t u = 0, v = 0;
    for (intnat left = scale; left > 0; left -= 32) {
      const int levels = left < 32 ? (int)left : 32;
      uint64_t w = 0;
      for (int level = 0; level < levels; level++) {
        uint64_t r = rotl(s1 * 5, 7) * 9;
        uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
        unsigned q = table[r >> (64 - BUCKET_BITS)];
        if (q == CUT) q = quadrant((int64_t)(r >> 11), ta, tab, tabc);
        w = (w << 2) | q;
      }
      u = (u << levels) | even_bits(w >> 1);
      v = (v << levels) | even_bits(w);
    }
    /* Tagging keeps the bits an OCaml [int] has, as [lsl] would. */
    value tu = Val_long((intnat)u), tv = Val_long((intnat)v);
    Field(src, k) = tu;
    Field(dst, k) = tv;
    if (simple && tu == tv) break;
  }
  s[0] = s0;
  s[1] = s1;
  s[2] = s2;
  s[3] = s3;
  memcpy(Bytes_val(rng), s, sizeof s);
  return Val_long(k);
}

CAMLprim value dsu_rng_rmat_edges_byte(value *argv, int argn)
{
  (void)argn;
  return dsu_rng_rmat_edges(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], argv[6], argv[7], argv[8], argv[9]);
}
