/* The R-MAT level loop over an xoshiro256** state ([Rng.t]).
 *
 * Per edge, [scale] levels each take one xoshiro256** step, keep the top
 * 53 bits [x] of its output, and append one bit to each endpoint from the
 * three compares [x >= ta], [x >= tab], [x >= tabc] (the thresholds that
 * [Generators.rmat_fill] derives from the quadrant probabilities).  The
 * step is [Rng.int64]'s and [x] is [Rng.bits53]'s, so the edges are those
 * of the per-level float chain the tests compare against; in C the
 * compares are plain flags and [u]/[v] stay in registers, untagged.
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
 * thousand edges, about 0.14 ms at scale 16) rather than a whole chunk. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static inline uint64_t rotl(uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
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
  const uint64_t ta = (uint64_t)Long_val(vta);
  const uint64_t tab = (uint64_t)Long_val(vtab);
  const uint64_t tabc = (uint64_t)Long_val(vtabc);
  const int simple = Bool_val(vsimple);
  const intnat upto = Long_val(vupto);
  intnat k;
  for (k = Long_val(vfrom); k < upto; k++) {
    uint64_t u = 0, v = 0;
    for (intnat level = 0; level < scale; level++) {
      uint64_t x = (rotl(s1 * 5, 7) * 9) >> 11;
      uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = rotl(s3, 45);
      uint64_t ge_a = x >= ta, ge_ab = x >= tab, ge_abc = x >= tabc;
      u = (u << 1) | (ge_a & ge_ab);
      v = (v << 1) | (ge_a & ((ge_ab ^ 1) | ge_abc));
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
