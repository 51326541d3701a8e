#pragma once

// In-house FFT substrate for the long-range Poisson solver.  HACC's
// long-range gravity uses a distributed-memory FFT; at our single-node
// scale a threaded 3-D transform over pencils exercises the same code path.
// Radix-2 iterative Cooley-Tukey; sizes must be powers of two.
//
// Two performance-critical refinements over a textbook implementation:
//  - butterfly twiddles come from precomputed per-stage tables whose entries
//    are evaluated directly per index (no running `w *= wlen` product, so no
//    accumulated rounding drift on long transforms), and
//  - the strided Y/X passes of the 3-D transforms run through cache-blocked
//    tile transposes so the butterflies always see unit-stride data.
//
// Real fields use the half-spectrum pair forward_r2c / inverse_c2r: two real
// pencil samples are packed per complex slot, transformed at half length and
// untangled via Hermitian symmetry, halving both flops and memory traffic
// relative to a complex transform of the same real data.

#include <complex>
#include <span>
#include <vector>

#include "util/thread_pool.hpp"

namespace hacc::fft {

using cplx = std::complex<double>;

// Complex product (ar*br - ai*bi, ar*bi + ai*br): the arithmetic of GCC's
// inline `a * b`, so finite operands give bitwise-equal results, minus the
// NaN-recovery branch into __muldc3 that `a * b` puts in every hot loop.
// Keep operand order (and any 0*x terms: they carry the signed-zero bits)
// when rewriting a product with it.
inline cplx mul(cplx a, cplx b) {
  return cplx(a.real() * b.real() - a.imag() * b.imag(),
              a.real() * b.imag() + a.imag() * b.real());
}

// True when n is a power of two and >= 2.
bool is_pow2(int n);

// Per-stage butterfly twiddle tables for transforms of size <= n: stage
// `len` holds w^k = exp(-/+ 2*pi*i*k/len) for k in [0, len/2), each computed
// directly from its index.  A table built for n serves every power-of-two
// size up to n.
class Twiddles {
 public:
  explicit Twiddles(int n);

  int n() const { return n_; }

  // Twiddles of the butterfly stage of width `len` (len/2 entries).
  const cplx* stage(int len, bool inverse) const {
    return (inverse ? inv_ : fwd_).data() + (len / 2 - 1);
  }

 private:
  int n_;
  std::vector<cplx> fwd_, inv_;  // stages concatenated; stage len at len/2 - 1
};

// Process-wide cache of twiddle tables keyed by size (thread-safe; entries
// live for the process lifetime).
const Twiddles& twiddles_for(int n);

// In-place 1-D transform of n contiguous values.  inverse=true applies the
// conjugate transform WITHOUT the 1/n normalization (the 3-D wrapper
// normalizes once).  The first overload pulls its table from the cache; hot
// loops should look the table up once and use the second.
void fft_1d(cplx* data, int n, bool inverse);
void fft_1d(cplx* data, int n, bool inverse, const Twiddles& tw);

// Threaded 3-D transform on an n^3 grid stored as idx = (ix*n + iy)*n + iz.
class Fft3D {
 public:
  explicit Fft3D(int n, util::ThreadPool& pool = util::ThreadPool::global());

  int n() const { return n_; }
  std::size_t size() const { return static_cast<std::size_t>(n_) * n_ * n_; }

  // Complex-to-complex transforms (the general-purpose path).
  void forward(std::vector<cplx>& grid) const;
  // Inverse including the 1/n^3 normalization, so inverse(forward(x)) == x.
  void inverse(std::vector<cplx>& grid) const;

  // --- Real-to-complex half-spectrum path ---------------------------------
  // A real field on the n^3 grid has a Hermitian spectrum; only the
  // iz in [0, n/2] half needs to be stored.  Layout:
  //   half[(ix*n + iy)*(n/2 + 1) + iz],  iz in [0, n/2].
  int half_nz() const { return n_ / 2 + 1; }
  std::size_t half_size() const {
    return static_cast<std::size_t>(n_) * n_ * half_nz();
  }

  // Unnormalized forward DFT of a real n^3 field into the half spectrum.
  // `real` must have size() elements; `half` is resized to half_size().
  void forward_r2c(std::span<const double> real, std::vector<cplx>& half) const;

  // Inverse of forward_r2c including the 1/n^3 normalization.  `half` is
  // used as scratch (destroyed); `real` must have size() elements.  The
  // input is assumed Hermitian (as produced by forward_r2c, optionally
  // multiplied by symmetry-preserving k-space factors).
  void inverse_c2r(std::vector<cplx>& half, std::span<double> real) const;

 private:
  // Unit-stride transforms along z: one call of len `len` per pencil.
  void transform_pencils(cplx* data, std::int64_t n_pencils, int len,
                         bool inverse) const;
  // Strided-axis transforms through cache-blocked tile transposes.  Pencils
  // of length `len` and element stride `stride` are enumerated as
  // base = outer*outer_stride + inner with unit-stride `inner`; tiles of
  // adjacent pencils are transposed into a contiguous scratch block,
  // transformed, and scattered back.
  void transform_strided(cplx* data, int len, std::int64_t outer_count,
                         std::size_t outer_stride, int inner_count,
                         std::size_t stride, bool inverse) const;

  int n_;
  util::ThreadPool* pool_;
  const Twiddles* tw_;               // size n (serves n and n/2)
  std::vector<cplx> unpack_;         // exp(-2*pi*i*k/n), k in [0, n/2)
};

}  // namespace hacc::fft
