#include "fft/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/trace.hpp"

namespace hacc::fft {

bool is_pow2(int n) { return n >= 2 && (n & (n - 1)) == 0; }

Twiddles::Twiddles(int n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("Twiddles: size must be a power of two");
  fwd_.resize(static_cast<std::size_t>(n) - 1);
  inv_.resize(static_cast<std::size_t>(n) - 1);
  for (int len = 2; len <= n; len <<= 1) {
    const std::size_t off = static_cast<std::size_t>(len / 2) - 1;
    for (int k = 0; k < len / 2; ++k) {
      // Evaluated directly per index: a running product w *= wlen accumulates
      // O(len * eps) phase error on long stages; this stays at O(eps).
      const double ang = -2.0 * M_PI * k / len;
      fwd_[off + k] = cplx(std::cos(ang), std::sin(ang));
      inv_[off + k] = cplx(std::cos(ang), -std::sin(ang));
    }
  }
}

const Twiddles& twiddles_for(int n) {
  static std::mutex mu;
  static std::map<int, std::unique_ptr<Twiddles>> cache;
  std::lock_guard lock(mu);
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<Twiddles>(n);
  return *slot;
}

void fft_1d(cplx* data, int n, bool inverse, const Twiddles& tw) {
  assert(is_pow2(n));
  if (tw.n() < n) {
    // Always-on: a too-small table would index past the stage arrays.
    throw std::invalid_argument("fft_1d: twiddle table smaller than transform");
  }
  // Bit-reversal permutation.
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  // Iterative butterflies on tabulated twiddles.
  for (int len = 2; len <= n; len <<= 1) {
    const cplx* w = tw.stage(len, inverse);
    const int half = len / 2;
    for (int i = 0; i < n; i += len) {
      cplx* lo = data + i;
      cplx* hi = lo + half;
      for (int k = 0; k < half; ++k) {
        const cplx u = lo[k];
        const cplx v = mul(hi[k], w[k]);
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

void fft_1d(cplx* data, int n, bool inverse) { fft_1d(data, n, inverse, twiddles_for(n)); }

Fft3D::Fft3D(int n, util::ThreadPool& pool)
    : n_(n), pool_(&pool), tw_(&twiddles_for(n)) {
  if (!is_pow2(n)) throw std::invalid_argument("Fft3D: grid size must be a power of two");
  unpack_.resize(static_cast<std::size_t>(n) / 2);
  for (int k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * M_PI * k / n;
    unpack_[k] = cplx(std::cos(ang), std::sin(ang));
  }
}

void Fft3D::transform_pencils(cplx* data, std::int64_t n_pencils, int len,
                              bool inverse) const {
  const Twiddles& tw = *tw_;
  // shared: data (disjoint pencil rows per index; no cross-chunk writes).
  pool_->parallel_for_chunks(n_pencils, /*chunk=*/8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t p = b; p < e; ++p) {
      fft_1d(data + p * len, len, inverse, tw);
    }
  });
}

void Fft3D::transform_strided(cplx* data, int len, std::int64_t outer_count,
                              std::size_t outer_stride, int inner_count,
                              std::size_t stride, bool inverse) const {
  // Tile kTile adjacent (unit-stride) pencils: the gather/scatter then moves
  // kTile contiguous elements per touched cache line instead of one, and the
  // butterflies run on unit-stride rows of the scratch block.
  constexpr int kTile = 8;
  const int n_tiles = (inner_count + kTile - 1) / kTile;
  const std::int64_t items = outer_count * n_tiles;
  const std::int64_t chunk = std::max<std::int64_t>(
      1, items / (static_cast<std::int64_t>(pool_->size()) * 8));
  const Twiddles& tw = *tw_;
  // shared: data (disjoint outer x tile blocks per index; buf is per-chunk).
  pool_->parallel_for_chunks(items, chunk, [&](std::int64_t b, std::int64_t e) {
    std::vector<cplx> buf(static_cast<std::size_t>(kTile) * len);
    for (std::int64_t it = b; it < e; ++it) {
      const std::int64_t outer = it / n_tiles;
      const int c0 = static_cast<int>(it % n_tiles) * kTile;
      const int tb = std::min(kTile, inner_count - c0);
      cplx* base = data + outer * outer_stride + c0;
      for (int i = 0; i < len; ++i) {
        const cplx* src = base + static_cast<std::size_t>(i) * stride;
        for (int t = 0; t < tb; ++t) buf[static_cast<std::size_t>(t) * len + i] = src[t];
      }
      for (int t = 0; t < tb; ++t) {
        fft_1d(buf.data() + static_cast<std::size_t>(t) * len, len, inverse, tw);
      }
      for (int i = 0; i < len; ++i) {
        cplx* dst = base + static_cast<std::size_t>(i) * stride;
        for (int t = 0; t < tb; ++t) dst[t] = buf[static_cast<std::size_t>(t) * len + i];
      }
    }
  });
}

void Fft3D::forward(std::vector<cplx>& grid) const {
  assert(grid.size() == size());
  const obs::TraceSpan span("fft.forward");
  const int n = n_;
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  transform_pencils(grid.data(), static_cast<std::int64_t>(nn), n, false);  // z
  transform_strided(grid.data(), n, n, nn, n, n, false);                    // y
  transform_strided(grid.data(), n, n, n, n, nn, false);                    // x
}

void Fft3D::inverse(std::vector<cplx>& grid) const {
  assert(grid.size() == size());
  const obs::TraceSpan span("fft.inverse");
  const int n = n_;
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  transform_pencils(grid.data(), static_cast<std::int64_t>(nn), n, true);  // z
  transform_strided(grid.data(), n, n, nn, n, n, true);                    // y
  transform_strided(grid.data(), n, n, n, n, nn, true);                    // x
  const double norm = 1.0 / static_cast<double>(size());
  // shared: grid (element-wise scale, disjoint index ranges).
  pool_->parallel_for_chunks(static_cast<std::int64_t>(grid.size()), 4096,
                             [&](std::int64_t b, std::int64_t e) {
                               for (std::int64_t i = b; i < e; ++i) grid[i] *= norm;
                             });
}

void Fft3D::forward_r2c(std::span<const double> real, std::vector<cplx>& half) const {
  assert(real.size() == size());
  const int n = n_;
  const int n2 = n / 2;
  const int nh = half_nz();
  half.resize(half_size());
  const std::int64_t n_pencils = static_cast<std::int64_t>(n) * n;
  const Twiddles& tw = *tw_;
  // z: real pencils packed two samples per complex slot, transformed at half
  // length, untangled through Hermitian symmetry into nh = n/2 + 1 modes.
  {
    const obs::TraceSpan pass("fft.r2c_z");
    // shared: half (disjoint pencil rows per index).
    pool_->parallel_for_chunks(n_pencils, /*chunk=*/8, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t p = b; p < e; ++p) {
        const double* x = real.data() + p * n;
        cplx* row = half.data() + p * nh;
        for (int j = 0; j < n2; ++j) row[j] = cplx(x[2 * j], x[2 * j + 1]);
        if (n2 >= 2) fft_1d(row, n2, false, tw);
        const cplx z0 = row[0];
        row[0] = cplx(z0.real() + z0.imag(), 0.0);
        row[n2] = cplx(z0.real() - z0.imag(), 0.0);
        for (int k = 1; 2 * k <= n2; ++k) {
          const cplx zk = row[k];
          const cplx zc = std::conj(row[n2 - k]);
          const cplx even = 0.5 * (zk + zc);
          const cplx odd = 0.5 * (zk - zc);
          const cplx t = mul(mul(cplx(0.0, -1.0), unpack_[k]), odd);
          row[k] = even + t;
          row[n2 - k] = std::conj(even - t);
        }
      }
    });
  }
  const std::size_t plane = static_cast<std::size_t>(n) * nh;
  {
    const obs::TraceSpan pass("fft.r2c_y");
    transform_strided(half.data(), n, n, plane, nh, nh, false);  // y
  }
  {
    const obs::TraceSpan pass("fft.r2c_x");
    transform_strided(half.data(), n, n, nh, nh, plane, false);  // x
  }
}

void Fft3D::inverse_c2r(std::vector<cplx>& half, std::span<double> real) const {
  assert(half.size() == half_size() && real.size() == size());
  const int n = n_;
  const int n2 = n / 2;
  const int nh = half_nz();
  const std::size_t plane = static_cast<std::size_t>(n) * nh;
  {
    const obs::TraceSpan pass("fft.c2r_x");
    transform_strided(half.data(), n, n, nh, nh, plane, true);  // x
  }
  {
    const obs::TraceSpan pass("fft.c2r_y");
    transform_strided(half.data(), n, n, plane, nh, nh, true);  // y
  }
  // z: retangle the half spectrum into the packed half-length spectrum,
  // inverse-transform, and unpack the interleaved real samples.  The single
  // 1/n^3 normalization of the whole inverse is folded into `scale` (the two
  // strided passes above are unnormalized, contributing n^2; the half-length
  // inverse contributes n/2).
  const double scale = 2.0 / (static_cast<double>(n) * n * n);
  const std::int64_t n_pencils = static_cast<std::int64_t>(n) * n;
  const Twiddles& tw = *tw_;
  const obs::TraceSpan pass("fft.c2r_z");
  // shared: half, real (disjoint pencil rows per index).
  pool_->parallel_for_chunks(n_pencils, /*chunk=*/8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t p = b; p < e; ++p) {
      cplx* row = half.data() + p * nh;
      double* x = real.data() + p * n;
      const cplx x0 = row[0];
      const cplx xn = row[n2];
      row[0] = 0.5 * cplx(x0.real() + xn.real(), x0.real() - xn.real());
      for (int k = 1; 2 * k <= n2; ++k) {
        const cplx xk = row[k];
        const cplx xc = std::conj(row[n2 - k]);
        const cplx a = 0.5 * (xk + xc);
        const cplx b2 = 0.5 * (xk - xc);
        const cplx t = mul(mul(cplx(0.0, 1.0), std::conj(unpack_[k])), b2);
        row[k] = a + t;
        row[n2 - k] = std::conj(a - t);
      }
      if (n2 >= 2) fft_1d(row, n2, true, tw);
      for (int j = 0; j < n2; ++j) {
        x[2 * j] = row[j].real() * scale;
        x[2 * j + 1] = row[j].imag() * scale;
      }
    }
  });
}

}  // namespace hacc::fft
