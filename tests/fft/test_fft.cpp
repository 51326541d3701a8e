#include "fft/fft.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace hacc::fft {
namespace {

class Fft1D : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1D, ::testing::Values(2, 4, 8, 16, 64, 256, 1024),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST_P(Fft1D, RoundTripRecoversInput) {
  const int n = GetParam();
  util::CounterRng rng(3);
  std::vector<cplx> x(n), orig(n);
  for (int i = 0; i < n; ++i) x[i] = orig[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
  fft_1d(x.data(), n, false);
  fft_1d(x.data(), n, true);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real() / n, orig[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag() / n, orig[i].imag(), 1e-9);
  }
}

TEST_P(Fft1D, DeltaTransformsToConstant) {
  const int n = GetParam();
  std::vector<cplx> x(n, 0.0);
  x[0] = 1.0;
  fft_1d(x.data(), n, false);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), 1.0, 1e-10);
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-10);
  }
}

TEST_P(Fft1D, ParsevalHolds)
{
  const int n = GetParam();
  util::CounterRng rng(17);
  std::vector<cplx> x(n);
  double time_energy = 0.0;
  for (int i = 0; i < n; ++i) {
    x[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
    time_energy += std::norm(x[i]);
  }
  fft_1d(x.data(), n, false);
  double freq_energy = 0.0;
  for (int k = 0; k < n; ++k) freq_energy += std::norm(x[k]);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-6 * std::max(1.0, time_energy));
}

TEST(Fft1DBasics, SingleModeLandsInCorrectBin) {
  constexpr int n = 32;
  constexpr int mode = 5;
  std::vector<cplx> x(n);
  for (int i = 0; i < n; ++i) {
    const double phase = 2.0 * M_PI * mode * i / n;
    x[i] = {std::cos(phase), std::sin(phase)};  // e^{+i 2π m i / n}
  }
  fft_1d(x.data(), n, false);
  for (int k = 0; k < n; ++k) {
    const double expected = (k == mode) ? n : 0.0;
    EXPECT_NEAR(x[k].real(), expected, 1e-9) << "bin " << k;
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-9) << "bin " << k;
  }
}

TEST(Fft1DBasics, Linearity) {
  constexpr int n = 64;
  util::CounterRng rng(5);
  std::vector<cplx> a(n), b(n), sum(n);
  for (int i = 0; i < n; ++i) {
    a[i] = {rng.normal(2 * i), 0.0};
    b[i] = {0.0, rng.normal(2 * i + 1)};
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  fft_1d(a.data(), n, false);
  fft_1d(b.data(), n, false);
  fft_1d(sum.data(), n, false);
  for (int k = 0; k < n; ++k) {
    const cplx expect = 2.0 * a[k] + 3.0 * b[k];
    EXPECT_NEAR(sum[k].real(), expect.real(), 1e-8);
    EXPECT_NEAR(sum[k].imag(), expect.imag(), 1e-8);
  }
}

TEST(Fft1DBasics, RealInputHasHermitianSpectrum) {
  constexpr int n = 128;
  util::CounterRng rng(11);
  std::vector<cplx> x(n);
  for (int i = 0; i < n; ++i) x[i] = {rng.normal(i), 0.0};
  fft_1d(x.data(), n, false);
  for (int k = 1; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), x[n - k].real(), 1e-8);
    EXPECT_NEAR(x[k].imag(), -x[n - k].imag(), 1e-8);
  }
}

TEST(Fft1DBasics, Long1024PointTransformMatchesDirectDft) {
  // Regression for the twiddle tables: the former running `w *= wlen`
  // product drifted by O(len * eps) on long stages; table entries are now
  // evaluated directly per index, so a 1024-point transform has to track a
  // direct O(n^2) DFT at near round-off tolerance.
  constexpr int n = 1024;
  util::CounterRng rng(29);
  std::vector<cplx> x(n);
  for (int i = 0; i < n; ++i) x[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
  std::vector<cplx> fast = x;
  fft_1d(fast.data(), n, false);
  double max_mag = 0.0;
  for (const cplx& v : fast) max_mag = std::max(max_mag, std::abs(v));
  for (int k = 0; k < n; ++k) {
    cplx direct(0.0, 0.0);
    for (int j = 0; j < n; ++j) {
      // Reduce j*k mod n before forming the angle: huge arguments to
      // sin/cos would dominate the very error this test pins down.
      const double ang = -2.0 * M_PI * ((static_cast<long long>(j) * k) % n) / n;
      direct += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    ASSERT_NEAR(fast[k].real(), direct.real(), 1e-10 * max_mag) << "bin " << k;
    ASSERT_NEAR(fast[k].imag(), direct.imag(), 1e-10 * max_mag) << "bin " << k;
  }
}

TEST(Twiddles, TableForLargeSizeServesSmallerTransforms) {
  const Twiddles& big = twiddles_for(1024);
  constexpr int n = 256;
  util::CounterRng rng(41);
  std::vector<cplx> a(n), b;
  for (int i = 0; i < n; ++i) a[i] = {rng.normal(2 * i), rng.normal(2 * i + 1)};
  b = a;
  fft_1d(a.data(), n, false);            // cached table for exactly n
  fft_1d(b.data(), n, false, big);       // shared prefix of the 1024 table
  for (int i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(a[i].real(), b[i].real());
    ASSERT_DOUBLE_EQ(a[i].imag(), b[i].imag());
  }
}

TEST(ComplexMul, MatchesStdComplexProductBitwise) {
  // fft::mul replaces `a * b` in every hot loop; it must be the same
  // arithmetic bit for bit, signed zeros, subnormals and overflow included.
  const double vals[] = {0.0,  -0.0,         DBL_TRUE_MIN, -DBL_TRUE_MIN,
                         DBL_MIN / 4.0,      1.0,          -1.0,
                         DBL_MAX / 2.0,      -DBL_MAX / 2.0,
                         0.3,  -2.5e-7,      1e300,        -1e-300};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  int checked = 0;
  for (double ar : vals) {
    for (double ai : vals) {
      for (double br : vals) {
        for (double bi : vals) {
          const cplx a(ar, ai), b(br, bi);
          const cplx want = a * b;
          const cplx got = mul(a, b);
          ASSERT_EQ(bits(got.real()), bits(want.real()))
              << "(" << ar << "," << ai << ")*(" << br << "," << bi << ")";
          ASSERT_EQ(bits(got.imag()), bits(want.imag()))
              << "(" << ar << "," << ai << ")*(" << br << "," << bi << ")";
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 13 * 13 * 13 * 13);
}

TEST(IsPow2, Classification) {
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(1));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

class Fft3DTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, Fft3DTest, ::testing::Values(4, 8, 16, 32),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST_P(Fft3DTest, RoundTrip) {
  const int n = GetParam();
  util::ThreadPool pool(4);
  Fft3D fft(n, pool);
  util::CounterRng rng(23);
  std::vector<cplx> grid(fft.size()), orig;
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = {rng.normal(i), 0.0};
  orig = grid;
  fft.forward(grid);
  fft.inverse(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_NEAR(grid[i].real(), orig[i].real(), 1e-8);
    ASSERT_NEAR(grid[i].imag(), orig[i].imag(), 1e-8);
  }
}

TEST_P(Fft3DTest, PlaneWaveLandsInSingleBin) {
  const int n = GetParam();
  util::ThreadPool pool(2);
  Fft3D fft(n, pool);
  const int kx = 1, ky = 2 % n, kz = 3 % n;
  std::vector<cplx> grid(fft.size());
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < n; ++iz) {
        const double phase = 2.0 * M_PI * (kx * ix + ky * iy + kz * iz) / n;
        grid[(static_cast<std::size_t>(ix) * n + iy) * n + iz] = {std::cos(phase),
                                                                  std::sin(phase)};
      }
    }
  }
  fft.forward(grid);
  const std::size_t hot = (static_cast<std::size_t>(kx) * n + ky) * n + kz;
  const double total = static_cast<double>(fft.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double expect = (i == hot) ? total : 0.0;
    ASSERT_NEAR(grid[i].real(), expect, 1e-6 * total) << i;
    ASSERT_NEAR(grid[i].imag(), 0.0, 1e-6 * total) << i;
  }
}

TEST(Fft3DErrors, RejectsNonPow2) {
  util::ThreadPool pool(1);
  EXPECT_THROW(Fft3D(12, pool), std::invalid_argument);
}

class Fft3DR2C : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, Fft3DR2C, ::testing::Values(2, 4, 8, 16, 32),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST_P(Fft3DR2C, MatchesComplexForwardOnHalfSpectrum) {
  const int n = GetParam();
  util::ThreadPool pool(4);
  Fft3D fft(n, pool);
  util::CounterRng rng(37);
  std::vector<double> real(fft.size());
  std::vector<cplx> full(fft.size());
  for (std::size_t i = 0; i < real.size(); ++i) {
    real[i] = rng.normal(i);
    full[i] = {real[i], 0.0};
  }
  std::vector<cplx> half;
  fft.forward_r2c(real, half);
  ASSERT_EQ(half.size(), fft.half_size());
  fft.forward(full);
  double max_mag = 0.0;
  for (const cplx& v : full) max_mag = std::max(max_mag, std::abs(v));
  const int nh = fft.half_nz();
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < nh; ++iz) {
        const cplx want = full[(static_cast<std::size_t>(ix) * n + iy) * n + iz];
        const cplx got = half[(static_cast<std::size_t>(ix) * n + iy) * nh + iz];
        ASSERT_NEAR(got.real(), want.real(), 1e-12 * max_mag)
            << ix << "," << iy << "," << iz;
        ASSERT_NEAR(got.imag(), want.imag(), 1e-12 * max_mag)
            << ix << "," << iy << "," << iz;
      }
    }
  }
}

TEST_P(Fft3DR2C, RoundTripRecoversRealField) {
  const int n = GetParam();
  util::ThreadPool pool(2);
  Fft3D fft(n, pool);
  util::CounterRng rng(43);
  std::vector<double> real(fft.size()), orig;
  for (std::size_t i = 0; i < real.size(); ++i) real[i] = rng.normal(i);
  orig = real;
  double max_mag = 0.0;
  for (double v : orig) max_mag = std::max(max_mag, std::abs(v));
  std::vector<cplx> half;
  fft.forward_r2c(real, half);
  fft.inverse_c2r(half, real);
  for (std::size_t i = 0; i < real.size(); ++i) {
    ASSERT_NEAR(real[i], orig[i], 1e-12 * max_mag) << i;
  }
}

TEST(Fft3DR2CBasics, PlaneWaveLandsInSingleHalfBin) {
  constexpr int n = 16;
  util::ThreadPool pool(2);
  Fft3D fft(n, pool);
  const int kx = 3, ky = 14, kz = 5;  // kz <= n/2 so the mode is in the half
  std::vector<double> real(fft.size());
  for (int ix = 0; ix < n; ++ix) {
    for (int iy = 0; iy < n; ++iy) {
      for (int iz = 0; iz < n; ++iz) {
        const double phase = 2.0 * M_PI * (kx * ix + ky * iy + kz * iz) / n;
        real[(static_cast<std::size_t>(ix) * n + iy) * n + iz] = std::cos(phase);
      }
    }
  }
  std::vector<cplx> half;
  fft.forward_r2c(real, half);
  const int nh = fft.half_nz();
  const double total = static_cast<double>(fft.size());
  // cos splits between (kx,ky,kz) and its Hermitian partner; only the former
  // lies in the stored half (its partner has iz = n - kz > n/2).
  const std::size_t hot = (static_cast<std::size_t>(kx) * n + ky) * nh + kz;
  for (std::size_t i = 0; i < half.size(); ++i) {
    const double expect = (i == hot) ? 0.5 * total : 0.0;
    ASSERT_NEAR(half[i].real(), expect, 1e-9 * total) << i;
    ASSERT_NEAR(half[i].imag(), 0.0, 1e-9 * total) << i;
  }
}

TEST(Fft3DThreads, ResultIndependentOfThreadCount) {
  constexpr int n = 16;
  util::ThreadPool p1(1), p8(8);
  Fft3D f1(n, p1), f8(n, p8);
  util::CounterRng rng(31);
  std::vector<cplx> a(f1.size()), b;
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = {rng.normal(i), rng.uniform(i)};
  b = a;
  f1.forward(a);
  f8.forward(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i].real(), b[i].real());
    ASSERT_DOUBLE_EQ(a[i].imag(), b[i].imag());
  }
}

TEST(Fft3DThreads, R2CPipelineBitIdenticalAcrossThreadCounts) {
  // The real-field path (Hermitian pack, untangle, half-spectrum layout)
  // partitions pencils over the pool with no shared accumulation, so an
  // 8-thread transform must reproduce the serial one bit for bit — both the
  // forward half spectrum and the c2r reconstruction.
  constexpr int n = 16;
  util::ThreadPool p1(1), p8(8);
  const Fft3D f1(n, p1), f8(n, p8);
  util::CounterRng rng(57);
  std::vector<double> field(f1.size());
  for (std::size_t i = 0; i < field.size(); ++i) field[i] = rng.normal(i);

  std::vector<cplx> half1, half8;
  f1.forward_r2c(field, half1);
  f8.forward_r2c(field, half8);
  ASSERT_EQ(half1.size(), half8.size());
  for (std::size_t i = 0; i < half1.size(); ++i) {
    ASSERT_EQ(half1[i].real(), half8[i].real()) << i;
    ASSERT_EQ(half1[i].imag(), half8[i].imag()) << i;
  }

  std::vector<double> back1(field.size()), back8(field.size());
  f1.inverse_c2r(half1, back1);
  f8.inverse_c2r(half8, back8);
  for (std::size_t i = 0; i < field.size(); ++i) {
    ASSERT_EQ(back1[i], back8[i]) << i;
    ASSERT_NEAR(back1[i], field[i], 1e-12 * std::abs(field[i]) + 1e-12) << i;
  }
}

TEST(Fft3DThreads, SharedTwiddleTableIsSafeUnderConcurrentTransforms) {
  // Eight pool threads hammer the same 1024-point twiddle table (read-only
  // after construction) with independent 1-D transforms; every result must
  // be bitwise equal to the same transform run serially.
  constexpr int n = 1024;
  const Twiddles& tw = twiddles_for(n);
  constexpr int kRuns = 32;
  std::vector<std::vector<cplx>> serial(kRuns), threaded(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    util::CounterRng rng(200 + r);
    serial[r].resize(n);
    for (int i = 0; i < n; ++i) {
      serial[r][i] = {rng.normal(i), rng.uniform(i)};
    }
    threaded[r] = serial[r];
    fft_1d(serial[r].data(), n, r % 2 == 1, tw);
  }
  util::ThreadPool pool(8);
  // shared: disjoint `threaded` entries per index; `tw` is read-only.
  pool.parallel_for(kRuns, [&](std::size_t r) {
    fft_1d(threaded[r].data(), n, r % 2 == 1, tw);
  });
  for (int r = 0; r < kRuns; ++r) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(serial[r][i].real(), threaded[r][i].real()) << r << ":" << i;
      ASSERT_EQ(serial[r][i].imag(), threaded[r][i].imag()) << r << ":" << i;
    }
  }
}

}  // namespace
}  // namespace hacc::fft
