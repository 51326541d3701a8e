#include "util/vec3.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hacc::util {
namespace {

TEST(Vec3, ArithmeticBasics) {
  Vec3d a{1.0, 2.0, 3.0};
  Vec3d b{4.0, 5.0, 6.0};
  EXPECT_EQ(a + b, (Vec3d{5.0, 7.0, 9.0}));
  EXPECT_EQ(b - a, (Vec3d{3.0, 3.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec3d{2.0, 4.0, 6.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3d{-1.0, -2.0, -3.0}));
  EXPECT_EQ((a / 2.0), (Vec3d{0.5, 1.0, 1.5}));
}

TEST(Vec3, DotAndNorm) {
  Vec3d a{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm(a), 3.0);
  EXPECT_DOUBLE_EQ(norm2(a), 9.0);
}

TEST(Vec3, CrossProductOrthogonality) {
  Vec3d x{1.0, 0.0, 0.0};
  Vec3d y{0.0, 1.0, 0.0};
  EXPECT_EQ(cross(x, y), (Vec3d{0.0, 0.0, 1.0}));
  Vec3d a{1.3, -2.4, 0.7};
  Vec3d b{0.2, 5.0, -1.1};
  const Vec3d c = cross(a, b);
  EXPECT_NEAR(dot(c, a), 0.0, 1e-12);
  EXPECT_NEAR(dot(c, b), 0.0, 1e-12);
}

TEST(Vec3, IndexAccess) {
  Vec3d a{7.0, 8.0, 9.0};
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  EXPECT_DOUBLE_EQ(a[1], 8.0);
  EXPECT_DOUBLE_EQ(a[2], 9.0);
  a[1] = -1.0;
  EXPECT_DOUBLE_EQ(a.y, -1.0);
}

TEST(Sym3, OuterProduct) {
  const Vec3d v{1.0, 2.0, 3.0};
  const auto m = Sym3d::outer(v);
  EXPECT_DOUBLE_EQ(m.xx, 1.0);
  EXPECT_DOUBLE_EQ(m.xy, 2.0);
  EXPECT_DOUBLE_EQ(m.xz, 3.0);
  EXPECT_DOUBLE_EQ(m.yy, 4.0);
  EXPECT_DOUBLE_EQ(m.yz, 6.0);
  EXPECT_DOUBLE_EQ(m.zz, 9.0);
}

TEST(Sym3, IdentityInverse) {
  Sym3d ident{1.0, 0.0, 0.0, 1.0, 0.0, 1.0};
  Sym3d inv;
  ASSERT_TRUE(ident.inverse(inv));
  EXPECT_DOUBLE_EQ(inv.xx, 1.0);
  EXPECT_DOUBLE_EQ(inv.yy, 1.0);
  EXPECT_DOUBLE_EQ(inv.zz, 1.0);
  EXPECT_DOUBLE_EQ(inv.xy, 0.0);
}

TEST(Sym3, InverseTimesOriginalIsIdentity) {
  // A symmetric positive-definite matrix.
  Sym3d m{4.0, 1.0, 0.5, 3.0, 0.25, 2.0};
  Sym3d inv;
  ASSERT_TRUE(m.inverse(inv));
  // Check M * (M^-1 v) == v on a few vectors.
  for (const Vec3d v : {Vec3d{1, 0, 0}, Vec3d{0, 1, 0}, Vec3d{0, 0, 1}, Vec3d{1, 2, 3}}) {
    const Vec3d r = m * (inv * v);
    EXPECT_NEAR(r.x, v.x, 1e-12);
    EXPECT_NEAR(r.y, v.y, 1e-12);
    EXPECT_NEAR(r.z, v.z, 1e-12);
  }
}

TEST(Sym3, SingularMatrixRejected) {
  // Rank-1 matrix: outer product of a single vector.
  const auto m = Sym3d::outer(Vec3d{1.0, 2.0, 3.0});
  Sym3d inv;
  EXPECT_FALSE(m.inverse(inv));
}

TEST(Sym3, MatrixVectorProduct) {
  Sym3d m{2.0, 0.0, 0.0, 3.0, 0.0, 4.0};
  const Vec3d r = m * Vec3d{1.0, 1.0, 1.0};
  EXPECT_EQ(r, (Vec3d{2.0, 3.0, 4.0}));
}

// round_image must be std::round bit for bit — sign of zero included — on
// every input, since the minimum image of all pair kernels goes through it.
template <typename T>
void expect_round_image_is_round(T q) {
  const T got = round_image(q);
  const T want = std::round(q);
  EXPECT_EQ(got, want) << q;
  EXPECT_EQ(std::signbit(got), std::signbit(want)) << q;
}

TEST(RoundImage, MatchesStdRoundBitForBit) {
  for (const float q : {0.f, -0.f, 0.25f, -0.25f, 0.5f, -0.5f, 1.f, -1.f, 1.5f,
                        -1.5f, 2.5f, -3.5f, 1e6f, -1e-30f}) {
    expect_round_image_is_round(q);
    expect_round_image_is_round(double(q));
  }
  // Every float neighbour of the halfway and switch-over points.
  for (const float edge : {0.5f, 1.5f}) {
    for (const float sign : {1.f, -1.f}) {
      const float e = sign * edge;
      expect_round_image_is_round(std::nextafter(e, 0.f));
      expect_round_image_is_round(std::nextafter(e, 2.f * e));
    }
  }
  // A dense sweep of separations over two box lengths.
  for (int k = -4096; k <= 4096; ++k) {
    expect_round_image_is_round(static_cast<float>(k) / 2048.f + 1e-4f);
    expect_round_image_is_round(static_cast<double>(k) / 2048.0 - 1e-9);
  }
}

}  // namespace
}  // namespace hacc::util
