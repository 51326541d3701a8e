#include "xsycl/comm_variant.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "test_helpers.hpp"

namespace hacc::xsycl {
namespace {

using testing::StandaloneSubGroup;

class CommVariants : public ::testing::TestWithParam<std::tuple<CommVariant, int>> {};

INSTANTIATE_TEST_SUITE_P(
    ExchangeVariantsBySgSize, CommVariants,
    ::testing::Combine(::testing::ValuesIn(kExchangeVariants),
                       ::testing::Values(16, 32, 64)),
    [](const auto& info) {
      std::string v = to_string(std::get<0>(info.param));
      for (char& c : v) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return v + "_sg" + std::to_string(std::get<1>(info.param));
    });

TEST_P(CommVariants, ExchangeDeliversPartnerState) {
  const auto [variant, S] = GetParam();
  struct State {
    float pos[3];
    float vel[3];
    float mass;
    float pad;  // keep size a 4-byte multiple with even word count
  };
  StandaloneSubGroup ctx(S, sizeof(State) * kMaxLanes);
  Varying<State> mine;
  for (int l = 0; l < S; ++l) {
    mine[l] = {{float(l), float(l + 1), float(l + 2)},
               {float(-l), float(-l - 1), float(-l - 2)},
               float(l) * 0.5f,
               0.f};
  }
  for (int r = 0; r < S / 2; ++r) {
    const auto theirs = exchange(ctx.sg, mine, r, variant);
    for (int l = 0; l < S; ++l) {
      const int p = partner_lane(variant, l, r, S);
      ASSERT_EQ(theirs[l].pos[0], float(p));
      ASSERT_EQ(theirs[l].vel[2], float(-p - 2));
      ASSERT_EQ(theirs[l].mass, float(p) * 0.5f);
    }
  }
}

TEST_P(CommVariants, PartnerScheduleIsSymmetricPerRound) {
  // The "critically important" pair-wise symmetry (§5.3): if lane l sees
  // lane p's particle this round, lane p sees lane l's.
  const auto [variant, S] = GetParam();
  for (int r = 0; r < S / 2; ++r) {
    for (int l = 0; l < S; ++l) {
      const int p = partner_lane(variant, l, r, S);
      EXPECT_EQ(partner_lane(variant, p, r, S), l);
    }
  }
}

TEST_P(CommVariants, AllCrossHalfPairsCoveredExactlyOnce) {
  const auto [variant, S] = GetParam();
  const int H = S / 2;
  std::set<std::pair<int, int>> pairs;
  for (int r = 0; r < H; ++r) {
    for (int l = 0; l < H; ++l) pairs.emplace(l, partner_lane(variant, l, r, S));
  }
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(H) * H);
}

TEST_P(CommVariants, OnlyTheExpectedCountersMove) {
  const auto [variant, S] = GetParam();
  StandaloneSubGroup ctx(S, 64 * kMaxLanes);
  Varying<float> x;
  (void)exchange(ctx.sg, x, 0, variant);
  const auto& c = ctx.counters;
  switch (variant) {
    case CommVariant::kSelect:
      EXPECT_GT(c.select_ops, 0u);
      EXPECT_EQ(c.local32_words + c.localobj_bytes + c.butterfly_words, 0u);
      break;
    case CommVariant::kMemory32:
      EXPECT_GT(c.local32_words, 0u);
      EXPECT_GT(c.barriers, 0u);
      EXPECT_EQ(c.select_ops + c.localobj_bytes + c.butterfly_words, 0u);
      break;
    case CommVariant::kMemoryObject:
      EXPECT_GT(c.localobj_bytes, 0u);
      EXPECT_GT(c.barriers, 0u);
      EXPECT_EQ(c.select_ops + c.local32_words + c.butterfly_words, 0u);
      break;
    case CommVariant::kVISA:
      EXPECT_GT(c.butterfly_words, 0u);
      EXPECT_EQ(c.select_ops + c.local32_words + c.localobj_bytes, 0u);
      break;
    case CommVariant::kBroadcast:
    case CommVariant::kNative:  // no exchange(); not instantiated here
      break;
  }
}

TEST(CommVariantNames, RoundTripThroughStrings) {
  for (const auto v : kAllVariants) {
    CommVariant parsed;
    ASSERT_TRUE(parse_variant(to_string(v), parsed)) << to_string(v);
    EXPECT_EQ(parsed, v);
  }
}

TEST(CommVariantNames, CompactAliases) {
  CommVariant v;
  EXPECT_TRUE(parse_variant("select", v));
  EXPECT_EQ(v, CommVariant::kSelect);
  EXPECT_TRUE(parse_variant("mem32", v));
  EXPECT_EQ(v, CommVariant::kMemory32);
  EXPECT_TRUE(parse_variant("memobj", v));
  EXPECT_EQ(v, CommVariant::kMemoryObject);
  EXPECT_TRUE(parse_variant("visa", v));
  EXPECT_EQ(v, CommVariant::kVISA);
  EXPECT_FALSE(parse_variant("warp", v));
}

TEST(CommVariantLocalBytes, SizedFromLargestExchangedObject) {
  // §5.3.1: bytes = object size × work-items for the object variant; the
  // 32-bit variant stages a single word per work-item.
  EXPECT_EQ(local_bytes_for(CommVariant::kMemoryObject, 32, 40), 40u * 32u);
  EXPECT_EQ(local_bytes_for(CommVariant::kMemory32, 32, 40), 4u * 32u);
  EXPECT_EQ(local_bytes_for(CommVariant::kSelect, 32, 40), 0u);
  EXPECT_EQ(local_bytes_for(CommVariant::kVISA, 64, 40), 0u);
  EXPECT_EQ(local_bytes_for(CommVariant::kBroadcast, 16, 40), 0u);
}

}  // namespace
}  // namespace hacc::xsycl
