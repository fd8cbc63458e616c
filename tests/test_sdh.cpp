// Stack Distance Histogram: register semantics, miss-curve identity, decay.
#include "plrupart/core/sdh.hpp"

#include <gtest/gtest.h>

namespace plrupart::core {
namespace {

TEST(Sdh, PaperFigure2MissArithmetic) {
  // Fig. 2(c): with 2 ways the thread suffers r3 + r4 + r5 misses.
  Sdh sdh(4);
  const std::uint64_t r[5] = {7, 5, 3, 2, 9};  // r1..r4 + miss register r5
  for (std::uint32_t d = 1; d <= 4; ++d)
    for (std::uint64_t i = 0; i < r[d - 1]; ++i) sdh.record_hit(d);
  for (std::uint64_t i = 0; i < r[4]; ++i) sdh.record_miss();

  EXPECT_EQ(sdh.misses_with_ways(2), r[2] + r[3] + r[4]);
  EXPECT_EQ(sdh.hits_with_ways(2), r[0] + r[1]);
  EXPECT_EQ(sdh.misses_with_ways(0), sdh.total());
  EXPECT_EQ(sdh.misses_with_ways(4), r[4]);
  EXPECT_EQ(sdh.hits_with_ways(4) + sdh.misses_with_ways(4), sdh.total());
}

TEST(Sdh, RegistersAreOneIndexed) {
  Sdh sdh(4);
  sdh.record_hit(1);
  sdh.record_hit(4);
  sdh.record_miss();
  EXPECT_EQ(sdh.reg(1), 1ULL);
  EXPECT_EQ(sdh.reg(4), 1ULL);
  EXPECT_EQ(sdh.reg(5), 1ULL);  // the A+1 miss register
  EXPECT_EQ(sdh.reg(2), 0ULL);
}

TEST(Sdh, RejectsOutOfRangeDistances) {
  Sdh sdh(4);
  EXPECT_THROW(sdh.record_hit(0), InvariantError);
  EXPECT_THROW(sdh.record_hit(5), InvariantError);
  EXPECT_THROW((void)sdh.reg(0), InvariantError);
  EXPECT_THROW((void)sdh.reg(6), InvariantError);
  EXPECT_THROW((void)sdh.misses_with_ways(5), InvariantError);
}

TEST(Sdh, DecayHalvesEveryRegister) {
  Sdh sdh(2);
  for (int i = 0; i < 9; ++i) sdh.record_hit(1);
  for (int i = 0; i < 4; ++i) sdh.record_hit(2);
  for (int i = 0; i < 3; ++i) sdh.record_miss();
  sdh.decay_halve();
  EXPECT_EQ(sdh.reg(1), 4ULL);
  EXPECT_EQ(sdh.reg(2), 2ULL);
  EXPECT_EQ(sdh.reg(3), 1ULL);
}

TEST(Sdh, MissCurveIsMonotoneNonIncreasing) {
  Sdh sdh(8);
  for (std::uint32_t d = 1; d <= 8; ++d)
    for (std::uint32_t i = 0; i < d * 3; ++i) sdh.record_hit(d);
  for (int i = 0; i < 11; ++i) sdh.record_miss();
  for (std::uint32_t w = 0; w < 8; ++w) {
    EXPECT_GE(sdh.misses_with_ways(w), sdh.misses_with_ways(w + 1));
  }
}

}  // namespace
}  // namespace plrupart::core
