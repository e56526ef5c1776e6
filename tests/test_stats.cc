/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace dapsim
{
namespace
{

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, SetOverwrites)
{
    Counter c;
    c.set(123);
    EXPECT_EQ(c.value(), 123u);
}

TEST(Average, MeanOfSamples)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_NEAR(a.mean(), 5.0, 1e-12);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_NEAR(a.sum(), 15.0, 1e-12);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(5.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
}

} // namespace
} // namespace dapsim
