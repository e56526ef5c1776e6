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

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10.0, 10);
    h.sample(0.5);  // bucket 0
    h.sample(5.5);  // bucket 5
    h.sample(9.99); // bucket 9
    h.sample(25.0); // overflow -> last bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[5], 1u);
    EXPECT_EQ(h.buckets()[9], 2u);
    EXPECT_NEAR(h.mean(), (0.5 + 5.5 + 9.99 + 25.0) / 4, 1e-9);
}

} // namespace
} // namespace dapsim
