#include "stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

using perfbench::percentileOfSorted;
using perfbench::Samples;

TEST(Percentile, NearestRankPicksAnActualSample)
{
    const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_EQ(percentileOfSorted(sorted, 0.5).value, 5.0);
    EXPECT_EQ(percentileOfSorted(sorted, 0.51).value, 6.0);
    EXPECT_EQ(percentileOfSorted(sorted, 0.9).value, 9.0);
    EXPECT_EQ(percentileOfSorted(sorted, 0.99).value, 10.0);
    EXPECT_EQ(percentileOfSorted(sorted, 1.0).value, 10.0);
    EXPECT_EQ(percentileOfSorted(sorted, 0.01).value, 1.0);
}

TEST(Percentile, SingleSample)
{
    const perfbench::Percentile p = percentileOfSorted({42.0}, 0.99);
    EXPECT_EQ(p.value, 42.0);
    EXPECT_EQ(p.beyond, 0u);
    EXPECT_FALSE(p.reliable);
}

TEST(Percentile, FlagsTailsWithFewerThanTenSamplesBeyond)
{
    std::vector<double> sorted(1000);
    for (size_t i = 0; i < sorted.size(); ++i)
        sorted[i] = static_cast<double>(i);
    // Rank 990 of 1000 leaves exactly 10 samples above it.
    const auto p99 = percentileOfSorted(sorted, 0.99);
    EXPECT_EQ(p99.value, 989.0);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_TRUE(p99.reliable);
    const auto p999 = percentileOfSorted(sorted, 0.999);
    EXPECT_EQ(p999.beyond, 1u);
    EXPECT_FALSE(p999.reliable);

    sorted.pop_back(); // 999 samples: p99 keeps only 9 beyond.
    EXPECT_FALSE(percentileOfSorted(sorted, 0.99).reliable);
}

TEST(Percentile, RejectsEmptySetsAndBadRanks)
{
    EXPECT_THROW(percentileOfSorted({}, 0.5), std::invalid_argument);
    EXPECT_THROW(percentileOfSorted({1.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(percentileOfSorted({1.0}, 1.5), std::invalid_argument);
}

TEST(Samples, SortsLazilyAndStaysExact)
{
    Samples s;
    for (double v : {9.0, 1.0, 5.0, 3.0, 7.0})
        s.add(v);
    EXPECT_EQ(s.median(), 5.0);
    s.add(0.5);
    s.add(0.25);
    EXPECT_EQ(s.percentile(0.5).value, 3.0);
    EXPECT_EQ(s.size(), 7u);
    EXPECT_EQ(Samples().median(), 0.0);
}

TEST(Rate, CountsPerSecond)
{
    EXPECT_DOUBLE_EQ(perfbench::rate(500, 2.0), 250.0);
    EXPECT_THROW(perfbench::rate(1, 0.0), std::invalid_argument);
    EXPECT_DOUBLE_EQ(perfbench::fraction(1, 4), 0.25);
    EXPECT_EQ(perfbench::fraction(1, 0), 0.0);
}
