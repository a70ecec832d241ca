/**
 * @file
 * Exact percentiles and rates for the benchmark's end-to-end metrics.
 * Every percentile is an order statistic of the sorted samples (nearest
 * rank), never a histogram bucket estimate, and carries the number of
 * samples beyond it so a tail read from too few samples is flagged.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Fewer samples than this beyond a percentile make it unreliable. */
inline constexpr size_t kMinTailSamples = 10;

/** One order statistic of a sample set. */
struct Percentile
{
    double value = 0.0;
    /** Samples ranked strictly above the returned one. */
    size_t beyond = 0;
    /** False when fewer than kMinTailSamples samples lie beyond. */
    bool reliable = false;
};

/**
 * Nearest-rank percentile of @p sorted (ascending): the sample at rank
 * ceil(q * n), 1-based. @p q is in (0, 1]; throws on an empty set or a
 * q outside that range.
 */
inline Percentile
percentileOfSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        throw std::invalid_argument("percentile of an empty sample set");
    if (!(q > 0.0 && q <= 1.0))
        throw std::invalid_argument("percentile rank must be in (0, 1]");
    const size_t n = sorted.size();
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    Percentile p;
    p.value = sorted[rank - 1];
    p.beyond = n - rank;
    p.reliable = p.beyond >= kMinTailSamples;
    return p;
}

/** A growable sample set answering exact percentiles. */
class Samples
{
  public:
    void add(double value)
    {
        values.push_back(value);
        isSorted = false;
    }

    size_t size() const { return values.size(); }
    bool empty() const { return values.empty(); }

    /** Exact percentile (sorts lazily). */
    Percentile percentile(double q)
    {
        if (!isSorted) {
            std::sort(values.begin(), values.end());
            isSorted = true;
        }
        return percentileOfSorted(values, q);
    }

    /** The median's value, or 0 when empty. */
    double median() { return empty() ? 0.0 : percentile(0.5).value; }

  private:
    std::vector<double> values;
    bool isSorted = true;
};

/** Events per second; throws unless @p seconds is positive. */
inline double
rate(double count, double seconds)
{
    if (!(seconds > 0.0))
        throw std::invalid_argument("rate over a non-positive interval");
    return count / seconds;
}

/** @p part / @p whole, or 0 when @p whole is 0. */
inline double
fraction(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
