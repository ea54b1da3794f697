/**
 * @file
 * Unit tests for the latency recorder (percentiles, CDF, traces), and a
 * differential test pinning its order-statistic selection to the full
 * sort it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "sim/rng.hh"
#include "sim/time.hh"
#include "stats/latency_recorder.hh"

namespace nmapsim {
namespace {

LatencyRecorder
makeUniformRecorder(int n)
{
    LatencyRecorder r;
    // Latencies 1..n us, completion times in reverse order to exercise
    // sorting.
    for (int i = n; i >= 1; --i)
        r.record(microseconds(i), microseconds(i));
    return r;
}

TEST(LatencyRecorderTest, EmptyRecorder)
{
    LatencyRecorder r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.percentile(99.0), 0);
    EXPECT_DOUBLE_EQ(r.mean(), 0.0);
    EXPECT_EQ(r.max(), 0);
    EXPECT_DOUBLE_EQ(r.fractionAbove(0), 0.0);
    EXPECT_TRUE(r.cdf(10).empty());
}

TEST(LatencyRecorderTest, PercentilesOfUniformRamp)
{
    LatencyRecorder r = makeUniformRecorder(100);
    EXPECT_EQ(r.count(), 100u);
    // P50 of 1..100 us (linear interpolation over order statistics).
    EXPECT_NEAR(toMicroseconds(r.percentile(50.0)), 50.5, 0.01);
    EXPECT_NEAR(toMicroseconds(r.percentile(99.0)), 99.01, 0.05);
    EXPECT_EQ(r.percentile(100.0), microseconds(100));
    EXPECT_EQ(r.percentile(0.0), microseconds(1));
}

TEST(LatencyRecorderTest, MeanAndMax)
{
    LatencyRecorder r = makeUniformRecorder(100);
    EXPECT_NEAR(r.mean(), static_cast<double>(microseconds(50.5)), 1.0);
    EXPECT_EQ(r.max(), microseconds(100));
}

TEST(LatencyRecorderTest, FractionAboveSlo)
{
    LatencyRecorder r = makeUniformRecorder(100);
    // 10 of 100 samples exceed 90 us (91..100).
    EXPECT_DOUBLE_EQ(r.fractionAbove(microseconds(90)), 0.10);
    EXPECT_DOUBLE_EQ(r.fractionAbove(microseconds(100)), 0.0);
    EXPECT_DOUBLE_EQ(r.fractionAbove(0), 1.0);
}

TEST(LatencyRecorderTest, CdfIsMonotone)
{
    LatencyRecorder r = makeUniformRecorder(1000);
    auto cdf = r.cdf(50);
    ASSERT_EQ(cdf.size(), 50u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GT(cdf[i].second, cdf[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(LatencyRecorderTest, TraceSortedByCompletionTime)
{
    LatencyRecorder r = makeUniformRecorder(10);
    auto trace = r.trace();
    ASSERT_EQ(trace.size(), 10u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_LE(trace[i - 1].completionTime, trace[i].completionTime);
}

TEST(LatencyRecorderTest, DiscardBeforeDropsWarmup)
{
    LatencyRecorder r;
    r.record(milliseconds(1), microseconds(10));
    r.record(milliseconds(2), microseconds(20));
    r.record(milliseconds(3), microseconds(30));
    r.discardBefore(milliseconds(2));
    EXPECT_EQ(r.count(), 2u);
    EXPECT_EQ(r.percentile(0.0), microseconds(20));
}

TEST(LatencyRecorderTest, ClearEmptiesRecorder)
{
    LatencyRecorder r = makeUniformRecorder(5);
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(LatencyRecorderTest, RecordAfterQueryKeepsConsistency)
{
    LatencyRecorder r;
    r.record(1, microseconds(5));
    EXPECT_EQ(r.percentile(50.0), microseconds(5));
    r.record(2, microseconds(15));
    EXPECT_EQ(r.percentile(100.0), microseconds(15));
    EXPECT_EQ(r.count(), 2u);
}

TEST(LatencyRecorderTest, MeanIsExactInAnyOrder)
{
    // 2^53 + 1 rounds back to 2^53 in a double, so a double sum in
    // recording order would drop both ones; the sorted order would
    // not. The mean must not depend on the order.
    const Tick big = Tick{1} << 53;
    LatencyRecorder r;
    r.record(1, big);
    r.record(2, 1);
    r.record(3, 1);
    EXPECT_EQ(r.mean(), static_cast<double>(big + 2) / 3.0);
}

TEST(LatencyRecorderTest, ConcurrentConstReadsAgree)
{
    // Two threads make the first queries on one const recorder. Const
    // reads must not write, so ThreadSanitizer sees no race.
    Rng rng(11);
    LatencyRecorder r;
    for (int i = 0; i < 20000; ++i)
        r.record(i, std::llround(rng.lognormal(std::log(100e3), 0.6)));
    const LatencyRecorder expected = r;
    const Tick p99 = expected.percentile(99.0);
    const auto cdf = expected.cdf(200);
    const LatencyRecorder &shared = r;
    auto reader = [&] {
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(shared.percentile(99.0), p99);
            EXPECT_EQ(shared.cdf(200), cdf);
        }
    };
    std::thread a(reader);
    std::thread b(reader);
    a.join();
    b.join();
}

// --- Differential test against the full sort ----------------------------

/**
 * The pre-selection recorder, kept as the reference: every rank query
 * sorts a copy of the latencies, mean() sums them in sorted order, and
 * trace() sorts by completion time with ties in recording order.
 */
class ReferenceRecorder
{
  public:
    void
    record(Tick completion_time, Tick latency)
    {
        samples_.push_back({completion_time, latency});
    }

    void
    merge(const ReferenceRecorder &other)
    {
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
    }

    void
    discardBefore(Tick cutoff)
    {
        std::erase_if(samples_, [cutoff](const LatencySample &s) {
            return s.completionTime < cutoff;
        });
    }

    std::size_t count() const { return samples_.size(); }

    Tick
    percentile(double p) const
    {
        if (samples_.empty())
            return 0;
        const std::vector<Tick> v = sorted();
        double rank = p / 100.0 * static_cast<double>(v.size() - 1);
        std::size_t lo = static_cast<std::size_t>(rank);
        std::size_t hi = std::min(lo + 1, v.size() - 1);
        double frac = rank - static_cast<double>(lo);
        return static_cast<Tick>(
            std::llround(static_cast<double>(v[lo]) * (1.0 - frac) +
                         static_cast<double>(v[hi]) * frac));
    }

    std::vector<std::pair<Tick, double>>
    cdf(std::size_t points) const
    {
        std::vector<std::pair<Tick, double>> out;
        if (samples_.empty() || points == 0)
            return out;
        const std::vector<Tick> v = sorted();
        for (std::size_t i = 0; i < points; ++i) {
            double q =
                static_cast<double>(i + 1) / static_cast<double>(points);
            std::size_t idx = std::min(
                v.size() - 1,
                static_cast<std::size_t>(q * static_cast<double>(v.size())));
            out.emplace_back(v[idx], q);
        }
        return out;
    }

    double
    mean() const
    {
        if (samples_.empty())
            return 0.0;
        double sum = 0.0;
        for (Tick t : sorted())
            sum += static_cast<double>(t);
        return sum / static_cast<double>(samples_.size());
    }

    Tick
    max() const
    {
        return samples_.empty() ? 0 : sorted().back();
    }

    double
    fractionAbove(Tick slo) const
    {
        if (samples_.empty())
            return 0.0;
        const std::vector<Tick> v = sorted();
        auto above = v.end() - std::upper_bound(v.begin(), v.end(), slo);
        return static_cast<double>(above) / static_cast<double>(v.size());
    }

    std::vector<LatencySample>
    trace() const
    {
        std::vector<LatencySample> t = samples_;
        std::stable_sort(t.begin(), t.end(),
                         [](const LatencySample &a, const LatencySample &b) {
                             return a.completionTime < b.completionTime;
                         });
        return t;
    }

  private:
    std::vector<Tick>
    sorted() const
    {
        std::vector<Tick> v;
        v.reserve(samples_.size());
        for (const LatencySample &s : samples_)
            v.push_back(s.latency);
        std::sort(v.begin(), v.end());
        return v;
    }

    std::vector<LatencySample> samples_;
};

enum class Shape { kLognormal, kUniform, kAllEqual, kTwoValues, kZeros,
                   kFarOutlier, kBucketEdges };

const char *
shapeName(Shape shape)
{
    switch (shape) {
    case Shape::kLognormal: return "lognormal";
    case Shape::kUniform: return "uniform";
    case Shape::kAllEqual: return "all-equal";
    case Shape::kTwoValues: return "two-values";
    case Shape::kZeros: return "zeros";
    case Shape::kFarOutlier: return "far-outlier";
    case Shape::kBucketEdges: return "bucket-edges";
    }
    return "?";
}

/**
 * Both recorders fed one client's samples: completion times ascend,
 * with ties. A far-outlier set has one sample near 2^40 ticks. A
 * bucket-edges set repeats 0 and a few 2^k - 1, each on the last tick
 * of any power-of-two-wide bucket that starts at 0.
 */
void
fill(Shape shape, std::size_t n, Rng &rng, LatencyRecorder &rec,
     ReferenceRecorder &ref)
{
    Tick now = rng.uniformInt(0, 1000);
    for (std::size_t i = 0; i < n; ++i) {
        now += rng.uniformInt(0, 3);
        Tick lat = 0;
        switch (shape) {
        case Shape::kLognormal:
            lat = std::llround(rng.lognormal(std::log(100e3), 0.8));
            break;
        case Shape::kUniform:
            lat = rng.uniformInt(0, Tick{1} << 30);
            break;
        case Shape::kAllEqual:
            lat = microseconds(42);
            break;
        case Shape::kTwoValues:
            lat = rng.bernoulli(0.3) ? microseconds(10) : milliseconds(1);
            break;
        case Shape::kZeros:
            break;
        case Shape::kFarOutlier:
            lat = i == n / 2
                      ? (Tick{1} << 40) + rng.uniformInt(0, 1000)
                      : std::llround(rng.lognormal(std::log(100e3), 0.3));
            break;
        case Shape::kBucketEdges: {
            const int k[] = {0, 12, 20, 28};
            lat = (Tick{1} << k[rng.uniformInt(0, 3)]) - 1;
            break;
        }
        }
        rec.record(now, lat);
        ref.record(now, lat);
    }
}

void
expectSameAnswers(const LatencyRecorder &rec, const ReferenceRecorder &ref)
{
    ASSERT_EQ(rec.count(), ref.count());
    for (double p : {0.0, 50.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(rec.percentile(p), ref.percentile(p)) << "p" << p;
    for (std::size_t points : {std::size_t{1}, std::size_t{7},
                               std::size_t{200}, rec.count() + 5})
        EXPECT_EQ(rec.cdf(points), ref.cdf(points)) << points << " points";
    EXPECT_EQ(rec.mean(), ref.mean());
    EXPECT_EQ(rec.max(), ref.max());
    for (Tick slo : {Tick{0}, ref.percentile(50.0), ref.percentile(99.0)})
        EXPECT_EQ(rec.fractionAbove(slo), ref.fractionAbove(slo))
            << "slo " << slo;
    const auto got = rec.trace();
    const auto want = ref.trace();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].completionTime, want[i].completionTime) << i;
        ASSERT_EQ(got[i].latency, want[i].latency) << i;
    }
}

TEST(LatencyRecorderDiffTest, SelectionMatchesFullSort)
{
    Rng rng(20211018);
    for (Shape shape : {Shape::kLognormal, Shape::kUniform,
                        Shape::kAllEqual, Shape::kTwoValues, Shape::kZeros,
                        Shape::kFarOutlier, Shape::kBucketEdges}) {
        const std::size_t random_n =
            static_cast<std::size_t>(rng.uniformInt(4, 100000));
        for (std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}, random_n}) {
            const std::string label = std::string(shapeName(shape)) +
                                      " n=" + std::to_string(n);
            LatencyRecorder rec;
            ReferenceRecorder ref;
            fill(shape, n, rng, rec, ref);
            {
                SCOPED_TRACE(label + " recorded");
                expectSameAnswers(rec, ref);
            }

            // A second client's samples overlap the first's in time,
            // so the merged set is out of completion order.
            LatencyRecorder other;
            ReferenceRecorder other_ref;
            fill(shape, n / 2 + 1, rng, other, other_ref);
            rec.merge(other);
            ref.merge(other_ref);
            {
                SCOPED_TRACE(label + " merged");
                expectSameAnswers(rec, ref);
            }

            const auto trace = ref.trace();
            const Tick cutoff = trace[trace.size() / 2].completionTime;
            rec.discardBefore(cutoff);
            ref.discardBefore(cutoff);
            {
                SCOPED_TRACE(label + " discarded");
                expectSameAnswers(rec, ref);
            }
        }
    }
}

} // namespace
} // namespace nmapsim
