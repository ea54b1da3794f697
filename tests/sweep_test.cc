/**
 * @file
 * Determinism-equivalence tests for the parallel sweep map: a sweep
 * must produce bit-identical scalar results regardless of the worker
 * count, in submission order, and a throwing point must surface its
 * error only after every sibling point ran.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

ExperimentConfig
shortConfig(const std::string &policy, LoadLevel load,
            std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = policy;
    cfg.load = load;
    cfg.seed = seed;
    cfg.warmup = milliseconds(20);
    cfg.duration = milliseconds(60);
    // Explicit thresholds: no nested profiling run per point.
    cfg.params.set("nmap.ni_th", 14.0);
    cfg.params.set("nmap.cu_th", 0.5);
    return cfg;
}

/** Sets NMAPSIM_JOBS for one scope, then unsets it. */
class ScopedJobs
{
  public:
    explicit ScopedJobs(const char *jobs)
    {
        ::setenv("NMAPSIM_JOBS", jobs, 1);
    }
    ~ScopedJobs() { ::unsetenv("NMAPSIM_JOBS"); }
};

std::vector<ExperimentResult>
runExperiments(const std::vector<ExperimentConfig> &points)
{
    return runParallel(
        points,
        [](const ExperimentConfig &cfg) { return Experiment(cfg).run(); },
        "sweep_test");
}

/** Every scalar field of ExperimentResult must match exactly. */
void
expectSameScalars(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
    EXPECT_DOUBLE_EQ(a.fracOverSlo, b.fracOverSlo);
    EXPECT_EQ(a.slo, b.slo);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    EXPECT_DOUBLE_EQ(a.avgPowerWatts, b.avgPowerWatts);
    EXPECT_EQ(a.requestsSent, b.requestsSent);
    EXPECT_EQ(a.responsesReceived, b.responsesReceived);
    EXPECT_EQ(a.nicDrops, b.nicDrops);
    EXPECT_EQ(a.nicRxHarvested, b.nicRxHarvested);
    EXPECT_EQ(a.nicTxConsumed, b.nicTxConsumed);
    EXPECT_EQ(a.pktsIntrMode, b.pktsIntrMode);
    EXPECT_EQ(a.pktsPollMode, b.pktsPollMode);
    EXPECT_EQ(a.ksoftirqdWakes, b.ksoftirqdWakes);
    EXPECT_EQ(a.pstateTransitions, b.pstateTransitions);
    EXPECT_EQ(a.cc6Wakes, b.cc6Wakes);
    EXPECT_EQ(a.cc1Wakes, b.cc1Wakes);
    EXPECT_DOUBLE_EQ(a.busyFraction, b.busyFraction);
    EXPECT_DOUBLE_EQ(a.niThresholdUsed, b.niThresholdUsed);
    EXPECT_DOUBLE_EQ(a.cuThresholdUsed, b.cuThresholdUsed);
}

TEST(SweepTest, SameConfigAndSeedRunTwiceIsIdentical)
{
    ExperimentConfig cfg =
        shortConfig("ondemand", LoadLevel::kMed, 7);
    std::vector<ExperimentResult> first = runExperiments({cfg});
    std::vector<ExperimentResult> second = runExperiments({cfg});
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    expectSameScalars(first[0], second[0]);
}

TEST(SweepTest, OneThreadAndEightThreadsAgreeInOrder)
{
    // 12-point grid: 2 policies x 2 loads x 3 seeds.
    std::vector<ExperimentConfig> points =
        SweepSpec(shortConfig("ondemand", LoadLevel::kLow,
                              1))
            .policies({"ondemand", "NMAP"})
            .loads({LoadLevel::kLow, LoadLevel::kHigh})
            .seeds({1, 2, 3})
            .build();
    ASSERT_EQ(points.size(), 12u);

    std::vector<ExperimentResult> serial;
    {
        ScopedJobs jobs("1");
        serial = runExperiments(points);
    }
    std::vector<ExperimentResult> parallel;
    {
        ScopedJobs jobs("8");
        parallel = runExperiments(points);
    }

    ASSERT_EQ(serial.size(), 12u);
    ASSERT_EQ(parallel.size(), 12u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameScalars(serial[i], parallel[i]);
    }

    // Order check: distinct loads must land at their submission slot,
    // not in completion order (the low-load point finishes first).
    EXPECT_LT(parallel[0].requestsSent, parallel[3].requestsSent);
}

TEST(SweepTest, LowestIndexErrorRethrownAfterEveryPointRan)
{
    std::vector<int> points;
    for (int i = 0; i < 17; ++i)
        points.push_back(i);
    std::atomic<int> calls{0};
    auto square = [&calls](int i) {
        ++calls;
        if (i == 5 || i == 11)
            throw FatalError("boom " + std::to_string(i));
        return i * i;
    };

    ScopedJobs jobs("4");
    try {
        runParallel(points, square, "sweep_test");
        FAIL() << "a failed point must rethrow";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "boom 5");
    }
    EXPECT_EQ(calls.load(), 17);

    // Without a failure every result lands at its own index.
    const std::vector<int> clean = {0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 12};
    std::vector<int> squares = runParallel(clean, square, "sweep_test");
    ASSERT_EQ(squares.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i)
        EXPECT_EQ(squares[i], clean[i] * clean[i]);
}

TEST(SweepTest, FailingExperimentSurfacesItsOwnError)
{
    ExperimentConfig good =
        shortConfig("performance", LoadLevel::kLow, 5);
    ExperimentConfig bad = good;
    bad.duration = 0; // Experiment() rejects this with FatalError
    try {
        runExperiments({good, bad, good});
        FAIL() << "the zero-duration point must rethrow";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duration"),
                  std::string::npos);
    }
}

TEST(SweepTest, ProfileFanOutMatchesSerialProfiling)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    ScopedJobs jobs("2");
    std::vector<std::pair<double, double>> thresholds = runParallel(
        std::vector<ExperimentConfig>{cfg, cfg},
        &Experiment::profileThresholds, "sweep_test/profile");
    ASSERT_EQ(thresholds.size(), 2u);
    auto [ni, cu] = Experiment::profileThresholds(cfg);
    EXPECT_DOUBLE_EQ(thresholds[0].first, ni);
    EXPECT_DOUBLE_EQ(thresholds[0].second, cu);
    EXPECT_DOUBLE_EQ(thresholds[1].first, ni);
    EXPECT_DOUBLE_EQ(thresholds[1].second, cu);
}

TEST(SweepTest, SpecEnumeratesPoliciesOuterSeedsInner)
{
    SweepSpec spec =
        SweepSpec(shortConfig("ondemand", LoadLevel::kLow,
                              0))
            .policies({"performance", "NMAP"})
            .seeds({10, 20, 30});
    EXPECT_EQ(spec.numPoints(), 6u);

    std::vector<ExperimentConfig> points = spec.build();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].freqPolicy, "performance");
    EXPECT_EQ(points[0].seed, 10u);
    EXPECT_EQ(points[2].seed, 30u);
    EXPECT_EQ(points[3].freqPolicy, "NMAP");
    EXPECT_EQ(points[3].seed, 10u);
    EXPECT_EQ(spec.index(1, 0, 0, 0, 0), 3u);
    EXPECT_EQ(spec.index(1, 0, 0, 0, 2), 5u);

    // Unset dimensions inherit the base config.
    EXPECT_EQ(points[5].load, LoadLevel::kLow);
    EXPECT_EQ(points[5].idlePolicy, "menu");
}

TEST(SweepTest, RpsListInstallsOverrides)
{
    std::vector<ExperimentConfig> points =
        SweepSpec(shortConfig("performance",
                              LoadLevel::kHigh, 42))
            .rpsList({100e3, 500e3})
            .build();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].rpsOverride, 100e3);
    EXPECT_DOUBLE_EQ(points[1].rpsOverride, 500e3);
}

TEST(SweepTest, JobsHonourEnvAndPointCount)
{
    {
        ScopedJobs jobs("5");
        EXPECT_EQ(sweepJobs(100), 5);
        EXPECT_EQ(sweepJobs(2), 2); // capped at the point count
        EXPECT_EQ(sweepJobs(0), 1);
    }
    {
        ScopedJobs jobs("0"); // invalid: fall back to the hardware
        EXPECT_GE(sweepJobs(100), 1);
        EXPECT_EQ(sweepJobs(1), 1);
    }
    {
        ScopedJobs jobs("garbage");
        EXPECT_GE(sweepJobs(100), 1);
    }
    EXPECT_GE(sweepJobs(100), 1);
    EXPECT_EQ(sweepJobs(1), 1);
}

TEST(SweepTest, EmptySweepReturnsNoResults)
{
    EXPECT_TRUE(runExperiments({}).empty());
}

} // namespace
} // namespace nmapsim
