/**
 * @file
 * Integration tests for the colocation harness (two latency-critical
 * tenants sharing one server).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>

#include "harness/colocation.hh"
#include "harness/result_io.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

ColocationConfig
pairConfig(const std::string &policy)
{
    ColocationConfig cfg;
    TenantConfig a;
    a.app = AppProfile::memcached();
    a.load = LoadLevel::kMed;
    TenantConfig b;
    b.app = AppProfile::memcached();
    b.load = LoadLevel::kLow;
    cfg.tenants = {a, b};
    cfg.freqPolicy = policy;
    cfg.params.set("nmap.ni_th", 13.0);
    cfg.params.set("nmap.cu_th", 0.49);
    cfg.warmup = milliseconds(100);
    cfg.duration = milliseconds(300);
    return cfg;
}

TEST(ColocationTest, BothTenantsServed)
{
    ColocationResult r =
        ColocationExperiment(pairConfig("performance"))
            .run();
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.nicDrops, 0u);
    for (const TenantResult &t : r.tenants) {
        EXPECT_GT(t.requestsSent, 1000u);
        EXPECT_GE(t.requestsSent, t.responsesReceived);
        EXPECT_GT(t.responsesReceived, t.requestsSent * 9 / 10);
    }
}

TEST(ColocationTest, TenantsKeepSeparateAccounting)
{
    ColocationResult r =
        ColocationExperiment(pairConfig("performance"))
            .run();
    // Tenant 0 runs the medium load, tenant 1 the low load: tenant 0
    // must have sent several times more requests.
    EXPECT_GT(r.tenants[0].requestsSent,
              r.tenants[1].requestsSent * 3);
    EXPECT_EQ(r.tenants[0].appName, "memcached");
    EXPECT_EQ(r.tenants[0].slo, milliseconds(1));
}

TEST(ColocationTest, NmapKeepsBothSlosCheaperThanPerformance)
{
    ColocationResult perf =
        ColocationExperiment(pairConfig("performance"))
            .run();
    ColocationResult nmap =
        ColocationExperiment(pairConfig("NMAP")).run();
    for (const TenantResult &t : nmap.tenants)
        EXPECT_LE(t.p99, t.slo) << t.appName;
    EXPECT_LT(nmap.energyJoules, perf.energyJoules);
}

TEST(ColocationTest, AdaptiveNeedsNoThresholds)
{
    ColocationConfig cfg = pairConfig("NMAP-adaptive");
    cfg.params.set("nmap.ni_th", 0.0); // unused by the adaptive variant
    cfg.params.set("nmap.cu_th", 0.0);
    ColocationResult r = ColocationExperiment(cfg).run();
    for (const TenantResult &t : r.tenants)
        EXPECT_LE(t.p99, t.slo * 5 / 4) << t.appName;
}

TEST(ColocationTest, DeterministicForSameSeed)
{
    ColocationConfig cfg = pairConfig("ondemand");
    ColocationResult a = ColocationExperiment(cfg).run();
    ColocationResult b = ColocationExperiment(cfg).run();
    EXPECT_EQ(a.tenants[0].p99, b.tenants[0].p99);
    EXPECT_EQ(a.tenants[1].requestsSent, b.tenants[1].requestsSent);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
}

TEST(ColocationTest, NmapWithoutThresholdsIsFatal)
{
    ColocationConfig cfg = pairConfig("NMAP");
    cfg.params.set("nmap.ni_th", 0.0);
    ColocationExperiment experiment(cfg);
    EXPECT_THROW(experiment.run(), FatalError);
}

TEST(ColocationTest, UnsupportedPolicyIsFatal)
{
    ColocationConfig cfg = pairConfig("Parties");
    ColocationExperiment experiment(cfg);
    EXPECT_THROW(experiment.run(), FatalError);
}

TEST(ColocationTest, InvalidTenantsRejected)
{
    ColocationConfig cfg;
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError); // no tenants
    cfg = pairConfig("performance");
    cfg.tenants[0].numConnections = 0;
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError);
}

TEST(ColocationTest, NonPositiveDurationRejected)
{
    ColocationConfig cfg = pairConfig("performance");
    cfg.duration = 0;
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError);
    cfg.duration = -milliseconds(1);
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError);
}

TEST(ColocationTest, RecordUsesSingleHostColumnNames)
{
    ColocationConfig cfg = pairConfig("NMAP");
    ColocationResult r;
    r.nicDrops = 3;
    r.tenants.resize(2);
    r.tenants[0].appName = "memcached";
    r.tenants[1].appName = "memcached";
    r.tenants[1].p99 = microseconds(250);
    r.tenants[1].retransmits = 4;
    ResultWriter writer;
    const ResultWriter::Record &rec =
        appendColocationResultRecord(writer, cfg, r);

    // Config columns, then the server half, then `tenants`, then each
    // tenant's columns: the tenant prefix stripped, every name but
    // `tenants` is a single-host record column.
    ExperimentConfig solo;
    solo.params = cfg.params;
    ResultWriter solo_writer;
    std::set<std::string> solo_keys;
    for (const auto &field :
         appendResultRecord(solo_writer, solo, ExperimentResult{})
             .fields())
        solo_keys.insert(field.first);

    std::vector<std::string> keys;
    for (const auto &field : rec.fields())
        keys.push_back(field.first);
    const std::vector<std::string> head = {
        "freq_policy", "idle_policy", "cores",    "warmup_ns",
        "duration_ns", "seed",        "nmap.cu_th", "nmap.ni_th",
        "energy_j",    "avg_power_w", "nic_drops"};
    ASSERT_GT(keys.size(), head.size());
    EXPECT_EQ(std::vector<std::string>(keys.begin(),
                                       keys.begin() + head.size()),
              head);
    std::size_t tenants_at = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        std::string key = keys[i];
        if (key == "tenants") {
            tenants_at = i;
            continue;
        }
        if (key.rfind("tenant", 0) == 0) {
            EXPECT_GT(tenants_at, 0u) << key;
            key = key.substr(key.find('_') + 1);
        }
        EXPECT_EQ(solo_keys.count(key), 1u) << keys[i];
    }
    EXPECT_EQ(keys[tenants_at + 1], "tenant0_app");
    EXPECT_EQ(keys.back(), "tenant1_attempt_p99_ns");

    auto value = [&rec](const std::string &key) {
        for (const auto &field : rec.fields())
            if (field.first == key)
                return field.second;
        ADD_FAILURE() << "no column " << key;
        return ResultWriter::Value{};
    };
    EXPECT_EQ(std::get<std::uint64_t>(value("nic_drops")), 3u);
    EXPECT_EQ(std::get<std::int64_t>(value("tenants")), 2);
    EXPECT_EQ(std::get<std::int64_t>(value("tenant1_p99_ns")),
              microseconds(250));
    EXPECT_EQ(std::get<std::uint64_t>(value("tenant1_retransmits")), 4u);
    EXPECT_EQ(std::get<std::string>(value("tenant1_load")), "low");
}

TEST(ColocationTest, SingleTenantMatchesSoloBallpark)
{
    // One tenant through the colocation harness behaves like the
    // regular Experiment (same physics, different assembly).
    ColocationConfig cfg = pairConfig("performance");
    cfg.tenants.resize(1);
    ColocationResult co = ColocationExperiment(cfg).run();

    ExperimentConfig solo;
    solo.app = AppProfile::memcached();
    solo.load = LoadLevel::kMed;
    solo.freqPolicy = "performance";
    solo.warmup = cfg.warmup;
    solo.duration = cfg.duration;
    ExperimentResult se = Experiment(solo).run();

    EXPECT_NEAR(static_cast<double>(co.tenants[0].p99),
                static_cast<double>(se.p99),
                0.5 * static_cast<double>(se.p99));
    EXPECT_NEAR(co.energyJoules, se.energyJoules,
                0.2 * se.energyJoules);
}

} // namespace
} // namespace nmapsim
