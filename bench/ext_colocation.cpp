/**
 * @file
 * Extension evaluation: two latency-critical tenants colocated on one
 * server — the deployment Parties targets and an open question for
 * NMAP, whose thresholds are profiled per application.
 *
 * Scenario A (homogeneous): two memcached tenants (medium + low load)
 * share the cores. Every SLO is achievable, so the scenario isolates
 * the power-management question: NMAP (either tenant's offline
 * thresholds, or the online-adaptive variant) must keep both tenants
 * compliant at less energy than `performance`.
 *
 * Scenario B (heterogeneous): memcached (1 ms SLO) colocated with
 * nginx (~19 us requests). Even the `performance` governor cannot hold
 * memcached's SLO: the tail is dominated by head-of-line blocking
 * behind nginx's long request slices, not by DVFS — the isolation
 * problem that motivates partitioning controllers like Parties and
 * Heracles, beyond what any frequency policy can fix.
 *
 * Colocation runs are not plain Experiments, so this bench fans out
 * through runParallel() directly and records each run with the
 * colocation record schema.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "harness/colocation.hh"
#include "stats/table.hh"

using namespace nmapsim;

namespace {

struct Variant
{
    const char *name;
    std::string policy;
    double ni;
    double cu;
};

ColocationConfig
variantConfig(const TenantConfig &a, const TenantConfig &b,
              const Variant &v)
{
    ColocationConfig cfg;
    cfg.tenants = {a, b};
    cfg.freqPolicy = v.policy;
    cfg.duration = static_cast<Tick>(
        static_cast<double>(seconds(1)) * bench::durationScale());
    if (v.policy == "NMAP") {
        cfg.params.set("nmap.ni_th", v.ni);
        cfg.params.set("nmap.cu_th", v.cu);
    }
    return cfg;
}

void
printScenario(const char *title, const std::vector<Variant> &variants,
              const std::vector<ColocationResult> &results,
              std::size_t offset)
{
    std::printf("\n--- %s ---\n", title);
    Table table({"policy", "tenant0 P99 (us)", "xSLO",
                 "tenant1 P99 (us)", "xSLO", "energy (J)"});
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const ColocationResult &r = results[offset + vi];
        table.addRow({
            variants[vi].name,
            Table::num(toMicroseconds(r.tenants[0].p99), 0),
            Table::num(static_cast<double>(r.tenants[0].p99) /
                           static_cast<double>(r.tenants[0].slo),
                       2),
            Table::num(toMicroseconds(r.tenants[1].p99), 0),
            Table::num(static_cast<double>(r.tenants[1].p99) /
                           static_cast<double>(r.tenants[1].slo),
                       2),
            Table::num(r.energyJoules, 1),
        });
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    bench::banner("Extension", "colocated latency-critical tenants");

    std::vector<std::pair<double, double>> thresholds =
        bench::profileApps(
            {AppProfile::memcached(), AppProfile::nginx()},
            "ext_colocation");
    auto [mc_ni, mc_cu] = thresholds[0];
    auto [ng_ni, ng_cu] = thresholds[1];

    const std::vector<Variant> variants = {
        {"performance", "performance", 0, 0},
        {"ondemand", "ondemand", 0, 0},
        {"NMAP (mc thresholds)", "NMAP", mc_ni, mc_cu},
        {"NMAP (nginx thresholds)", "NMAP", ng_ni, ng_cu},
        {"NMAP-adaptive", "NMAP-adaptive", 0, 0},
    };

    TenantConfig mc_med;
    mc_med.app = AppProfile::memcached();
    mc_med.load = LoadLevel::kMed;

    TenantConfig mc_low;
    mc_low.app = AppProfile::memcached();
    mc_low.load = LoadLevel::kLow;

    TenantConfig ng_low;
    ng_low.app = AppProfile::nginx();
    ng_low.load = LoadLevel::kLow;

    // Both scenarios' variants fan out as one batch.
    std::vector<ColocationConfig> configs;
    for (const Variant &v : variants)
        configs.push_back(variantConfig(mc_med, mc_low, v));
    for (const Variant &v : variants)
        configs.push_back(variantConfig(mc_med, ng_low, v));

    std::vector<ColocationResult> results = runParallel(
        configs,
        [](const ColocationConfig &cfg) {
            return ColocationExperiment(cfg).run();
        },
        "ext_colocation");
    if (ResultWriter *sink = bench::jsonSink())
        for (std::size_t i = 0; i < configs.size(); ++i)
            appendColocationResultRecord(*sink, configs[i], results[i]);

    printScenario("Scenario A: memcached(med) + memcached(low), "
                  "homogeneous",
                  variants, results, 0);
    printScenario("Scenario B: memcached(med) + nginx(low), "
                  "heterogeneous",
                  variants, results, variants.size());

    std::cout
        << "\nFindings: (A) with compatible tenants, colocated NMAP "
           "keeps both SLOs at less energy than performance, and the "
           "choice of whose offline thresholds to inherit barely "
           "matters (the adaptive variant removes the choice "
           "entirely). (B) with a heavyweight tenant, memcached's "
           "1 ms SLO is broken by head-of-line blocking behind ~19 us "
           "nginx requests *even at P0* — power management cannot "
           "substitute for the core/cache isolation that controllers "
           "like Parties provide. DVFS policy choice still decides the "
           "energy bill and nginx's own SLO.\n";
    return 0;
}
