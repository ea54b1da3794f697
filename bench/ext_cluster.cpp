/**
 * @file
 * Extension evaluation: power management at cluster scope — how the
 * ToR switch's dispatch policy interacts with each host's frequency
 * policy.
 *
 * A fixed cluster offered load (one host's worth of high memcached
 * traffic) is served by 2 or 4 hosts. Spreading policies (flow-hash,
 * round-robin, least-outstanding) dilute the per-host packet rate as
 * the cluster grows, which moves every NIC *away* from polling mode —
 * the regime where NMAP's mode-transition signal lives. The packing
 * policy (power-pack) concentrates the same load on as few hosts as
 * the spill knee allows, so spare hosts see zero traffic and their
 * packages sleep; the question is what that concentration costs in
 * tail latency under each frequency policy.
 *
 * The cluster points fan out through bench::runAll(), which records
 * machine-readable output via the cluster record schema.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/cluster.hh"
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

ClusterConfig
pointConfig(int hosts, const std::string &dispatch, const Variant &v)
{
    ClusterConfig cfg;
    cfg.base = bench::cellConfig(AppProfile::memcached(),
                                 LoadLevel::kHigh, v.policy);
    if (v.policy == "NMAP") {
        cfg.base.params.set("nmap.ni_th", v.ni);
        cfg.base.params.set("nmap.cu_th", v.cu);
    }
    cfg.numHosts = hosts;
    cfg.dispatch = dispatch;
    // The default spill knee (16 in-flight) is sized for closed-loop
    // RPC fan-out; under this open-loop burst load every host blows
    // through it and power-pack degrades to least-outstanding. A knee
    // near one host's burst backlog makes the packing visible.
    if (dispatch == "power-pack")
        cfg.base.params.set("dispatch.pack_limit", 256.0);
    // One client machine per host keeps the flow population growing
    // with the cluster, so affinity policies have enough flows to
    // split; the *total* offered load stays one host's worth.
    cfg.clientGroups = hosts;
    cfg.drain = milliseconds(2);
    return cfg;
}

/** Served-request imbalance: busiest host over the even share. */
double
imbalance(const ClusterResult &r)
{
    std::uint64_t max_served = 0;
    std::uint64_t total = 0;
    for (const ClusterHostResult &host : r.hosts) {
        max_served = std::max(max_served, host.served);
        total += host.served;
    }
    if (total == 0)
        return 0.0;
    double even = static_cast<double>(total) /
                  static_cast<double>(r.hosts.size());
    return static_cast<double>(max_served) / even;
}

} // namespace

int
main()
{
    bench::banner("Extension",
                  "cluster dispatch policy x per-host power policy");

    auto [mc_ni, mc_cu] =
        bench::profileApps({AppProfile::memcached()}, "ext_cluster")[0];

    const std::vector<Variant> variants = {
        {"performance", "performance", 0, 0},
        {"ondemand", "ondemand", 0, 0},
        {"NMAP", "NMAP", mc_ni, mc_cu},
    };
    const std::vector<std::string> dispatches = {
        "flow-hash", "round-robin", "least-outstanding", "power-pack"};
    const std::vector<int> host_counts = {2, 4};

    std::vector<ClusterConfig> configs;
    for (int hosts : host_counts)
        for (const std::string &dispatch : dispatches)
            for (const Variant &v : variants)
                configs.push_back(pointConfig(hosts, dispatch, v));

    const std::vector<ClusterResult> results =
        bench::runAll(configs, "ext_cluster");

    for (int hosts : host_counts) {
        std::printf("\n--- %d hosts, fixed cluster load "
                    "(memcached high, 1 host's worth) ---\n",
                    hosts);
        Table table({"dispatch", "policy", "P99 (us)", "xSLO",
                     "energy (J)", "power (W)", "imbalance"});
        for (std::size_t i = 0; i < configs.size(); ++i) {
            if (configs[i].numHosts != hosts)
                continue;
            const ClusterResult &r = results[i];
            table.addRow({
                configs[i].dispatch,
                configs[i].base.freqPolicy,
                Table::num(toMicroseconds(r.p99), 0),
                Table::num(static_cast<double>(r.p99) /
                               static_cast<double>(r.slo),
                           2),
                Table::num(r.energyJoules, 1),
                Table::num(r.avgPowerWatts, 1),
                Table::num(imbalance(r), 2),
            });
        }
        table.print(std::cout);
    }

    std::cout
        << "\nFindings: spreading dispatch (flow-hash, round-robin, "
           "least-outstanding) dilutes the per-host packet rate as "
           "hosts are added, so NICs sit in interrupt mode and "
           "DVFS-down policies (ondemand, NMAP) bank most of the "
           "idle-host savings automatically — but every added host "
           "still pays its uncore floor, so cluster power grows with "
           "size even at constant load. power-pack concentrates the "
           "load on the low-id hosts (imbalance ~= hosts), keeping "
           "the spares' packages in deep idle: the cheapest "
           "configuration at every size, at a modest P99 cost from "
           "the induced queueing. The dispatch x policy interaction "
           "is multiplicative — packing decides how many packages pay "
           "the floor, the frequency policy decides what the loaded "
           "ones pay above it.\n";
    return 0;
}
