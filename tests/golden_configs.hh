/**
 * @file
 * The pinned configurations and render helpers behind the golden-output
 * regression tests (determinism_test.cc) and the golden generator
 * (golden_gen.cc).
 *
 * These configs are frozen: their serialised ResultWriter output is
 * checked in under tests/golden/ and every engine rewrite must
 * reproduce it byte for byte. Changing a config here (or the record
 * format) invalidates the goldens — regenerate them with golden_gen
 * *before* the engine change lands, and review the diff like any other
 * contract change.
 */

#ifndef NMAPSIM_TESTS_GOLDEN_CONFIGS_HH_
#define NMAPSIM_TESTS_GOLDEN_CONFIGS_HH_

#include <cstdio>
#include <sstream>
#include <string>

#include "harness/cluster.hh"
#include "harness/cluster_io.hh"
#include "harness/colocation.hh"
#include "harness/experiment.hh"
#include "harness/result_io.hh"
#include "stats/result_writer.hh"

namespace nmapsim {
namespace golden {

/** Small but policy-rich: NMAP exercises the monitor/decision path,
 *  menu exercises idle prediction. Thresholds are pinned so the run
 *  does not profile (keeps the test fast). */
inline ExperimentConfig
smallSingleHost()
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.load = LoadLevel::kMed;
    cfg.freqPolicy = "NMAP";
    cfg.idlePolicy = "menu";
    cfg.params.set("nmap.ni_th", "400");
    cfg.params.set("nmap.cu_th", "0.7");
    cfg.numCores = 4;
    cfg.warmup = milliseconds(10);
    cfg.duration = milliseconds(40);
    cfg.seed = 1234;
    return cfg;
}

inline ClusterConfig
smallCluster()
{
    ClusterConfig cfg;
    cfg.base = smallSingleHost();
    cfg.base.freqPolicy = "ondemand";
    cfg.numHosts = 2;
    cfg.dispatch = "flow-hash";
    cfg.drain = milliseconds(5);
    return cfg;
}

/** Seeded loss + corruption + client retries on one host. */
inline ExperimentConfig
faultedSingleHost()
{
    ExperimentConfig cfg = smallSingleHost();
    cfg.params.set("fault.wire_loss", "0.02");
    cfg.params.set("fault.wire_corrupt", "0.01");
    cfg.params.setTick("client.timeout", milliseconds(2));
    cfg.params.set("client.retries", 3);
    return cfg;
}

/** The hardest path: whole-host crash + recovery, failure-detector
 *  ejection/readmission and retries. */
inline ClusterConfig
faultedCluster()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "least-outstanding";
    cfg.fabric.healthInterval = milliseconds(1);
    cfg.fabric.healthTimeout = milliseconds(3);
    cfg.fabric.ejectDuration = milliseconds(5);
    cfg.base.params.set("fault.wire_loss", "0.01");
    cfg.base.params.set("fault.crash_host", 1);
    cfg.base.params.setTick("fault.crash_at", milliseconds(15));
    cfg.base.params.setTick("fault.recover_at", milliseconds(30));
    cfg.base.params.setTick("client.timeout", milliseconds(2));
    cfg.base.params.set("client.retries", 2);
    return cfg;
}

/** Kernel-bypass dataplane under fire: Metronome intermittent sleep
 *  with armed wakeups, plus a mid-run rx-ring degrade/restore cycle.
 *  Pins the poll-loop/sleep/harvest machinery and the bypass result
 *  columns byte for byte. */
inline ExperimentConfig
faultedBypassHost()
{
    ExperimentConfig cfg = smallSingleHost();
    cfg.freqPolicy = "ondemand";
    cfg.params.erase("nmap.ni_th");
    cfg.params.erase("nmap.cu_th");
    cfg.params.set("dataplane.mode", "bypass");
    cfg.params.set("dataplane.policy", "metronome");
    cfg.params.set("dataplane.sleep_armed_irq", "true");
    cfg.params.setTick("fault.ring_degrade_at", milliseconds(20));
    cfg.params.set("fault.ring_size", 8);
    cfg.params.setTick("fault.ring_restore_at", milliseconds(35));
    return cfg;
}

/** Overload control on one host: queue-deadline admission, a client
 *  retry budget (over client retries) and request deadlines. Breakers
 *  live in the switch, so a single host runs without them. Pins the
 *  single-host resilience record columns byte for byte. */
inline ExperimentConfig
resilientSingleHost()
{
    ExperimentConfig cfg = smallSingleHost();
    cfg.params.set("fault.wire_loss", "0.02");
    cfg.params.setTick("client.timeout", milliseconds(2));
    cfg.params.set("client.retries", 3);
    cfg.params.set("resilience.admission", "queue-deadline");
    cfg.params.setTick("resilience.admit_target", microseconds(50));
    cfg.params.setTick("resilience.admit_interval", milliseconds(1));
    cfg.params.set("resilience.retry_budget", "0.02");
    cfg.params.setTick("resilience.deadline", milliseconds(1));
    return cfg;
}

/** A mixed-dataplane pair: host 0 on NAPI, host 1 on the busy-poll
 *  bypass dataplane. Pins the per-host host<i>_bypass_* record columns
 *  (and their absence on the NAPI host) byte for byte. */
inline ClusterConfig
mixedBypassCluster()
{
    ClusterConfig cfg = smallCluster();
    cfg.hosts.assign(2, HostSpec{});
    cfg.hosts[1].params.set("dataplane.mode", "bypass");
    return cfg;
}

/** 3-tier LB -> app -> cache chain: a thin load-balancer tier fans
 *  into two app hosts, which forward to one cache host. Exercises
 *  east-west forwarding, per-tier dispatch and hop attribution. */
inline ClusterConfig
tieredCluster()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "round-robin";
    cfg.base.params.set("topology.tiers", 3);
    cfg.base.params.set("topology.tier0.name", "lb");
    cfg.base.params.set("topology.tier0.hosts", 1);
    cfg.base.params.set("topology.tier0.service_scale", "0.25");
    cfg.base.params.set("topology.tier1.name", "app");
    cfg.base.params.set("topology.tier1.hosts", 2);
    cfg.base.params.set("topology.tier1.dispatch",
                        "least-outstanding");
    cfg.base.params.set("topology.tier2.name", "cache");
    cfg.base.params.set("topology.tier2.hosts", 1);
    cfg.base.params.set("topology.tier2.service_scale", "0.5");
    return cfg;
}

/** 4-stage NFV-style service-function chain, one host per stage,
 *  with per-stage service weights (classification is cheap, DPI is
 *  the bottleneck). */
inline ClusterConfig
nfvChain()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "flow-hash";
    cfg.base.params.set("topology.tiers", 4);
    cfg.base.params.set("topology.tier0.name", "classify");
    cfg.base.params.set("topology.tier0.service_scale", "0.25");
    cfg.base.params.set("topology.tier1.name", "firewall");
    cfg.base.params.set("topology.tier1.service_scale", "0.5");
    cfg.base.params.set("topology.tier2.name", "dpi");
    cfg.base.params.set("topology.tier3.name", "nat");
    cfg.base.params.set("topology.tier3.service_scale", "0.5");
    return cfg;
}

/** Cascading failure with the full resilience stack armed: a 3-tier
 *  chain with a mid-chain client pool, a crashed-and-recovered middle
 *  host, queue-deadline admission at every app queue, breakers in the
 *  switch, a client retry budget and chain-wide deadline propagation.
 *  Pins the shed/budget/breaker counters and the resilience record
 *  columns byte for byte. */
inline ClusterConfig
resilientCascade()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "round-robin";
    cfg.fabric.healthInterval = milliseconds(1);
    cfg.fabric.healthTimeout = milliseconds(3);
    cfg.fabric.ejectDuration = milliseconds(5);
    cfg.base.params.set("topology.tiers", 3);
    cfg.base.params.set("topology.tier1.hosts", 2);
    cfg.base.params.set("topology.tier1.clients", 1);
    cfg.base.params.set("fault.crash_host", 1);
    cfg.base.params.setTick("fault.crash_at", milliseconds(15));
    cfg.base.params.setTick("fault.recover_at", milliseconds(30));
    cfg.base.params.setTick("client.timeout", milliseconds(2));
    cfg.base.params.set("client.retries", 3);
    cfg.base.params.set("resilience.admission", "queue-deadline");
    cfg.base.params.setTick("resilience.admit_target",
                            microseconds(200));
    cfg.base.params.setTick("resilience.admit_interval",
                            milliseconds(1));
    cfg.base.params.set("resilience.retry_budget", "0.2");
    cfg.base.params.setTick("resilience.breaker_window",
                            milliseconds(5));
    cfg.base.params.setTick("resilience.deadline", milliseconds(4));
    return cfg;
}

/** Two tenants (memcached + nginx) sharing one 4-core host under NMAP
 *  with pinned thresholds. Pins the colocation assembly path, which has
 *  no ResultWriter record of its own. */
inline ColocationConfig
smallColocation()
{
    ColocationConfig cfg;
    TenantConfig kv;
    kv.app = AppProfile::memcached();
    kv.load = LoadLevel::kLow;
    TenantConfig web;
    web.app = AppProfile::nginx();
    web.load = LoadLevel::kLow;
    cfg.tenants = {kv, web};
    cfg.freqPolicy = "NMAP";
    cfg.idlePolicy = "menu";
    cfg.params.set("nmap.ni_th", "13");
    cfg.params.set("nmap.cu_th", "0.49");
    cfg.numCores = 4;
    cfg.warmup = milliseconds(10);
    cfg.duration = milliseconds(40);
    cfg.seed = 1234;
    return cfg;
}

/** Serialised (JSON + CSV) ResultWriter output for one fresh run. */
inline std::string
renderSingleHost(const ExperimentConfig &cfg)
{
    const ExperimentResult result = Experiment(cfg).run();
    ResultWriter writer;
    appendResultRecord(writer, cfg, result);
    std::ostringstream out;
    writer.writeJson(out);
    out << '\n';
    writer.writeCsv(out);
    return out.str();
}

inline std::string
renderCluster(const ClusterConfig &cfg)
{
    const ClusterResult result = ClusterExperiment(cfg).run();
    ResultWriter writer;
    appendClusterResultRecord(writer, cfg, result);
    std::ostringstream out;
    writer.writeJson(out);
    out << '\n';
    writer.writeCsv(out);
    return out.str();
}

/** Every ColocationResult field, one `key=value` line each; doubles
 *  at round-trip precision. */
inline std::string
renderColocation(const ColocationConfig &cfg)
{
    const ColocationResult result = ColocationExperiment(cfg).run();
    std::ostringstream out;
    auto real = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
        const TenantResult &t = result.tenants[i];
        const std::string pre = "tenant" + std::to_string(i) + ".";
        out << pre << "app=" << t.appName << '\n'
            << pre << "slo=" << t.slo << '\n'
            << pre << "p99=" << t.p99 << '\n'
            << pre << "frac_over_slo=" << real(t.fracOverSlo) << '\n'
            << pre << "requests_sent=" << t.requestsSent << '\n'
            << pre << "responses_received=" << t.responsesReceived
            << '\n';
    }
    out << "energy_j=" << real(result.energyJoules) << '\n'
        << "avg_power_w=" << real(result.avgPowerWatts) << '\n'
        << "nic_drops=" << result.nicDrops << '\n'
        << "pstate_transitions=" << result.pstateTransitions << '\n';
    return out.str();
}

} // namespace golden
} // namespace nmapsim

#endif // NMAPSIM_TESTS_GOLDEN_CONFIGS_HH_
