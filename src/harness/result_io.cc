#include "harness/result_io.hh"

#include <string>

#include "resilience/plan.hh"

namespace nmapsim {

namespace {

/** A client half's latency summary, under @p prefix. */
void
setLatencyColumns(ResultWriter::Record &rec, const std::string &prefix,
                  const ClientResult &r)
{
    rec.set(prefix + "p50_ns", static_cast<std::int64_t>(r.p50))
        .set(prefix + "p99_ns", static_cast<std::int64_t>(r.p99))
        .set(prefix + "max_latency_ns",
             static_cast<std::int64_t>(r.maxLatency))
        .set(prefix + "mean_latency_ns", r.meanLatency)
        .set(prefix + "slo_ns", static_cast<std::int64_t>(r.slo))
        .set(prefix + "frac_over_slo", r.fracOverSlo);
}

/** Latency summary, energy and request counts: the first metric
 *  columns of every record. @p r is an ExperimentResult or a
 *  ClusterResult (whose energy is the hosts' sum). */
template <typename Result>
void
setHeadlineColumns(ResultWriter::Record &rec, const Result &r)
{
    setLatencyColumns(rec, "", r);
    rec.set("energy_j", r.energyJoules)
        .set("avg_power_w", r.avgPowerWatts)
        .set("requests_sent", r.requestsSent)
        .set("responses_received", r.responsesReceived);
}

/** The server half's NIC, NAPI, DVFS, C-state and threshold counters. */
void
setServerColumns(ResultWriter::Record &rec, const ServerResult &r)
{
    rec.set("nic_drops", r.nicDrops)
        .set("nic_rx_harvested", r.nicRxHarvested)
        .set("nic_tx_consumed", r.nicTxConsumed)
        .set("pkts_intr_mode", r.pktsIntrMode)
        .set("pkts_poll_mode", r.pktsPollMode)
        .set("ksoftirqd_wakes", r.ksoftirqdWakes)
        .set("pstate_transitions", r.pstateTransitions)
        .set("cc6_wakes", r.cc6Wakes)
        .set("cc1_wakes", r.cc1Wakes)
        .set("busy_fraction", r.busyFraction)
        .set("ni_threshold_used", r.niThresholdUsed)
        .set("cu_threshold_used", r.cuThresholdUsed);
}

/** Client retry outcomes and the fault injector's loss counters,
 *  under @p prefix. */
void
setFaultColumns(ResultWriter::Record &rec, const std::string &prefix,
                const ClientResult &r)
{
    rec.set(prefix + "requests_timed_out", r.requestsTimedOut)
        .set(prefix + "retransmits", r.retransmits)
        .set(prefix + "requests_in_flight", r.requestsInFlight)
        .set(prefix + "duplicate_responses", r.duplicateResponses)
        .set(prefix + "fault_pkts_lost", r.faultPacketsLost)
        .set(prefix + "fault_pkts_corrupted", r.faultPacketsCorrupted)
        .set(prefix + "link_down_drops", r.linkDownDrops);
}

/** The clients' shed and retry-budget counters and the application
 *  sheds (summed over the hosts of a cluster). Callers write them only
 *  when a resilience.* plan is configured, so every pre-resilience
 *  record (goldens, bench baselines) stays byte-identical. */
template <typename Result>
void
setResilienceColumns(ResultWriter::Record &rec, const Result &r)
{
    rec.set("requests_shed", r.requestsShed)
        .set("retry_budget_exhausted", r.retryBudgetExhausted)
        .set("shed_admission", r.shedAdmission)
        .set("shed_sojourn", r.shedSojourn)
        .set("shed_deadline", r.shedDeadline);
}

/** Dataplane columns, under @p prefix ("" or "host<i>_"). They exist
 *  only for bypass hosts, so NAPI records (and a mixed cluster's NAPI
 *  hosts) keep their pre-dataplane shape byte for byte. */
void
setBypassColumns(ResultWriter::Record &rec, const std::string &prefix,
                 const ServerResult &s)
{
    if (!s.bypass)
        return;
    rec.set(prefix + "bypass_poll_loops", s.bypassPollLoops)
        .set(prefix + "bypass_empty_polls", s.bypassEmptyPolls)
        .set(prefix + "bypass_sleeps", s.bypassSleeps)
        .set(prefix + "bypass_sleep_residency_ns",
             static_cast<std::int64_t>(s.bypassSleepResidency))
        .set(prefix + "bypass_wasted_poll_energy_j",
             s.bypassWastedPollEnergy);
}

} // namespace

ResultWriter::Record &
appendResultRecord(ResultWriter &writer, const ExperimentConfig &config,
                   const ExperimentResult &result)
{
    ResultWriter::Record &rec = writer.add();

    // Config dimensions identifying the point.
    rec.set("app", config.app.name)
        .set("load", loadLevelName(config.load))
        .set("freq_policy", config.freqPolicy)
        .set("idle_policy", config.idlePolicy)
        .set("cores", config.numCores)
        .set("connections", config.numConnections)
        .set("rps_override", config.rpsOverride)
        .set("warmup_ns", static_cast<std::int64_t>(config.warmup))
        .set("duration_ns", static_cast<std::int64_t>(config.duration))
        .set("seed", config.seed);
    for (const auto &[key, value] : config.params)
        rec.set(key, value);

    // Measured metrics.
    setHeadlineColumns(rec, result);
    setServerColumns(rec, result);
    setFaultColumns(rec, "", result);
    rec.set("availability", result.availability)
        .set("attempt_p99_ns",
             static_cast<std::int64_t>(result.attemptP99));

    setBypassColumns(rec, "", result);
    if (ResiliencePlan::fromParams(config.params).enabled())
        setResilienceColumns(rec, result);
    return rec;
}

ResultWriter::Record &
appendClusterResultRecord(ResultWriter &writer,
                          const ClusterConfig &config,
                          const ClusterResult &result)
{
    ResultWriter::Record &rec = writer.add();

    // Config dimensions identifying the point.
    rec.set("hosts", static_cast<std::int64_t>(result.hosts.size()))
        .set("dispatch", config.dispatch)
        .set("client_groups", config.clientGroups)
        .set("app", config.base.app.name)
        .set("load", loadLevelName(config.base.load))
        .set("freq_policy", config.base.freqPolicy)
        .set("idle_policy", config.base.idlePolicy)
        .set("cores", config.base.numCores)
        .set("connections", config.base.numConnections)
        .set("rps_override", config.base.rpsOverride)
        .set("warmup_ns",
             static_cast<std::int64_t>(config.base.warmup))
        .set("duration_ns",
             static_cast<std::int64_t>(config.base.duration))
        .set("drain_ns", static_cast<std::int64_t>(config.drain))
        .set("seed", config.base.seed);
    for (const auto &[key, value] : config.base.params)
        rec.set(key, value);

    // Cluster-level metrics.
    setHeadlineColumns(rec, result);
    rec.set("requests_forwarded", result.requestsForwarded)
        .set("responses_returned", result.responsesReturned)
        .set("switch_port_drops", result.switchPortDrops)
        .set("host_nic_drops", result.hostNicDrops)
        .set("stray_responses", result.strayResponses);
    setFaultColumns(rec, "", result);
    rec.set("ejections", result.ejections)
        .set("requests_rerouted", result.requestsRerouted)
        .set("late_responses", result.lateResponses)
        .set("availability", result.availability)
        .set("goodput_rps", result.goodputRps)
        .set("attempt_p99_ns",
             static_cast<std::int64_t>(result.attemptP99));

    const bool resilient =
        ResiliencePlan::fromParams(config.base.params).enabled();
    if (resilient) {
        setResilienceColumns(rec, result);
        rec.set("switch_deadline_sheds", result.switchDeadlineSheds)
            .set("breaker_short_circuits", result.breakerShortCircuits)
            .set("breaker_transitions", result.breakerTransitions);
    }

    // Topology columns only exist for topology runs, so single-tier
    // records (and their pinned goldens) stay byte-identical.
    const bool tiered = !result.tiers.empty();
    if (tiered) {
        rec.set("tiers",
                static_cast<std::int64_t>(result.tiers.size()))
            .set("east_west_forwards", result.eastWestForwards)
            .set("east_west_bytes", result.eastWestBytes)
            .set("goodput_bytes", result.goodputBytes)
            .set("control_bytes", result.controlBytes)
            .set("hop_p99_sum_ns",
                 static_cast<std::int64_t>(result.hopP99Sum));
        for (const ClusterTierResult &tier : result.tiers) {
            const std::string p =
                "tier" + std::to_string(tier.tier) + "_";
            rec.set(p + "name", tier.name)
                .set(p + "hosts", tier.hosts)
                .set(p + "dispatch", tier.dispatch)
                .set(p + "completions", tier.completions)
                .set(p + "forwards", tier.forwards)
                .set(p + "hop_p50_ns",
                     static_cast<std::int64_t>(tier.hopP50))
                .set(p + "hop_p99_ns",
                     static_cast<std::int64_t>(tier.hopP99))
                .set(p + "hop_max_ns",
                     static_cast<std::int64_t>(tier.hopMax))
                .set(p + "mean_hop_ns", tier.meanHop)
                .set(p + "slo_ns",
                     static_cast<std::int64_t>(tier.slo))
                .set(p + "frac_over_slo", tier.fracOverSlo)
                .set(p + "p99_share", tier.p99Share)
                .set(p + "energy_j", tier.energyJoules);
        }
    }

    // Per-host summary columns.
    for (const ClusterHostResult &host : result.hosts) {
        const std::string p = "host" + std::to_string(host.id) + "_";
        rec.set(p + "freq_policy", host.freqPolicy)
            .set(p + "idle_policy", host.idlePolicy)
            .set(p + "served", host.served)
            .set(p + "p50_ns", static_cast<std::int64_t>(host.p50))
            .set(p + "p99_ns", static_cast<std::int64_t>(host.p99))
            .set(p + "energy_j", host.energyJoules)
            .set(p + "avg_power_w", host.avgPowerWatts)
            .set(p + "busy_fraction", host.busyFraction)
            .set(p + "nic_drops", host.nicDrops)
            .set(p + "pkts_intr_mode", host.pktsIntrMode)
            .set(p + "pkts_poll_mode", host.pktsPollMode)
            .set(p + "ejections", host.ejections);
        if (tiered) {
            rec.set(p + "tier", host.tier)
                .set(p + "tier_name", host.tierName)
                .set(p + "forwarded", host.forwarded)
                .set(p + "hops_completed", host.hopsCompleted)
                .set(p + "hop_p50_ns",
                     static_cast<std::int64_t>(host.hopP50))
                .set(p + "hop_p99_ns",
                     static_cast<std::int64_t>(host.hopP99));
        }
        if (resilient) {
            rec.set(p + "shed_admission", host.shedAdmission)
                .set(p + "shed_sojourn", host.shedSojourn)
                .set(p + "shed_deadline", host.shedDeadline)
                .set(p + "breaker_transitions",
                     host.breakerTransitions);
        }
        setBypassColumns(rec, p, host);
    }
    return rec;
}

ResultWriter::Record &
appendColocationResultRecord(ResultWriter &writer,
                             const ColocationConfig &config,
                             const ColocationResult &result)
{
    ResultWriter::Record &rec = writer.add();

    // Config dimensions identifying the point.
    rec.set("freq_policy", config.freqPolicy)
        .set("idle_policy", config.idlePolicy)
        .set("cores", config.numCores)
        .set("warmup_ns", static_cast<std::int64_t>(config.warmup))
        .set("duration_ns", static_cast<std::int64_t>(config.duration))
        .set("seed", config.seed);
    for (const auto &[key, value] : config.params)
        rec.set(key, value);

    // The shared server's half.
    rec.set("energy_j", result.energyJoules)
        .set("avg_power_w", result.avgPowerWatts);
    setServerColumns(rec, result);
    setBypassColumns(rec, "", result);

    // Each tenant's workload and client half.
    rec.set("tenants", static_cast<std::int64_t>(result.tenants.size()));
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
        const std::string p = "tenant" + std::to_string(i) + "_";
        const TenantConfig &tc = config.tenants.at(i);
        const TenantResult &t = result.tenants[i];
        rec.set(p + "app", t.appName)
            .set(p + "load", loadLevelName(tc.load))
            .set(p + "connections", tc.numConnections)
            .set(p + "rps_override", tc.rpsOverride);
        setLatencyColumns(rec, p, t);
        rec.set(p + "requests_sent", t.requestsSent)
            .set(p + "responses_received", t.responsesReceived);
        setFaultColumns(rec, p, t);
        rec.set(p + "availability", t.availability)
            .set(p + "attempt_p99_ns",
                 static_cast<std::int64_t>(t.attemptP99));
    }
    return rec;
}

} // namespace nmapsim
