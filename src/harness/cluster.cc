#include "harness/cluster.hh"

#include <memory>
#include <utility>
#include <vector>

#include "cluster/dispatch.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "harness/policy_registry.hh"
#include "harness/server_rig.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/client.hh"
#include "workload/loadgen.hh"
#include "workload/server_app.hh"

namespace nmapsim {

namespace {

/**
 * One server host behind the switch: a ServerRig plus what a switch
 * port adds to it — the application in its tier role, the uplink to
 * the switch and a feedback client. The feedback client never
 * transmits; the switch's response tap feeds it the responses this
 * host served, which gives per-host latency statistics and the client
 * latency feed policies like Parties need, so every registered
 * frequency policy works per host with no cluster special case.
 */
struct Host
{
    Host(int host_id, EventQueue &eq, const ExperimentConfig &cfg,
         Rng rng, const SwitchConfig &fabric)
        : id(host_id), config(cfg),
          rig(eq, config, std::move(rng)),
          uplink(eq, fabric.portBandwidthBps, fabric.portPropagation),
          app(rig.os(), rig.nic(), config.app, rig.rng().fork()),
          feedback(eq, uplink, config.app, /*num_connections=*/1)
    {
        uplink.setLabel("host" + std::to_string(id) + ".uplink");
        rig.nic().setTxWire(&uplink);
        rig.attachPolicies(&feedback, [this] {
            return Experiment::profileThresholds(config);
        });
    }

    /** This host's results over [measurement start, @p end]. */
    ClusterHostResult
    collect(Tick end) const
    {
        ClusterHostResult r{rig.collect(end, &app)};
        r.id = id;
        r.freqPolicy = config.freqPolicy;
        r.idlePolicy = config.idlePolicy;
        r.tier = tier;
        r.tierName = tierName;
        r.forwarded = app.requestsForwarded();
        r.served = feedback.responsesReceived();
        r.p50 = feedback.latencies().percentile(50.0);
        r.p99 = feedback.latencies().percentile(99.0);
        return r;
    }

    int id;
    /** The host's resolved configuration (owned by the experiment);
     *  the rig and the app hold references into it. */
    const ExperimentConfig &config;
    ServerRig rig;
    Wire uplink; //!< host -> switch
    ServerApp app;
    Client feedback;
    int tier = 0;
    std::string tierName;
};

} // namespace

ClusterExperiment::ClusterExperiment(ClusterConfig config)
    : config_(std::move(config))
{
    ensureBuiltinPolicies();
    ensureBuiltinDispatchPolicies();

    // A declared topology owns the host count: tiers are contiguous
    // host-id ranges, so `hosts` (the count) is derived and per-host
    // override vectors must match the derived total.
    topology_ = TopologyPlan::fromParams(config_.base.params);
    if (topology_.enabled()) {
        config_.numHosts = topology_.totalHosts();
        for (const TierSpec &tier : topology_.tiers) {
            const std::string where =
                " in topology tier '" + tier.name + "'";
            if (!tier.dispatch.empty() &&
                !DispatchRegistry::instance().has(tier.dispatch))
                fatal("unknown dispatch policy '" + tier.dispatch +
                      "'" + where);
            if (!tier.freqPolicy.empty() &&
                !FreqPolicyRegistry::instance().has(tier.freqPolicy))
                fatal("unknown frequency policy '" + tier.freqPolicy +
                      "'" + where);
            if (!tier.idlePolicy.empty() &&
                !IdlePolicyRegistry::instance().has(tier.idlePolicy))
                fatal("unknown idle policy '" + tier.idlePolicy +
                      "'" + where);
        }
    }

    if (config_.numHosts < 1)
        fatal("ClusterExperiment requires at least one host");
    if (!config_.hosts.empty() &&
        static_cast<int>(config_.hosts.size()) != config_.numHosts)
        fatal("ClusterConfig::hosts must be empty or name every host");
    for (const HostSpec &spec : config_.hosts)
        if (spec.weight <= 0.0)
            fatal("host dispatch weights must be positive");
    if (config_.clientGroups < 1)
        fatal("ClusterExperiment requires at least one client group");
    if (config_.base.numConnections < 1 ||
        config_.base.numConnections >=
            static_cast<int>(kFlowSpaceStride))
        fatal("client group connection count out of range");
    if (config_.base.duration <= 0)
        fatal("ClusterExperiment duration must be positive");
    if (!config_.base.loadSchedule.empty() ||
        !config_.base.extraObservers.empty())
        fatal("ClusterExperiment does not support load schedules or "
              "extra observers");
    if (!DispatchRegistry::instance().has(config_.dispatch))
        fatal("unknown dispatch policy '" + config_.dispatch + "'");

    // Surface fault and resilience config errors at construction, like
    // every other config error.
    const FaultPlan plan = FaultPlan::fromParams(config_.base.params);
    if (plan.flapHost >= config_.numHosts)
        fatal("fault.flap_host out of range");
    for (int crash_host : plan.crashHosts)
        if (crash_host >= config_.numHosts)
            fatal("fault.crash_host out of range");
    (void)checkedResiliencePlan(config_.base.params);
    for (int id = 0; id < config_.numHosts; ++id) {
        hostConfigs_.push_back(resolveHostConfig(id));
        (void)checkedDataplanePlan(hostConfigs_.back());
    }
}

ExperimentConfig
ClusterExperiment::resolveHostConfig(int id) const
{
    ExperimentConfig cfg = config_.base;
    if (topology_.enabled()) {
        // The host-side rig (and its offline profiling Experiment)
        // must not see cluster-only topology keys.
        std::vector<std::string> topo_keys;
        for (const auto &[key, value] : cfg.params)
            if (key.rfind("topology.", 0) == 0)
                topo_keys.push_back(key);
        for (const std::string &key : topo_keys)
            cfg.params.erase(key);
        const TierSpec &tier =
            topology_.tiers[static_cast<std::size_t>(
                topology_.tierOf(id))];
        if (!tier.freqPolicy.empty())
            cfg.freqPolicy = tier.freqPolicy;
        if (!tier.idlePolicy.empty())
            cfg.idlePolicy = tier.idlePolicy;
    }
    if (config_.hosts.empty())
        return cfg;
    const HostSpec &spec =
        config_.hosts[static_cast<std::size_t>(id)];
    if (!spec.freqPolicy.empty())
        cfg.freqPolicy = spec.freqPolicy;
    if (!spec.idlePolicy.empty())
        cfg.idlePolicy = spec.idlePolicy;
    for (const auto &[key, value] : spec.params)
        cfg.params.set(key, value);
    return cfg;
}

Tick
ClusterExperiment::tierSlo(int tier) const
{
    const TierSpec &spec =
        topology_.tiers[static_cast<std::size_t>(tier)];
    if (spec.slo > 0)
        return spec.slo;
    // Default: an even split of the end-to-end latency budget.
    return config_.base.app.slo / topology_.numTiers();
}

ClusterResult
ClusterExperiment::run()
{
    EventQueue eq;
    Rng rng(config_.base.seed);

    // --- Switch -------------------------------------------------------
    std::vector<double> weights(
        static_cast<std::size_t>(config_.numHosts), 1.0);
    for (std::size_t i = 0; i < config_.hosts.size(); ++i)
        weights[i] = config_.hosts[i].weight;
    std::vector<SwitchTier> switch_tiers;
    for (int t = 0; t < topology_.numTiers(); ++t) {
        const TierSpec &tier =
            topology_.tiers[static_cast<std::size_t>(t)];
        switch_tiers.push_back(SwitchTier{tier.name,
                                          topology_.firstHostOf(t),
                                          tier.hosts, tier.dispatch});
    }
    ClusterSwitch sw(eq, config_.fabric, config_.dispatch, weights,
                     config_.base.params, std::move(switch_tiers));

    // Resilience plan (overload control). A disabled plan arms nothing
    // anywhere and keeps the run byte-identical; the subsystem forks no
    // random stream, so enabling it perturbs no other component's
    // stream either.
    const ResiliencePlan resilience =
        ResiliencePlan::fromParams(config_.base.params);
    if (resilience.enabled())
        sw.enableResilience(resilience);

    // --- Hosts --------------------------------------------------------
    std::vector<std::unique_ptr<Host>> hosts;
    for (int id = 0; id < config_.numHosts; ++id) {
        hosts.push_back(std::make_unique<Host>(id, eq, hostConfig(id),
                                               rng.fork(),
                                               config_.fabric));
        Host &host = *hosts.back();
        Nic &nic = host.rig.nic();
        sw.downlink(id).setSink(
            [&nic](const Packet &pkt) { nic.receive(pkt); });
        host.uplink.setSink(
            [&sw, id](const Packet &pkt) { sw.fromHost(id, pkt); });
        if (topology_.enabled()) {
            const int t = topology_.tierOf(id);
            const TierSpec &tier =
                topology_.tiers[static_cast<std::size_t>(t)];
            host.tier = t;
            host.tierName = tier.name;
            host.app.setForwardDownstream(t < topology_.numTiers() - 1);
            host.app.setServiceScale(tier.serviceScale);
        }
        if (resilience.enabled())
            host.app.setResilience(resilience);
    }
    sw.setResponseTap([&hosts](int host, const Packet &pkt) {
        hosts[static_cast<std::size_t>(host)]->feedback.onResponse(pkt);
    });

    // Per-host hop-latency recorders, fed by the switch's hop tap
    // (dispatch to return, covering queueing + service on the host).
    std::vector<LatencyRecorder> hop_lat(
        static_cast<std::size_t>(config_.numHosts));
    if (topology_.enabled()) {
        sw.setHopTap([&hop_lat, &eq](int host, int tier, Tick hop,
                                     bool forwarded) {
            (void)tier;
            (void)forwarded;
            hop_lat[static_cast<std::size_t>(host)].record(eq.now(),
                                                           hop);
        });
    }

    // --- Client groups ------------------------------------------------
    Wire client_uplink(eq, config_.fabric.portBandwidthBps,
                       config_.fabric.portPropagation);
    client_uplink.setLabel("clients.uplink");
    client_uplink.setSink(
        [&sw](const Packet &pkt) { sw.fromClient(pkt); });

    struct Group
    {
        std::unique_ptr<Client> client;
        std::unique_ptr<LoadGenerator> gen;
    };
    std::vector<Group> groups;
    auto addGroup = [&](int entry_tier) {
        Group group;
        group.client = std::make_unique<Client>(
            eq, client_uplink, config_.base.app,
            config_.base.numConnections,
            static_cast<std::uint32_t>(groups.size()) *
                kFlowSpaceStride);
        if (entry_tier > 0)
            group.client->setEntryTier(entry_tier);
        group.gen = std::make_unique<LoadGenerator>(
            eq, *group.client, config_.base.burst, rng.fork());
        groups.push_back(std::move(group));
    };
    for (int g = 0; g < config_.clientGroups; ++g)
        addGroup(0);
    // Mid-chain load: tiers may declare their own client groups
    // (topology.tier<i>.clients). Built after the front-door groups in
    // tier order, so flow spaces and Rng forks are stable and a
    // topology without tier clients stays byte-identical.
    for (int t = 0; t < topology_.numTiers(); ++t) {
        const TierSpec &tier =
            topology_.tiers[static_cast<std::size_t>(t)];
        for (int c = 0; c < tier.clients; ++c)
            addGroup(t);
    }

    std::uint64_t stray = 0;
    sw.clientPort().setSink([&groups, &stray](const Packet &pkt) {
        std::size_t idx = pkt.flowHash / kFlowSpaceStride;
        if (idx < groups.size())
            groups[idx].client->onResponse(pkt);
        else
            ++stray;
    });

    // --- Load ---------------------------------------------------------
    LoadLevelSpec spec = resolveLoad(
        config_.base.app, config_.base.load, config_.base.rpsOverride,
        config_.base.trainMeanOverride, config_.base.dutyOverride);
    // The configured rate is the cluster's offered load, split evenly
    // over every client group (front-door and mid-chain alike).
    spec.rps /= static_cast<double>(groups.size());

    // --- Fault injection ----------------------------------------------
    // Built after every pre-existing component so the injector's Rng
    // fork is the last one taken: a disabled plan leaves all other
    // streams untouched and the run byte-identical to a fault-free
    // build.
    const FaultPlan fault_plan =
        FaultPlan::fromParams(config_.base.params);
    const ClientRetryPolicy retry =
        ClientRetryPolicy::fromParams(config_.base.params);
    for (Group &group : groups)
        armClient(*group.client, retry, resilience);

    std::unique_ptr<FaultInjector> injector;
    if (fault_plan.enabled()) {
        injector = std::make_unique<FaultInjector>(eq, fault_plan,
                                                   rng.fork());
        // Loss/corruption live on the host access links (switch port
        // down, host uplink up), in topology order.
        for (int id = 0; id < config_.numHosts; ++id) {
            injector->addLossyWire(sw.downlink(id));
            injector->addLossyWire(
                hosts[static_cast<std::size_t>(id)]->uplink);
        }
        if (fault_plan.wantsFlap()) {
            std::vector<Wire *> flapping;
            for (int id = 0; id < config_.numHosts; ++id) {
                if (fault_plan.flapHost >= 0 &&
                    fault_plan.flapHost != id)
                    continue;
                flapping.push_back(&sw.downlink(id));
                flapping.push_back(
                    &hosts[static_cast<std::size_t>(id)]->uplink);
            }
            injector->addFlapGroup(std::move(flapping));
        }
        if (fault_plan.wantsRingDegrade())
            for (std::unique_ptr<Host> &host : hosts)
                injector->addDegradableNic(host->rig.nic());
        for (int crash_host : fault_plan.crashHosts) {
            // Fail-stop from the network's point of view: both access
            // links go dark; the host itself keeps simulating (its
            // power draw during the outage is part of the result).
            Wire *down_link = &sw.downlink(crash_host);
            Wire *up_link =
                &hosts[static_cast<std::size_t>(crash_host)]->uplink;
            injector->trackWire(*down_link);
            injector->trackWire(*up_link);
            injector->scheduleCrash(
                [down_link, up_link] {
                    down_link->setLinkDown(true);
                    up_link->setLinkDown(true);
                },
                [down_link, up_link] {
                    down_link->setLinkDown(false);
                    up_link->setLinkDown(false);
                });
        }
    }

    // --- Run ----------------------------------------------------------
    for (std::unique_ptr<Host> &host : hosts)
        host->rig.start();
    for (Group &group : groups) {
        group.gen->setConnectionSkew(config_.base.connectionSkew);
        group.gen->setLoad(spec);
        group.gen->start();
    }

    eq.runUntil(config_.base.warmup);
    Tick measure_start = eq.now();
    for (std::unique_ptr<Host> &host : hosts) {
        host->feedback.latencies().clear();
        host->rig.beginMeasurement(measure_start);
    }
    for (Group &group : groups) {
        group.client->latencies().clear();
        group.client->attemptLatencies().clear();
    }
    for (LatencyRecorder &rec : hop_lat)
        rec.clear();

    Tick end = config_.base.warmup + config_.base.duration;
    eq.runUntil(end);
    for (Group &group : groups)
        group.gen->stop();

    Tick sim_end = end + config_.drain;
    eq.runUntil(sim_end);

    // --- Collect ------------------------------------------------------
    std::vector<const Client *> clients;
    for (const Group &group : groups)
        clients.push_back(group.client.get());
    ClusterResult result{
        collectClients(clients, config_.base.app.slo, injector.get())};
    result.requestsForwarded = sw.totalRequestsForwarded();
    result.responsesReturned = sw.totalResponsesReturned();
    result.switchPortDrops = sw.portDrops();
    result.strayResponses = stray;
    result.ejections = sw.totalEjections();
    result.requestsRerouted = sw.requestsRerouted();
    result.lateResponses = sw.lateResponses();
    result.switchDeadlineSheds = sw.deadlineSheds();
    result.breakerShortCircuits = sw.breakerShortCircuits();
    result.breakerTransitions = sw.totalBreakerTransitions();
    result.goodputRps =
        static_cast<double>(result.responsesReceived) /
        toSeconds(sim_end);

    const double measured_seconds = toSeconds(sim_end - measure_start);
    for (const std::unique_ptr<Host> &host : hosts) {
        ClusterHostResult hr = host->collect(sim_end);
        hr.ejections = sw.ejections(hr.id);
        if (resilience.enabled()) {
            hr.breakerTransitions = sw.breakerTransitions(hr.id);
            result.shedAdmission += hr.shedAdmission;
            result.shedSojourn += hr.shedSojourn;
            result.shedDeadline += hr.shedDeadline;
        }
        if (topology_.enabled()) {
            const LatencyRecorder &hop =
                hop_lat[static_cast<std::size_t>(hr.id)];
            hr.hopsCompleted = hop.count();
            hr.hopP50 = hop.percentile(50.0);
            hr.hopP99 = hop.percentile(99.0);
        }
        result.energyJoules += hr.energyJoules;
        result.hostNicDrops += hr.nicDrops;
        result.hosts.push_back(std::move(hr));
    }
    result.avgPowerWatts = result.energyJoules / measured_seconds;

    // --- Per-tier SLO attribution -------------------------------------
    if (topology_.enabled()) {
        result.eastWestForwards = sw.eastWestForwards();
        result.eastWestBytes = sw.eastWestBytes();
        result.goodputBytes = sw.goodputBytes();
        result.controlBytes = sw.controlBytes();
        for (int t = 0; t < topology_.numTiers(); ++t) {
            const TierSpec &tier =
                topology_.tiers[static_cast<std::size_t>(t)];
            ClusterTierResult tr;
            tr.tier = t;
            tr.name = tier.name;
            tr.firstHost = topology_.firstHostOf(t);
            tr.hosts = tier.hosts;
            tr.dispatch = sw.tier(t).dispatch;
            tr.slo = tierSlo(t);
            LatencyRecorder tier_hops;
            for (int id = tr.firstHost; id < tr.firstHost + tr.hosts;
                 ++id) {
                const auto h = static_cast<std::size_t>(id);
                tier_hops.merge(hop_lat[h]);
                tr.forwards += sw.forwardsReturned(id);
                tr.energyJoules += result.hosts[h].energyJoules;
            }
            tr.completions = tier_hops.count();
            tr.hopP50 = tier_hops.percentile(50.0);
            tr.hopP99 = tier_hops.percentile(99.0);
            tr.hopMax = tier_hops.max();
            tr.meanHop = tier_hops.mean();
            tr.fracOverSlo = tier_hops.fractionAbove(tr.slo);
            result.hopP99Sum += tr.hopP99;
            result.tiers.push_back(std::move(tr));
        }
        // Which tier owns the chain tail: each hop p99 as a share of
        // the summed per-tier hop p99s.
        for (ClusterTierResult &tr : result.tiers) {
            tr.p99Share =
                result.hopP99Sum == 0
                    ? 0.0
                    : static_cast<double>(tr.hopP99) /
                          static_cast<double>(result.hopP99Sum);
        }
    }

    result.eventsProcessed = eq.numProcessed();
    result.simulatedTicks = eq.now();

    return result;
}

} // namespace nmapsim
