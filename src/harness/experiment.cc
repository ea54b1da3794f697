#include "harness/experiment.hh"

#include "dataplane/plan.hh"
#include "dataplane/policy.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "harness/policy_registry.hh"
#include "harness/server_rig.hh"
#include "net/wire.hh"
#include "nmap/profiler.hh"
#include "resilience/admission.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/client.hh"
#include "workload/server_app.hh"

namespace nmapsim {

LoadLevelSpec
resolveLoad(const AppProfile &app, LoadLevel level, double rps_override,
            double train_mean_override, double duty_override)
{
    LoadLevelSpec spec = app.level(level);
    if (rps_override > 0.0)
        spec.rps = rps_override;
    if (train_mean_override > 0.0)
        spec.trainMean = train_mean_override;
    if (duty_override > 0.0)
        spec.duty = duty_override;
    return spec;
}

ResiliencePlan
checkedResiliencePlan(const PolicyParams &params)
{
    const ResiliencePlan plan = ResiliencePlan::fromParams(params);
    // Resolve the admission policy name now: make() fatals with the
    // known-name list.
    if (plan.wantsAdmission()) {
        ensureBuiltinAdmissionPolicies();
        (void)AdmissionPolicyRegistry::instance().make(
            plan.admission, AdmissionContext{plan});
    }
    if (plan.wantsRetryBudget() &&
        !ClientRetryPolicy::fromParams(params).enabled())
        fatal("resilience.retry_budget requires client retry "
              "(client.timeout)");
    return plan;
}

DataplanePlan
checkedDataplanePlan(const ExperimentConfig &config)
{
    const DataplanePlan plan = DataplanePlan::fromParams(config.params);
    if (plan.bypass()) {
        ensureBuiltinDataplanePolicies();
        if (!DataplanePolicyRegistry::instance().has(plan.policy))
            fatal("unknown dataplane policy '" + plan.policy + "'");
        if (plan.pollCores >= config.numCores)
            fatal("dataplane.poll_cores must leave at least one worker "
                  "core (poll_cores=" +
                  std::to_string(plan.pollCores) +
                  ", cores=" + std::to_string(config.numCores) + ")");
    }
    return plan;
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config))
{
    ensureBuiltinPolicies();
    if (config_.numCores < 1)
        fatal("Experiment requires at least one core");
    if (config_.duration <= 0)
        fatal("Experiment duration must be positive");

    // Surface fault/retry config errors here, like every other config
    // error; host-indexed faults only make sense behind a switch.
    const FaultPlan plan = FaultPlan::fromParams(config_.params);
    if (plan.wantsCrash())
        fatal("fault.crash_host requires a cluster run");
    if (plan.flapHost >= 0)
        fatal("fault.flap_host requires a cluster run");

    // Service topologies only exist behind the cluster switch.
    for (const auto &[key, value] : config_.params)
        if (key.rfind("topology.", 0) == 0)
            fatal("'" + key + "' requires a cluster run");

    // Same early surfacing for resilience config errors. Circuit
    // breakers and mid-chain deadlines live in the switch, so breaker
    // keys only make sense behind one.
    if (checkedResiliencePlan(config_.params).wantsBreakers())
        fatal("resilience.breaker_window requires a cluster run");

    // Same early surfacing for dataplane config errors.
    (void)checkedDataplanePlan(config_);
}

std::pair<double, double>
Experiment::profileThresholds(const ExperimentConfig &config)
{
    // Section 4.2: profile one request burst at the load used to set
    // the SLO (the latency-load inflection point == the high load) with
    // a fixed maximum V/F so the thresholds describe a healthy core.
    ExperimentConfig pcfg = config;
    pcfg.freqPolicy = "performance";
    pcfg.idlePolicy = "menu";
    pcfg.load = LoadLevel::kHigh;
    pcfg.rpsOverride = 0.0;
    pcfg.trainMeanOverride = 0.0;
    pcfg.loadSchedule.clear();
    pcfg.warmup = 0;
    pcfg.duration = pcfg.burst.period; // one burst + its drain
    pcfg.collectTraces = false;
    pcfg.collectLatencyTrace = false;

    // Thresholds describe a *healthy* system: profile without any
    // injected faults or client retries (also keeps cluster-derived
    // configs from tripping the cluster-only fault key checks).
    // ... and without the bypass dataplane: NMAP's NI/CU thresholds
    // describe the NAPI mode-transition signal, which only exists on
    // the interrupt path.
    std::vector<std::string> stripped;
    for (const auto &[key, value] : pcfg.params)
        if (key.rfind("fault.", 0) == 0 ||
            key.rfind("client.", 0) == 0 ||
            key.rfind("dataplane.", 0) == 0 ||
            key.rfind("metronome.", 0) == 0 ||
            key.rfind("resilience.", 0) == 0)
            stripped.push_back(key);
    for (const std::string &key : stripped)
        pcfg.params.erase(key);

    ThresholdProfiler profiler(pcfg.numCores);
    profiler.beginBurst();
    pcfg.extraObservers.push_back(&profiler);
    Experiment(pcfg).run();
    profiler.endBurst();
    return {profiler.niThreshold(), profiler.cuThreshold()};
}

ExperimentResult
Experiment::run()
{
    EventQueue eq;
    ServerRig rig(eq, config_, Rng(config_.seed));

    // --- Client wires, application, client -------------------------
    Wire client_to_server(eq);
    Wire server_to_client(eq);
    client_to_server.setLabel("client->server");
    server_to_client.setLabel("server->client");
    Nic &nic = rig.nic();
    client_to_server.setSink(
        [&nic](const Packet &pkt) { nic.receive(pkt); });
    nic.setTxWire(&server_to_client);

    ServerApp app(rig.os(), nic, config_.app, rig.rng().fork());
    Client client(eq, client_to_server, config_.app,
                  config_.numConnections);
    // Overload control: a disabled plan arms nothing and keeps the run
    // byte-identical (the subsystem forks no random stream).
    const ResiliencePlan resilience =
        ResiliencePlan::fromParams(config_.params);
    if (resilience.wantsAdmission() || resilience.wantsDeadline())
        app.setResilience(resilience);
    if (resilience.wantsDeadline())
        client.setDeadlineBudget(resilience.deadline);
    server_to_client.setSink(
        [&client](const Packet &pkt) { client.onResponse(pkt); });
    LoadGenerator gen(eq, client, config_.burst, rig.rng().fork());

    rig.attachPolicies(&client,
                       [this] { return profileThresholds(config_); });

    // --- Observers ---------------------------------------------------
    for (NapiObserver *obs : config_.extraObservers)
        rig.os().addObserver(obs);

    std::shared_ptr<TraceCollector> traces;
    if (config_.collectTraces) {
        traces = std::make_shared<TraceCollector>(
            eq, config_.watchCore, config_.traceBucket);
        traces->attachPStateTrace(rig.core(config_.watchCore));
        rig.os().addObserver(traces.get());
    }

    // --- Load --------------------------------------------------------
    std::vector<std::unique_ptr<EventFunctionWrapper>> load_events;
    for (const LoadChange &change : config_.loadSchedule) {
        load_events.push_back(std::make_unique<EventFunctionWrapper>(
            [&gen, change] { gen.setLoad(change.spec); },
            "experiment.loadChange"));
        eq.schedule(load_events.back().get(), change.at);
    }

    // --- Fault injection ----------------------------------------------
    // Built after every pre-existing component so the injector's Rng
    // fork is the last one taken: a disabled plan leaves all other
    // streams untouched and the run byte-identical to a fault-free
    // build.
    const FaultPlan fault_plan = FaultPlan::fromParams(config_.params);
    const ClientRetryPolicy retry =
        ClientRetryPolicy::fromParams(config_.params);
    if (retry.enabled())
        client.setRetryPolicy(retry);
    if (resilience.wantsRetryBudget())
        client.setRetryBudget(resilience.retryBudget,
                              resilience.retryMin,
                              resilience.retryCap);

    std::unique_ptr<FaultInjector> injector;
    if (fault_plan.enabled()) {
        injector = std::make_unique<FaultInjector>(eq, fault_plan,
                                                   rig.rng().fork());
        injector->addLossyWire(client_to_server);
        injector->addLossyWire(server_to_client);
        if (fault_plan.wantsFlap())
            injector->addFlapGroup(
                {&client_to_server, &server_to_client});
        if (fault_plan.wantsRingDegrade())
            injector->addDegradableNic(nic);
    }

    // --- Run -----------------------------------------------------------
    rig.start();
    gen.setConnectionSkew(config_.connectionSkew);
    gen.setLoad(resolveLoad(config_.app, config_.load,
                            config_.rpsOverride,
                            config_.trainMeanOverride,
                            config_.dutyOverride));
    gen.start();

    eq.runUntil(config_.warmup);
    rig.beginMeasurement(eq.now());
    client.latencies().clear();
    client.attemptLatencies().clear();

    Tick end = config_.warmup + config_.duration;
    eq.runUntil(end);
    gen.stop();
    for (auto &ev : load_events)
        eq.deschedule(ev.get());

    // --- Collect ---------------------------------------------------------
    ExperimentResult result = rig.collect(end);
    const LatencyRecorder &lat = client.latencies();
    result.slo = config_.app.slo;
    result.p50 = lat.percentile(50.0);
    result.p99 = lat.percentile(99.0);
    result.maxLatency = lat.max();
    result.meanLatency = lat.mean();
    result.fracOverSlo = lat.fractionAbove(config_.app.slo);

    result.requestsSent = client.requestsSent();
    result.responsesReceived = client.responsesReceived();
    result.requestsTimedOut = client.requestsTimedOut();
    result.retransmits = client.retransmits();
    result.requestsInFlight = client.requestsInFlight();
    result.duplicateResponses = client.duplicateResponses();
    result.requestsShed = client.requestsShed();
    result.retryBudgetExhausted = client.retryBudgetExhausted();
    result.shedAdmission = app.shedAdmission();
    result.shedSojourn = app.shedSojourn();
    result.shedDeadline = app.shedDeadline();
    if (injector) {
        result.faultPacketsLost = injector->packetsFaultLost();
        result.faultPacketsCorrupted = injector->packetsCorrupted();
        result.linkDownDrops = injector->packetsLinkDownLost();
    }
    result.availability =
        result.requestsSent == 0
            ? 1.0
            : static_cast<double>(result.responsesReceived) /
                  static_cast<double>(result.requestsSent);
    result.attemptP99 = client.attemptLatencies().percentile(99.0);

    result.eventsProcessed = eq.numProcessed();
    result.simulatedTicks = eq.now();

    result.traces = traces;
    if (config_.collectTraces)
        result.cc6Entries =
            rig.core(config_.watchCore).cstates().cc6Entries().marks();
    if (config_.collectLatencyTrace)
        result.latencyTrace = lat.trace();
    result.cdf = lat.cdf(200);

    return result;
}

} // namespace nmapsim
