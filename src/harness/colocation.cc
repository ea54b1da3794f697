#include "harness/colocation.hh"

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

ColocationExperiment::ColocationExperiment(ColocationConfig config)
    : config_(std::move(config))
{
    ensureBuiltinPolicies();
    if (config_.tenants.empty() || config_.tenants.size() > 8)
        fatal("ColocationExperiment supports 1-8 tenants");
    if (config_.numCores < 1)
        fatal("ColocationExperiment requires at least one core");
    for (const TenantConfig &t : config_.tenants) {
        if (t.numConnections < 1 ||
            t.numConnections >=
                static_cast<int>(kFlowSpaceStride))
            fatal("tenant connection count out of range");
    }
}

ColocationResult
ColocationExperiment::run()
{
    // The shared server. Its cores take the first tenant's cache
    // footprint, and policies see that tenant's profile.
    ExperimentConfig server;
    server.cpuProfile = config_.cpuProfile;
    server.numCores = config_.numCores;
    server.app = config_.tenants.front().app;
    server.freqPolicy = config_.freqPolicy;
    server.idlePolicy = config_.idlePolicy;
    server.params = config_.params;
    server.gov = config_.gov;
    server.os = config_.os;
    server.nic = config_.nic;

    EventQueue eq;
    ServerRig rig(eq, server, Rng(config_.seed));

    Wire client_to_server(eq);
    Wire server_to_client(eq);
    Nic &nic = rig.nic();
    client_to_server.setSink(
        [&nic](const Packet &pkt) { nic.receive(pkt); });
    nic.setTxWire(&server_to_client);

    // --- Tenants -------------------------------------------------------
    struct Tenant
    {
        std::unique_ptr<ServerApp> app;
        std::unique_ptr<Client> client;
        std::unique_ptr<LoadGenerator> gen;
    };
    std::vector<Tenant> tenants;
    for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
        const TenantConfig &tc = config_.tenants[i];
        Tenant t;
        t.app = std::make_unique<ServerApp>(rig.os(), nic, tc.app,
                                            rig.rng().fork(),
                                            /*attach_deliver=*/false);
        t.client = std::make_unique<Client>(
            eq, client_to_server, tc.app, tc.numConnections,
            static_cast<std::uint32_t>(i) * kFlowSpaceStride);
        t.gen = std::make_unique<LoadGenerator>(eq, *t.client,
                                                BurstConfig{},
                                                rig.rng().fork());
        tenants.push_back(std::move(t));
    }

    // Route request packets and responses by flow space.
    rig.os().setDeliver([&tenants](int core, const Packet &pkt) {
        std::size_t idx = pkt.flowHash / kFlowSpaceStride;
        if (idx < tenants.size())
            tenants[idx].app->deliver(core, pkt);
    });
    server_to_client.setSink([&tenants](const Packet &pkt) {
        std::size_t idx = pkt.flowHash / kFlowSpaceStride;
        if (idx < tenants.size())
            tenants[idx].client->onResponse(pkt);
    });

    // No client latency feed and no single application to profile:
    // factories needing either fatal() with a policy-specific message.
    rig.attachPolicies(/*feedback=*/nullptr, /*profile=*/nullptr);

    // --- Run ---------------------------------------------------------------
    rig.start();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantConfig &tc = config_.tenants[i];
        tenants[i].gen->setLoad(resolveLoad(tc.app, tc.load,
                                            tc.rpsOverride,
                                            tc.trainMeanOverride,
                                            tc.dutyOverride));
        tenants[i].gen->start();
    }

    eq.runUntil(config_.warmup);
    rig.beginMeasurement(eq.now());
    for (Tenant &t : tenants) {
        t.client->latencies().clear();
        t.client->attemptLatencies().clear();
    }

    Tick end = config_.warmup + config_.duration;
    eq.runUntil(end);
    for (Tenant &t : tenants)
        t.gen->stop();

    // --- Collect ---------------------------------------------------------
    ColocationResult result{rig.collect(end, /*app=*/nullptr)};
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const AppProfile &app = config_.tenants[i].app;
        result.tenants.push_back(
            TenantResult{collectClients({tenants[i].client.get()},
                                        app.slo, /*injector=*/nullptr),
                         app.name});
    }
    return result;
}

} // namespace nmapsim
