/**
 * @file
 * Extension evaluation: metastable failure / retry-storm shootout —
 * what each layer of the resilience stack buys when a fault meets an
 * open-loop retry ladder.
 *
 * Every cell runs a service chain behind the switch with the failure
 * detector armed and clients retrying on a 2 ms timeout, then crashes
 * hosts mid-window and recovers them: a 2-tier chain loses one of its
 * two back-end hosts, and a 4-tier chain loses one host in *each* of
 * its two fanned mid-tiers (fault.crash_host takes a list). During the
 * outage the survivors run past capacity, the backlog in their queues
 * goes stale, and every timeout feeds the retry storm that keeps them
 * there — the metastable trap: the fault clears but the system does
 * not. The sweep crosses that against four resilience stacks:
 *
 *   none     retries only (the storm, undamped)
 *   budgets  client retry budgets (resilience.retry_budget)
 *   breakers per-(tier,host) circuit breakers in the switch
 *   full     budgets + breakers + queue-deadline admission +
 *            chain-wide deadline propagation (deadline = the client
 *            timeout: serving older work is pure waste)
 *
 * Recovery is measured, not eyeballed: each cell runs twice — the full
 * window, and a twin truncated exactly at the recovery tick (byte-
 * identical prefix, by the determinism contract) — so post-clearance
 * availability is the exact quotient of the two runs' counter deltas.
 * The bench exits nonzero if shed-aware conservation breaks anywhere,
 * if the full stack fails to recover the 4-tier cell to >= 90%
 * post-clearance availability, or if the undamped cell recovers anyway
 * (then there is no storm left to shoot).
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

struct Stack
{
    const char *name;
    bool budgets;
    bool breakers;
    bool admission;
    bool deadline;
};

struct Shape
{
    const char *name;
    int depth;
    const char *crash; // fault.crash_host list
};

Tick
intoWindow(const ClusterConfig &cfg, double frac)
{
    return cfg.base.warmup +
           static_cast<Tick>(static_cast<double>(cfg.base.duration) *
                             frac);
}

/**
 * The chain under test: every tier runs two hosts (so one can die and
 * leave a survivor) at a fixed heavy per-stage cost. Detector armed,
 * clients retrying.
 */
ClusterConfig
stormConfig(const Shape &shape, const Stack &stack)
{
    ClusterConfig cfg;
    // `performance` keeps the healthy chain comfortably inside the
    // 2 ms retry timeout (p99 ~0.4 ms) so every timeout in the run is
    // the fault's doing, not a frequency-ramp artefact.
    cfg.base = bench::cellConfig(AppProfile::memcached(),
                                 LoadLevel::kMed, "performance");
    // Continuous 500K rps against two 4-core hosts per tier at heavy
    // per-stage cost (~9.4 us): each host runs near 60% service
    // utilisation while the chain is whole, and the packet rate stays
    // under the NIC/softirq cliff, so when one host of a pair dies
    // its survivor lands at ~120% *service* utilisation — the backlog
    // piles into the unbounded app queues (not ring drops), goes
    // stale behind the 2 ms client timeout, and the retry storm feeds
    // on it. That is the metastable trap the stacks are shot at.
    cfg.base.numCores = 4;
    cfg.base.rpsOverride = 5e5;
    cfg.base.dutyOverride = 1.0;
    cfg.dispatch = "round-robin";
    cfg.clientGroups = 2;
    cfg.fabric.healthInterval = microseconds(200);
    cfg.fabric.healthTimeout = milliseconds(1);
    cfg.fabric.ejectDuration = milliseconds(2);

    cfg.base.params.set("topology.tiers", shape.depth);
    for (int t = 0; t < shape.depth; ++t) {
        const std::string tier =
            "topology.tier" + std::to_string(t) + ".";
        cfg.base.params.set(tier + "name",
                            "stage" + std::to_string(t));
        cfg.base.params.set(tier + "hosts", 2);
        cfg.base.params.set(tier + "service_scale", 7.5);
    }

    cfg.base.params.setTick("client.timeout", milliseconds(2));
    cfg.base.params.set("client.retries", 3);
    cfg.base.params.setTick("client.backoff_cap", milliseconds(4));

    cfg.base.params.set("fault.crash_host", shape.crash);
    cfg.base.params.setTick("fault.crash_at", intoWindow(cfg, 0.3));
    cfg.base.params.setTick("fault.recover_at", intoWindow(cfg, 0.6));

    if (stack.budgets)
        cfg.base.params.set("resilience.retry_budget", "0.1");
    if (stack.breakers)
        cfg.base.params.setTick("resilience.breaker_window",
                                milliseconds(1));
    if (stack.admission) {
        cfg.base.params.set("resilience.admission", "queue-deadline");
        cfg.base.params.setTick("resilience.admit_target",
                                microseconds(500));
        cfg.base.params.setTick("resilience.admit_interval",
                                milliseconds(2));
    }
    if (stack.deadline)
        cfg.base.params.setTick("resilience.deadline",
                                milliseconds(2));
    return cfg;
}

/**
 * The truncated twin: same config, window cut exactly at the recovery
 * tick, no drain. Its end-of-run counters equal the full run's
 * counters *at* that tick (identical event prefix), so the tail
 * window's availability is (received_full - received_cut) /
 * (sent_full - sent_cut).
 */
ClusterConfig
truncatedAtRecovery(const ClusterConfig &cfg)
{
    ClusterConfig cut = cfg;
    cut.drain = 0;
    cut.base.duration =
        cfg.base.params.getTick("fault.recover_at", 0) -
        cfg.base.warmup;
    return cut;
}

double
tailAvailability(const ClusterResult &full, const ClusterResult &cut)
{
    const std::uint64_t sent = full.requestsSent - cut.requestsSent;
    const std::uint64_t recv =
        full.responsesReceived - cut.responsesReceived;
    return sent == 0 ? 1.0
                     : static_cast<double>(recv) /
                           static_cast<double>(sent);
}

/** Shed-aware conservation: everything the clients sent is answered,
 *  timed out, shed, or still in flight — exactly. */
bool
conserved(const ClusterResult &r)
{
    return r.requestsSent == r.responsesReceived + r.requestsTimedOut +
                                 r.requestsShed + r.requestsInFlight;
}

} // namespace

int
main()
{
    bench::banner("Extension",
                  "metastable failure: resilience stack x faulted "
                  "chain (retry-storm shootout)");

    const std::vector<Stack> stacks = {
        {"none", false, false, false, false},
        {"budgets", true, false, false, false},
        {"breakers", false, true, false, false},
        {"full", true, true, true, true},
    };
    // Host ids run tier-major: tier0 = {0,1}, tier1 = {2,3}, ... so
    // "2" faults one tier-1 host and "2,4" faults one host in each of
    // tiers 1 and 2.
    const std::vector<Shape> shapes = {
        {"2-tier/1-faulted", 2, "2"},
        {"4-tier/2-faulted", 4, "2,4"},
    };

    // Interleave full window and truncated twin per cell.
    std::vector<ClusterConfig> configs;
    for (const Shape &shape : shapes) {
        for (const Stack &stack : stacks) {
            const ClusterConfig cfg = stormConfig(shape, stack);
            configs.push_back(cfg);
            configs.push_back(truncatedAtRecovery(cfg));
        }
    }

    // Only the full-window runs are results; the twins are probes.
    const std::vector<ClusterResult> results =
        bench::runAll(configs, "ext_metastable", /*record_stride=*/2);

    int bad_conservation = 0;
    double none_tail = 1.0;
    double full_tail = 0.0;
    std::size_t idx = 0;
    for (const Shape &shape : shapes) {
        std::printf("\n--- %s: crash %s at 30%%, recover at 60%% of "
                    "the window (memcached med, detector + "
                    "retries) ---\n",
                    shape.name, shape.crash);
        Table table({"stack", "avail", "avail after clear", "P99 (us)",
                     "retx", "budget exhausted", "shed", "breaker",
                     "short-circuit", "energy (J)"});
        for (const Stack &stack : stacks) {
            const ClusterResult &full = results[idx];
            const ClusterResult &cut = results[idx + 1];
            idx += 2;
            if (!conserved(full) || !conserved(cut))
                ++bad_conservation;
            const double tail = tailAvailability(full, cut);
            if (shape.depth == 4 && std::string(stack.name) == "none")
                none_tail = tail;
            if (shape.depth == 4 && std::string(stack.name) == "full")
                full_tail = tail;
            const std::uint64_t shed =
                full.requestsShed + full.switchDeadlineSheds;
            table.addRow({
                stack.name,
                Table::num(full.availability, 4),
                Table::num(tail, 4),
                Table::num(toMicroseconds(full.p99), 0),
                Table::num(static_cast<double>(full.retransmits), 0),
                Table::num(static_cast<double>(
                               full.retryBudgetExhausted),
                           0),
                Table::num(static_cast<double>(shed), 0),
                Table::num(static_cast<double>(
                               full.breakerTransitions),
                           0),
                Table::num(static_cast<double>(
                               full.breakerShortCircuits),
                           0),
                Table::num(full.energyJoules, 1),
            });
        }
        table.print(std::cout);
    }

    if (bad_conservation != 0) {
        std::fprintf(stderr,
                     "ext_metastable: %d runs broke shed-aware "
                     "conservation\n",
                     bad_conservation);
        return 1;
    }
    if (full_tail < 0.90) {
        std::fprintf(stderr,
                     "ext_metastable: full stack recovered only %.4f "
                     "of post-clearance traffic (< 0.90) on the "
                     "4-tier cell\n",
                     full_tail);
        return 1;
    }
    if (none_tail >= 0.90) {
        std::fprintf(stderr,
                     "ext_metastable: undamped cell recovered to "
                     "%.4f — no metastable regime to shoot at\n",
                     none_tail);
        return 1;
    }

    std::cout
        << "\nFindings: the undamped cell demonstrates the metastable "
           "trap — while half of each mid tier is down the survivors "
           "run past capacity, their queues fill with work whose "
           "clients have already timed out, and the 4x retry "
           "amplification keeps feeding the backlog, so availability "
           "stays on the floor after the hosts come back: the fault "
           "clears, the failure does not. Retry budgets alone break "
           "the feedback loop — amplification is capped, so the "
           "survivors never build a standing backlog and post-"
           "clearance traffic recovers — but every shed retry is a "
           "client-visible timeout, so availability during the outage "
           "is mediocre and the tail latency rides the 2 ms timeout. "
           "Breakers alone fail fast instead: a survivor whose "
           "responses outrun the fabric health timeout trips its own "
           "breaker, the dark tier short-circuits at the switch, and "
           "the storm is shed before it queues (note the lowest "
           "energy of any cell) — that fully recovers the shallow "
           "chain, but with two flapping tiers in series the deep "
           "chain's post-clearance availability multiplies away. The "
           "full stack layers budgets, breakers, queue-deadline "
           "admission and deadline propagation, so work that can no "
           "longer meet its deadline is dropped at the first queue it "
           "would have rotted in while fresh work flows: it holds the "
           "best availability and a P99 at the timeout floor through "
           "the outage, and recovers past 90% after clearance.\n";
    return 0;
}
