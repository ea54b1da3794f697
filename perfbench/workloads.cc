#include "workloads.hh"

#include <sstream>

#include "harness/cluster.hh"
#include "harness/cluster_io.hh"
#include "harness/config_io.hh"
#include "harness/result_io.hh"
#include "sim/logging.hh"
#include "stats/result_writer.hh"

namespace perfbench {

using namespace nmapsim;

namespace {

/**
 * The paper's rig (perf_core's `single_host` rig, with the window
 * unchanged): one 8-core Xeon Gold 6134 host, memcached under the
 * high-load bursty ON/OFF trains, NMAP with pinned thresholds so the
 * run never profiles.
 */
const char *const kPaperNmap = R"(app=memcached
load=high
cores=8
freq_policy=NMAP
idle_policy=menu
nmap.ni_th=400
nmap.cu_th=0.7
warmup=50ms
duration=400ms
)";

/**
 * The same host and load with the kernel-bypass poll-mode dataplane
 * spinning on every core under the performance governor: no IRQs,
 * NAPI, ksoftirqd or NMAP, and millions of mostly-empty
 * self-rescheduling poll events.
 */
const char *const kBypassSpin = R"(app=memcached
load=high
cores=8
freq_policy=performance
idle_policy=menu
dataplane.mode=bypass
dataplane.policy=spin
warmup=50ms
duration=400ms
)";

/**
 * The long-pole class (ext_metastable/ext_tiers/ext_cluster;
 * perf_core's `cluster` rig is its single-tier, fault-free subset): a
 * 3-tier x 2-host chain of 4-core hosts under continuous 500K rps from
 * two client groups, round-robin dispatch, client timeouts and retries,
 * the full resilience stack, and one tier-1 host (id 2; ids run
 * tier-major) crashing at 30% of the window and recovering at 60%.
 */
const char *const kTieredResilient = R"(app=memcached
load=med
cores=4
freq_policy=performance
idle_policy=menu
rps_override=500000
duty_override=1
hosts=6
dispatch=round-robin
cluster.client_groups=2
cluster.health_interval=200us
cluster.health_timeout=1ms
cluster.eject_duration=2ms
cluster.drain=5ms
topology.tiers=3
topology.tier0.name=stage0
topology.tier0.hosts=2
topology.tier0.service_scale=7.5
topology.tier1.name=stage1
topology.tier1.hosts=2
topology.tier1.service_scale=7.5
topology.tier2.name=stage2
topology.tier2.hosts=2
topology.tier2.service_scale=7.5
client.timeout=2ms
client.retries=3
client.backoff_cap=4ms
fault.crash_host=2
fault.crash_at=50ms
fault.recover_at=80ms
resilience.retry_budget=0.1
resilience.breaker_window=1ms
resilience.admission=queue-deadline
resilience.admit_target=500us
resilience.admit_interval=2ms
resilience.deadline=2ms
warmup=20ms
duration=100ms
)";

struct Spec
{
    const char *name;
    const char *text;
    bool cluster;
};

const Spec kSpecs[] = {
    {"paper_nmap", kPaperNmap, false},
    {"tiered_resilient", kTieredResilient, true},
    {"bypass_spin", kBypassSpin, false},
};

const Spec &
spec(const std::string &name)
{
    for (const Spec &s : kSpecs)
        if (name == s.name)
            return s;
    fatal("unknown workload '" + name + "'");
}

/** Lines appended to a config text for the zero-length variant. Later
 *  keys override earlier ones in both parsers. */
std::string
zeroLength(const std::string &text, bool cluster)
{
    return text + "warmup=0\nduration=1ns\n" +
           (cluster ? "cluster.drain=0\n" : "");
}

RunRecord
flatten(const ExperimentResult &r)
{
    RunRecord out;
    out.events = r.eventsProcessed;
    out.simTicks = r.simulatedTicks;
    out.sent = r.requestsSent;
    out.received = r.responsesReceived;
    out.timedOut = r.requestsTimedOut;
    out.shed = r.requestsShed;
    out.inFlight = r.requestsInFlight;
    out.retransmits = r.retransmits;
    out.availability = r.availability;
    out.nicRxHarvested = r.nicRxHarvested;
    out.nicTxConsumed = r.nicTxConsumed;
    out.nicDrops = r.nicDrops;
    out.linkDownDrops = r.linkDownDrops;
    out.pktsIntrMode = r.pktsIntrMode;
    out.pktsPollMode = r.pktsPollMode;
    out.ksoftirqdWakes = r.ksoftirqdWakes;
    out.pstateTransitions = r.pstateTransitions;
    out.cc6Wakes = r.cc6Wakes;
    out.cc1Wakes = r.cc1Wakes;
    out.busyFraction = r.busyFraction;
    out.retryBudgetExhausted = r.retryBudgetExhausted;
    out.pollLoops = r.bypassPollLoops;
    out.emptyPolls = r.bypassEmptyPolls;
    out.p99Ticks = r.p99;
    out.energyJoules = r.energyJoules;
    return out;
}

RunRecord
flatten(const ClusterResult &r)
{
    RunRecord out;
    out.cluster = true;
    out.events = r.eventsProcessed;
    out.simTicks = r.simulatedTicks;
    out.sent = r.requestsSent;
    out.received = r.responsesReceived;
    out.timedOut = r.requestsTimedOut;
    out.shed = r.requestsShed;
    out.inFlight = r.requestsInFlight;
    out.retransmits = r.retransmits;
    out.availability = r.availability;
    out.nicTxConsumed = r.responsesReturned + r.eastWestForwards;
    out.nicDrops = r.hostNicDrops;
    out.switchPortDrops = r.switchPortDrops;
    out.linkDownDrops = r.linkDownDrops;
    for (const ClusterHostResult &h : r.hosts) {
        out.nicRxHarvested += h.nicRx;
        out.pktsIntrMode += h.pktsIntrMode;
        out.pktsPollMode += h.pktsPollMode;
        out.ksoftirqdWakes += h.ksoftirqdWakes;
        out.pstateTransitions += h.pstateTransitions;
        out.cc6Wakes += h.cc6Wakes;
        out.cc1Wakes += h.cc1Wakes;
        out.busyFraction += h.busyFraction;
        out.pollLoops += h.bypassPollLoops;
        out.emptyPolls += h.bypassEmptyPolls;
    }
    if (!r.hosts.empty())
        out.busyFraction /= static_cast<double>(r.hosts.size());
    out.forwards = r.requestsForwarded + r.eastWestForwards;
    out.rerouted = r.requestsRerouted;
    out.ejections = r.ejections;
    out.breakerShortCircuits = r.breakerShortCircuits;
    out.breakerTransitions = r.breakerTransitions;
    out.retryBudgetExhausted = r.retryBudgetExhausted;
    out.p99Ticks = r.p99;
    out.energyJoules = r.energyJoules;
    return out;
}

/** Config text to serialized record through the public harness:
 *  parse, build, run, tear down (timed as wallNs), then append and
 *  serialize the record (timed as writeNs). */
template <typename Config, typename Exp, typename Parse, typename Append>
RunRecord
timedRun(const std::string &text, SpanLog *spans, Parse parse,
         Append append)
{
    const std::int64_t t0 = nowNs();
    Config cfg;
    {
        SpanScope span(spans, "harness.config");
        cfg = parse(text);
    }
    decltype(Exp(cfg).run()) result;
    {
        SpanScope span(spans, "harness.run");
        result = Exp(cfg).run();
    }
    const std::int64_t t1 = nowNs();
    RunRecord out = flatten(result);
    {
        SpanScope span(spans, "harness.result_write");
        ResultWriter writer;
        append(writer, cfg, result);
        std::ostringstream os;
        writer.writeJson(os);
        out.recordBytes = os.str();
    }
    out.wallNs = t1 - t0;
    out.writeNs = nowNs() - t1;
    return out;
}

} // namespace

bool
isWorkload(const std::string &name)
{
    for (const Spec &s : kSpecs)
        if (name == s.name)
            return true;
    return false;
}

Workload::Workload(const std::string &name, std::uint64_t seed)
    : name_(name)
{
    const Spec &s = spec(name);
    cluster_ = s.cluster;
    text_ = std::string(s.text) + "seed=" + std::to_string(seed) + "\n";
}

ExperimentConfig
Workload::base() const
{
    return cluster_ ? parseClusterConfig(text_).base : parseConfig(text_);
}

RunRecord
Workload::run(bool zero_length, SpanLog *spans) const
{
    const std::string text =
        zero_length ? zeroLength(text_, cluster_) : text_;
    if (cluster_)
        return timedRun<ClusterConfig, ClusterExperiment>(
            text, spans, parseClusterConfig, appendClusterResultRecord);
    return timedRun<ExperimentConfig, Experiment>(
        text, spans, parseConfig, appendResultRecord);
}

std::vector<std::string>
identityViolations(const RunRecord &r)
{
    std::vector<std::string> bad;
    if (r.sent != r.received + r.timedOut + r.shed + r.inFlight) {
        std::ostringstream os;
        os << "request identity: sent " << r.sent << " != received "
           << r.received << " + timed_out " << r.timedOut << " + shed "
           << r.shed << " + in_flight " << r.inFlight;
        bad.push_back(os.str());
    }
    if (!r.cluster &&
        r.pktsIntrMode + r.pktsPollMode !=
            r.nicRxHarvested + r.nicTxConsumed) {
        std::ostringstream os;
        os << "packet identity: intr " << r.pktsIntrMode << " + poll "
           << r.pktsPollMode << " != rx_harvested " << r.nicRxHarvested
           << " + tx_consumed " << r.nicTxConsumed;
        bad.push_back(os.str());
    }
    return bad;
}

} // namespace perfbench
