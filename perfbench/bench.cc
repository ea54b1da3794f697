/**
 * @file
 * nmapsim host-time benchmark: measurement loop and correctness gate.
 *
 *   nmapsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH]
 *
 * One process, one thread, one simulation at a time (a closed loop on
 * the host side; inside each run the model's open-loop generator sends
 * at the rate the workload's config fixes).
 *
 * --trace 0 prints the end-to-end metrics, all from untraced runs:
 * a warm-up run (the reference record), then full runs until S seconds
 * have passed. Each run sits between two machine probes that scale it
 * to reference-machine time (drives.hh), and is followed by a batch of
 * zero-length runs for setup_s.
 *
 * --trace 1 prints the per-layer metrics: work counts from the result
 * record, host time per layer from spans around the benchmark's own
 * calls into each layer's public API (drives.hh), each layer's
 * estimated share of a run, the unattributed remainder, and the
 * tracing overhead (traced minus untraced run wall, in adjacent pairs).
 *
 * Every run is checked: the request and packet conservation identities
 * and byte-identity with the reference record. A run that throws or
 * breaks a check counts in `failed`. The last stdout line is the JSON
 * result; the lines before it are a readable summary.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "drives.hh"
#include "resilience/plan.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "nmapsim_perfbench: %s\nusage: nmapsim_perfbench "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            a.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (key == "--trace-out") {
            a.traceOut = value;
        } else {
            usage(("unknown argument " + key).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + key).c_str());
    }
    if (!isWorkload(a.workload))
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** 64-bit FNV-1a folded to 53 bits, so JSON carries it exactly. */
double
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return static_cast<double>(h >> 11);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB
}

/** Runs one workload and applies the correctness gate to every run. */
class Runner
{
  public:
    explicit Runner(const Workload &w) : w_(w) {}

    /** Run once and apply the correctness gate. A run that threw or
     *  broke a check is counted as failed and reported on stderr. Returns
     *  whether @p out holds a completed run (false only if it threw). */
    bool
    run(bool zero_length, RunRecord &out, SpanLog *spans = nullptr)
    {
        ++attempted_;
        try {
            out = w_.run(zero_length, spans);
        } catch (const std::exception &e) {
            fail({std::string("run threw: ") + e.what()});
            return false;
        }
        if (zero_length)
            return true;
        std::vector<std::string> bad = identityViolations(out);
        if (!reference_) {
            reference_ = true;
            ref_ = out;
        } else {
            if (out.events != ref_.events)
                bad.push_back("sim.events " + std::to_string(out.events) +
                              " differs from the first repeat's " +
                              std::to_string(ref_.events));
            if (out.recordBytes != ref_.recordBytes)
                bad.push_back("result record bytes differ from the "
                              "first repeat's");
        }
        if (out.events == 0 || out.received == 0)
            bad.push_back("run simulated no work");
        if (!bad.empty())
            fail(bad);
        return true;
    }

    const RunRecord &reference() const { return ref_; }
    bool hasReference() const { return reference_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    void
    fail(const std::vector<std::string> &why)
    {
        ++failed_;
        for (const std::string &w : why)
            std::fprintf(stderr, "perfbench: %s run %llu failed: %s\n",
                         w_.name().c_str(),
                         static_cast<unsigned long long>(attempted_),
                         w.c_str());
    }

    const Workload &w_;
    bool reference_ = false;
    RunRecord ref_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Zero-length runs (config resolution, policy lookup, Rng forks, rig
 *  assembly, teardown) appended to @p seconds. Called between full
 *  runs, so setup samples the same machine states the runs do. */
void
setupBatch(Runner &runner, std::vector<double> &seconds)
{
    constexpr int kPerBatch = 16;
    RunRecord r;
    for (int i = 0; i < kPerBatch; ++i)
        if (runner.run(true, r))
            seconds.push_back(static_cast<double>(r.wallNs) / 1e9);
}

/** One metric line of the JSON result. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetric(const Metric &m)
{
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void
printResult(const Runner &runner, bool correct,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        printMetric(m);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(runner.attempted()),
                static_cast<unsigned long long>(runner.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

double
failedShare(const Runner &runner)
{
    return runner.attempted() == 0
               ? 1.0
               : static_cast<double>(runner.failed()) /
                     static_cast<double>(runner.attempted());
}

int
endToEnd(const Args &args, const Workload &w)
{
    Runner runner(w);
    RunRecord r;
    runner.run(false, r); // warm-up; its record is the reference
    if (!runner.hasReference()) {
        std::fprintf(stderr, "perfbench: warm-up run failed\n");
        return 1;
    }
    // Peak RSS of the simulation, taken before the machine probe's
    // table exists; every repeat runs the same seed and peaks alike.
    const double rss_mb = peakRssMb();

    // Each timed run sits between two machine probes; their mean gives
    // the factor that converts the run, and the setup batch after it,
    // to reference-machine time.
    std::vector<double> wall_ms_per_sim_s;
    std::vector<double> ns_per_event;
    std::vector<double> setup_s;
    std::vector<double> scale;
    std::vector<double> ref_wall;
    std::vector<double> ref_ns;
    std::vector<double> ref_setup;
    double probe_before = machineProbeMs();
    const std::int64_t t0 = nowNs();
    while (wall_ms_per_sim_s.size() < 5 ||
           static_cast<double>(nowNs() - t0) < args.seconds * 1e9) {
        if (!runner.run(false, r)) {
            if (runner.failed() > 10)
                break;
            continue;
        }
        const double probe_after = machineProbeMs();
        const double k =
            kReferenceProbeMs / (0.5 * (probe_before + probe_after));
        probe_before = probe_after;
        const double wall_ns = static_cast<double>(r.wallNs);
        wall_ms_per_sim_s.push_back(
            wall_ns / 1e6 / (static_cast<double>(r.simTicks) / 1e9));
        ns_per_event.push_back(wall_ns / static_cast<double>(r.events));
        ref_wall.push_back(wall_ms_per_sim_s.back() * k);
        ref_ns.push_back(ns_per_event.back() * k);
        scale.push_back(k);
        const std::size_t first = setup_s.size();
        setupBatch(runner, setup_s);
        for (std::size_t i = first; i < setup_s.size(); ++i)
            ref_setup.push_back(setup_s[i] * k);
    }
    if (wall_ms_per_sim_s.empty()) {
        std::fprintf(stderr, "perfbench: no run passed its checks\n");
        return 1;
    }

    std::printf("perfbench %s seed %llu: %zu timed runs of %.3f "
                "simulated s, %llu events each\n",
                w.name().c_str(),
                static_cast<unsigned long long>(args.seed),
                wall_ms_per_sim_s.size(),
                static_cast<double>(runner.reference().simTicks) / 1e9,
                static_cast<unsigned long long>(
                    runner.reference().events));
    // Unscaled figures of the machine that ran this, for the reader.
    printMetric({"failed_run_share", failedShare(runner), "share"});
    printMetric({"host_wall_ms_per_sim_s", median(wall_ms_per_sim_s),
                 "ms"});
    printMetric({"host_ns_per_event", median(ns_per_event), "ns"});
    printMetric({"host_setup_s", median(setup_s), "s"});
    printMetric({"host_speed_vs_reference", median(scale), "ratio"});
    printResult(runner, runner.failed() == 0,
                {
                    {"wall_ms_per_sim_s", median(ref_wall), "ms"},
                    {"ns_per_event", median(ref_ns), "ns"},
                    {"setup_s", median(ref_setup), "s"},
                    {"peak_rss_mb", rss_mb, "MB"},
                });
    return 0;
}

std::uint64_t
driveSize(double workload_ops, std::uint64_t cap)
{
    const double floor = 20000.0;
    return static_cast<std::uint64_t>(
        std::min(std::max(workload_ops, floor), static_cast<double>(cap)));
}

double
selfNs(const DriveTiming &d, double queue_ns, double extra_ns = 0.0)
{
    if (d.ops == 0)
        return 0.0;
    const double self =
        (static_cast<double>(d.ns) -
         static_cast<double>(d.queueEvents) * queue_ns - extra_ns) /
        static_cast<double>(d.ops);
    return std::max(self, 0.0);
}

bool
writeChromeTrace(const SpanLog &log, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    const std::vector<Span> &spans = log.spans();
    const std::int64_t base = spans.empty() ? 0 : spans.front().startNs;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                      s.name.c_str(),
                      static_cast<double>(s.startNs - base) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                      s.parent, i + 1 < spans.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

int
perLayer(const Args &args, const Workload &w)
{
    Runner runner(w);
    SpanLog log;
    log.open("perfbench." + w.name());

    RunRecord r;
    runner.run(false, r);
    if (!runner.hasReference()) {
        std::fprintf(stderr, "perfbench: warm-up run failed\n");
        return 1;
    }
    const RunRecord ref = runner.reference();

    // Untraced and traced runs in adjacent pairs, the order swapping
    // every pair, so the machine's drift and any order effect cancel
    // out of the per-pair difference.
    std::vector<double> untraced_ms;
    std::vector<double> overhead_ms;
    std::vector<double> write_ms;
    std::vector<double> setup_s;
    std::vector<double> probe_ms;
    const std::int64_t t0 = nowNs();
    const double budget_ns = args.seconds * 1e9 * 0.6;
    for (int pair = 0;
         overhead_ms.size() < 3 ||
         static_cast<double>(nowNs() - t0) < budget_ns;
         ++pair) {
        RunRecord plain;
        RunRecord traced;
        bool ok = true;
        for (int k = 0; k < 2; ++k) {
            if ((k + pair) % 2 == 0) {
                ok &= runner.run(false, plain);
            } else {
                log.open("run.traced");
                ok &= runner.run(false, traced, &log);
                log.close();
            }
        }
        if (ok) {
            untraced_ms.push_back(static_cast<double>(plain.wallNs) / 1e6);
            overhead_ms.push_back(
                static_cast<double>(traced.wallNs - plain.wallNs) / 1e6);
            write_ms.push_back(static_cast<double>(traced.writeNs) / 1e6);
        }
        log.open("harness.setup");
        setupBatch(runner, setup_s);
        log.close();
        log.open("machine.probe");
        probe_ms.push_back(machineProbeMs());
        log.close();
        if (runner.failed() > 10)
            break;
    }
    if (untraced_ms.empty()) {
        std::fprintf(stderr, "perfbench: no run passed its checks\n");
        return 1;
    }
    const double run_ms = median(untraced_ms);
    const double run_ns = run_ms * 1e6;

    const nmapsim::ExperimentConfig base = w.base();
    const bool bypass = ref.pollLoops > 0;
    const bool nmap = base.freqPolicy == "NMAP";
    const nmapsim::ResiliencePlan plan =
        nmapsim::ResiliencePlan::fromParams(base.params);
    const double host_pkts =
        static_cast<double>(ref.nicRxHarvested + ref.nicTxConsumed);
    const std::uint64_t seed = args.seed;

    log.open("drives");
    const DriveTiming dq = driveEventQueue(
        seed, driveSize(static_cast<double>(ref.events), 2000000), log);
    const double queue_ns = dq.nsPerOp();
    const DriveTiming dw =
        driveWire(seed, driveSize(host_pkts, 500000), log);
    const DriveTiming dn = driveNic(seed, driveSize(host_pkts, 500000),
                                    base.numCores, log);
    const double napi_pkts =
        bypass ? 0.0
               : static_cast<double>(ref.pktsIntrMode + ref.pktsPollMode);
    const DriveTiming dp = driveNapi(seed, driveSize(napi_pkts / 8, 200000),
                                     log);
    const DriveTiming dd = driveDvfs(
        seed,
        driveSize(static_cast<double>(ref.pstateTransitions), 200000),
        log);
    const double wakes = static_cast<double>(ref.cc1Wakes + ref.cc6Wakes);
    const DriveTiming dc =
        driveCoreSleep(seed, driveSize(wakes, 500000), log);
    const double irqs =
        nmap && dp.pktsPerPoll > 0.0
            ? static_cast<double>(ref.pktsIntrMode) / dp.pktsPerPoll
            : 0.0;
    const DriveTiming dm =
        driveMonitor(seed, driveSize(irqs, 500000), base.numCores,
                     base.params.getDouble("nmap.ni_th", 400.0), log);
    // Dispatch and breakers run the tiered workload's settings (a tier
    // of 2 hosts, round-robin); elsewhere they only give a reference
    // ns/op, with share 0.
    const double picks = static_cast<double>(ref.forwards);
    const DriveTiming dx = driveDispatch(seed, driveSize(picks, 1000000),
                                         "round-robin", 2, log);
    nmapsim::BreakerConfig bc;
    bc.window = nmapsim::milliseconds(1);
    bc.openFor = bc.window;
    if (plan.wantsBreakers()) {
        bc.window = plan.breakerWindow;
        bc.threshold = plan.breakerThreshold;
        bc.minVolume = plan.breakerMinVolume;
        bc.openFor = plan.breakerOpen;
        bc.trials = plan.breakerTrials;
    }
    const double breaker_ops = plan.wantsBreakers() ? picks : 0.0;
    const DriveTiming db =
        driveBreaker(seed, driveSize(breaker_ops, 1000000), bc, log);
    const double samples = static_cast<double>(ref.received);
    const DriveTiming dl =
        driveLatencyRecorder(seed, driveSize(samples, 1000000), log);
    const double energy_updates =
        2.0 * wakes + static_cast<double>(ref.pstateTransitions);
    const DriveTiming de =
        driveEnergyMeter(seed, driveSize(energy_updates, 1000000), log);
    log.close(); // drives
    log.close(); // root

    // Estimated layer shares of one untraced run: the workload's
    // operation count in the layer times the layer's self ns/op.
    const double wire_self = selfNs(dw, queue_ns);
    const double nic_tx = static_cast<double>(dn.ops) / 2.0;
    const double wire_pkts = host_pkts * (w.cluster() ? 2.0 : 1.0);
    std::map<std::string, double> share;
    share["sim"] = static_cast<double>(ref.events) * queue_ns / run_ns;
    share["net"] = (wire_pkts * wire_self +
                    host_pkts * selfNs(dn, queue_ns, nic_tx * wire_self)) /
                   run_ns;
    share["os"] = (dp.pktsPerPoll > 0.0 ? napi_pkts / dp.pktsPerPoll : 0.0) *
                  dp.nsPerOp() / run_ns;
    share["cpu"] = (static_cast<double>(ref.pstateTransitions) *
                        selfNs(dd, queue_ns) +
                    wakes * dc.nsPerOp()) /
                   run_ns;
    share["nmap"] = irqs * dm.nsPerOp() / run_ns;
    share["cluster"] = picks * dx.nsPerOp() / run_ns;
    share["resilience"] = breaker_ops * db.nsPerOp() / run_ns;
    share["stats"] =
        (samples * dl.nsPerOp() + energy_updates * de.nsPerOp()) / run_ns;
    const double setup_share = median(setup_s) * 1e9 / run_ns;
    double attributed = setup_share;
    for (const auto &[layer, s] : share)
        attributed += s;

    if (!args.traceOut.empty() && !writeChromeTrace(log, args.traceOut))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.traceOut.c_str());

    const double sim_ms = static_cast<double>(ref.simTicks) / 1e6;
    const double loops = static_cast<double>(ref.pollLoops);
    const auto count = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const std::vector<Metric> metrics = {
        {"sim.events", count(ref.events), "count"},
        {"sim.events_per_sim_ms", count(ref.events) / sim_ms, "1/ms"},
        {"sim.queue_ns_per_op", queue_ns, "ns"},
        {"sim.share", share["sim"], "wall_share"},
        {"net.nic_rx_harvested", count(ref.nicRxHarvested), "count"},
        {"net.nic_tx_consumed", count(ref.nicTxConsumed), "count"},
        {"net.nic_drops", count(ref.nicDrops), "count"},
        {"net.switch_port_drops", count(ref.switchPortDrops), "count"},
        {"net.link_down_drops", count(ref.linkDownDrops), "count"},
        {"net.wire_ns_per_pkt", dw.nsPerOp(), "ns"},
        {"net.nic_ns_per_pkt", dn.nsPerOp(), "ns"},
        {"net.share", share["net"], "wall_share"},
        {"os.pkts_intr_mode", count(ref.pktsIntrMode), "count"},
        {"os.pkts_poll_mode", count(ref.pktsPollMode), "count"},
        {"os.poll_share",
         ref.pktsIntrMode + ref.pktsPollMode == 0
             ? 0.0
             : count(ref.pktsPollMode) /
                   count(ref.pktsIntrMode + ref.pktsPollMode),
         "share"},
        {"os.ksoftirqd_wakes", count(ref.ksoftirqdWakes), "count"},
        {"os.napi_ns_per_poll", dp.nsPerOp(), "ns"},
        {"os.share", share["os"], "wall_share"},
        {"cpu.pstate_transitions", count(ref.pstateTransitions), "count"},
        {"cpu.cc6_wakes", count(ref.cc6Wakes), "count"},
        {"cpu.cc1_wakes", count(ref.cc1Wakes), "count"},
        {"cpu.busy_fraction", ref.busyFraction, "share"},
        {"cpu.dvfs_ns_per_op", dd.nsPerOp(), "ns"},
        {"cpu.core_ns_per_wake", dc.nsPerOp(), "ns"},
        {"cpu.share", share["cpu"], "wall_share"},
        {"nmap.monitor_ns_per_irq", dm.nsPerOp(), "ns"},
        {"nmap.share", share["nmap"], "wall_share"},
        {"workload.requests_sent", count(ref.sent), "count"},
        {"workload.responses", count(ref.received), "count"},
        {"workload.retransmits", count(ref.retransmits), "count"},
        {"workload.timed_out", count(ref.timedOut), "count"},
        {"workload.availability", ref.availability, "share"},
        {"cluster.forwards", count(ref.forwards), "count"},
        {"cluster.rerouted", count(ref.rerouted), "count"},
        {"cluster.ejections", count(ref.ejections), "count"},
        {"cluster.dispatch_ns_per_pick", dx.nsPerOp(), "ns"},
        {"cluster.share", share["cluster"], "wall_share"},
        {"resilience.shed", count(ref.shed), "count"},
        {"resilience.breaker_short_circuits",
         count(ref.breakerShortCircuits), "count"},
        {"resilience.breaker_transitions", count(ref.breakerTransitions),
         "count"},
        {"resilience.retry_budget_exhausted",
         count(ref.retryBudgetExhausted), "count"},
        {"resilience.breaker_ns_per_op", db.nsPerOp(), "ns"},
        {"resilience.share", share["resilience"], "wall_share"},
        {"dataplane.poll_loops", loops, "count"},
        {"dataplane.empty_polls", count(ref.emptyPolls), "count"},
        {"dataplane.useful_poll_ratio",
         loops == 0.0 ? 0.0 : (loops - count(ref.emptyPolls)) / loops,
         "share"},
        {"stats.record_ns_per_sample", dl.nsPerOp(), "ns"},
        {"stats.energy_ns_per_update", de.nsPerOp(), "ns"},
        {"stats.share", share["stats"], "wall_share"},
        {"harness.setup_share", setup_share, "wall_share"},
        {"harness.result_write_ms", median(write_ms), "ms"},
        {"model.p99_us", static_cast<double>(ref.p99Ticks) / 1e3, "us"},
        {"model.energy_j", ref.energyJoules, "J"},
        {"model.digest", digest(ref.recordBytes), "hash"},
        {"trace.unattributed_share", 1.0 - attributed, "wall_share"},
        {"trace.overhead_ms", median(overhead_ms), "ms"},
        {"machine.probe_ms", median(probe_ms), "ms"},
        {"machine.run_ms_per_probe_ms", run_ms / median(probe_ms), "ratio"},
    };
    std::printf("perfbench %s seed %llu (traced): %zu untraced/traced "
                "run pairs, run wall %.3f ms\n",
                w.name().c_str(), static_cast<unsigned long long>(seed),
                untraced_ms.size(), run_ms);
    printMetric({"failed_run_share", failedShare(runner), "share"});
    printResult(runner, runner.failed() == 0, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        const Workload w(args.workload, args.seed);
        return args.trace ? perLayer(args, w) : endToEnd(args, w);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
