#include "drives.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "cluster/dispatch.hh"
#include "cpu/core.hh"
#include "cpu/cpu_profile.hh"
#include "cpu/dvfs_actuator.hh"
#include "net/nic.hh"
#include "net/wire.hh"
#include "nmap/monitor.hh"
#include "os/napi.hh"
#include "os/os_config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/energy_meter.hh"
#include "stats/latency_recorder.hh"

namespace perfbench {

using namespace nmapsim;

namespace {

/** Keep a computed value alive so the optimizer cannot drop the calls
 *  that produced it (the same trick as benchmark::DoNotOptimize). */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Distinct stream per drive, all derived from the workload seed. */
Rng
streamFor(std::uint64_t seed, std::uint64_t layer)
{
    return Rng(seed * 0x9e3779b97f4a7c15ULL + layer);
}

Packet
packet(Rng &rng, Packet::Kind kind)
{
    Packet p;
    p.requestId = rng.next();
    p.kind = kind;
    p.flowHash = static_cast<std::uint32_t>(rng.next());
    p.sizeBytes = static_cast<std::uint32_t>(rng.uniformInt(64, 1500));
    return p;
}

std::vector<Packet>
packets(Rng &rng, std::size_t n, Packet::Kind kind)
{
    std::vector<Packet> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(packet(rng, kind));
    return v;
}

/** Batch sizes summing to exactly @p total, each in [1, max_batch]. */
std::vector<std::uint64_t>
batches(Rng &rng, std::uint64_t total, std::int64_t max_batch)
{
    std::vector<std::uint64_t> v;
    while (total > 0) {
        const std::uint64_t b = std::min<std::uint64_t>(
            total, static_cast<std::uint64_t>(rng.uniformInt(1, max_batch)));
        v.push_back(b);
        total -= b;
    }
    return v;
}

/** An event that reschedules itself from a shared delay table until
 *  the drive's fire budget is spent, and every eighth firing also
 *  moves a peer (the reschedule path). */
class SelfRescheduling : public Event
{
  public:
    SelfRescheduling(EventQueue &eq, const std::vector<Tick> &delays,
                     std::uint64_t &budget, std::size_t &cursor)
        : eq_(eq), delays_(delays), budget_(budget), cursor_(cursor)
    {
    }

    void setPeer(SelfRescheduling *peer) { peer_ = peer; }

    void
    process() override
    {
        if (budget_ == 0)
            return;
        --budget_;
        const std::size_t i = cursor_++;
        eq_.scheduleIn(this, delays_[i % delays_.size()]);
        if (i % 8 == 0 && peer_->scheduled())
            eq_.reschedule(peer_, eq_.now() + delays_[(i + 1) %
                                                      delays_.size()]);
    }

  private:
    EventQueue &eq_;
    const std::vector<Tick> &delays_;
    std::uint64_t &budget_;
    std::size_t &cursor_;
    SelfRescheduling *peer_ = nullptr;
};

} // namespace

DriveTiming
driveEventQueue(std::uint64_t seed, std::uint64_t ops, SpanLog &log)
{
    Rng rng = streamFor(seed, 1);
    // Mostly sub-bucket to few-bucket delays (the wheel), a few past
    // the wheel's span (the overflow heap), as in a real run.
    std::vector<Tick> delays(4096);
    for (Tick &d : delays)
        d = rng.bernoulli(0.05)
                ? static_cast<Tick>(rng.uniformInt(150000, 2000000))
                : static_cast<Tick>(rng.exponential(2000.0)) + 1;

    EventQueue eq;
    constexpr int kPending = 64;
    std::uint64_t budget = ops > kPending ? ops - kPending : 0;
    std::size_t cursor = 0;
    std::vector<std::unique_ptr<SelfRescheduling>> events;
    for (int i = 0; i < kPending; ++i)
        events.push_back(std::make_unique<SelfRescheduling>(
            eq, delays, budget, cursor));
    for (int i = 0; i < kPending; ++i) {
        events[static_cast<std::size_t>(i)]->setPeer(
            events[static_cast<std::size_t>((i + 1) % kPending)].get());
        eq.schedule(events[static_cast<std::size_t>(i)].get(),
                    delays[static_cast<std::size_t>(i)]);
    }

    log.open("sim.event_queue");
    while (eq.step()) {
    }
    DriveTiming r;
    r.ns = log.close();
    r.ops = eq.numProcessed();
    return r;
}

DriveTiming
driveWire(std::uint64_t seed, std::uint64_t ops, SpanLog &log)
{
    Rng rng = streamFor(seed, 2);
    const std::vector<Packet> pkts =
        packets(rng, ops, Packet::Kind::kRequest);
    const std::vector<std::uint64_t> sizes = batches(rng, ops, 32);

    EventQueue eq;
    Wire wire(eq, 10e9, microseconds(5));
    std::uint64_t delivered = 0;
    wire.setSink([&delivered](const Packet &) { ++delivered; });

    log.open("net.wire");
    std::size_t next = 0;
    for (std::uint64_t b : sizes) {
        for (std::uint64_t i = 0; i < b; ++i)
            wire.send(pkts[next++]);
        eq.runAll();
    }
    DriveTiming r;
    r.ns = log.close();
    r.ops = delivered;
    r.queueEvents = eq.numProcessed();
    return r;
}

DriveTiming
driveNic(std::uint64_t seed, std::uint64_t ops, int queues, SpanLog &log)
{
    Rng rng = streamFor(seed, 3);
    const std::uint64_t rx = std::max<std::uint64_t>(1, ops / 2);
    const std::vector<Packet> pkts =
        packets(rng, rx, Packet::Kind::kRequest);
    const std::vector<std::uint64_t> sizes = batches(rng, rx, 64);

    EventQueue eq;
    NicConfig cfg;
    cfg.numQueues = queues;
    Nic nic(eq, cfg);
    std::uint64_t irqs = 0;
    nic.setIrqHandler([&irqs](int) { ++irqs; });
    Wire tx(eq, 10e9, microseconds(5));
    tx.setSink([](const Packet &) {});
    nic.setTxWire(&tx);

    log.open("net.nic");
    std::size_t next = 0;
    Packet p;
    for (std::uint64_t b : sizes) {
        for (std::uint64_t i = 0; i < b; ++i)
            nic.receive(pkts[next++]);
        for (int q = 0; q < queues; ++q)
            while (nic.popRx(q, p)) {
                p.kind = Packet::Kind::kResponse;
                nic.transmit(q, p);
            }
        eq.runAll();
        for (int q = 0; q < queues; ++q)
            nic.consumeTx(q, nic.txPending(q));
    }
    DriveTiming r;
    r.ns = log.close();
    r.ops = nic.rxHarvested() + nic.txConsumed();
    r.queueEvents = eq.numProcessed();
    return r;
}

DriveTiming
driveNapi(std::uint64_t seed, std::uint64_t ops, SpanLog &log)
{
    Rng rng = streamFor(seed, 4);
    OsConfig os;
    // Session sizes from one packet to a few budgets' worth, so the
    // drive covers interrupt-mode single polls, repolls and handoff.
    const std::vector<std::uint64_t> sizes =
        batches(rng, ops * static_cast<std::uint64_t>(os.napiWeight) / 4,
                4 * os.napiWeight);
    const std::vector<Packet> pkts =
        packets(rng, 4 * static_cast<std::size_t>(os.napiWeight),
                Packet::Kind::kRequest);

    EventQueue eq;
    NicConfig ncfg;
    ncfg.numQueues = 1;
    ncfg.rxRingSize = pkts.size();
    Nic nic(eq, ncfg);
    nic.setIrqHandler([](int) {});
    NapiContext napi(eq, nic, 0, os);
    std::uint64_t delivered = 0;
    napi.setDeliver([&delivered](const Packet &) { ++delivered; });

    // The span also covers each session's Nic::receive calls; the
    // per-poll figure counts only the NAPI calls.
    std::uint64_t polls = 0;
    std::int64_t ns = 0;
    log.open("os.napi");
    for (std::uint64_t b : sizes) {
        for (std::uint64_t i = 0; i < b; ++i)
            nic.receive(pkts[i]);
        const std::int64_t t0 = nowNs();
        napi.napiSchedule();
        bool in_ksoftirqd = false;
        for (;;) {
            napi.beginPoll();
            ++polls;
            const NapiContext::Outcome out =
                napi.completePoll(in_ksoftirqd);
            if (out == NapiContext::Outcome::kComplete)
                break;
            if (out == NapiContext::Outcome::kHandoff) {
                napi.handoffToKsoftirqd();
                in_ksoftirqd = true;
            }
        }
        ns += nowNs() - t0;
    }
    log.close();
    DriveTiming r;
    r.ns = ns;
    r.ops = polls;
    r.pktsPerPoll = polls == 0 ? 0.0
                              : static_cast<double>(
                                    napi.pktsInterruptMode() +
                                    napi.pktsPollingMode()) /
                                    static_cast<double>(polls);
    return r;
}

DriveTiming
driveDvfs(std::uint64_t seed, std::uint64_t ops, SpanLog &log)
{
    Rng rng = streamFor(seed, 5);
    const CpuProfile &profile = CpuProfile::xeonGold6134();
    std::vector<int> targets(ops);
    for (int &t : targets)
        t = static_cast<int>(
            rng.uniformInt(0, profile.pstates.maxIndex()));

    EventQueue eq;
    DvfsActuator dvfs(eq, profile, rng.fork(), 0);
    log.open("cpu.dvfs");
    for (int t : targets) {
        dvfs.requestPState(t);
        eq.runAll();
    }
    DriveTiming r;
    r.ns = log.close();
    r.ops = ops;
    r.queueEvents = eq.numProcessed();
    return r;
}

DriveTiming
driveCoreSleep(std::uint64_t seed, std::uint64_t ops, SpanLog &log)
{
    Rng rng = streamFor(seed, 6);
    std::vector<CState> states(ops);
    for (CState &s : states)
        s = rng.bernoulli(0.5) ? CState::kC6 : CState::kC1;

    EventQueue eq;
    Core core(0, eq, CpuProfile::xeonGold6134(), rng);
    log.open("cpu.core_sleep");
    for (CState s : states) {
        core.enterSleep(s);
        core.wake();
    }
    DriveTiming r;
    r.ns = log.close();
    r.ops = ops;
    return r;
}

DriveTiming
driveMonitor(std::uint64_t seed, std::uint64_t ops, int cores,
             double ni_threshold, SpanLog &log)
{
    Rng rng = streamFor(seed, 7);
    struct Irq
    {
        int core;
        std::uint32_t intr;
        std::uint32_t poll;
    };
    std::vector<Irq> irqs(ops);
    for (Irq &q : irqs) {
        q.core = static_cast<int>(rng.uniformInt(0, cores - 1));
        q.intr = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
        q.poll = static_cast<std::uint32_t>(rng.uniformInt(0, 256));
    }

    ModeTransitionMonitor monitor(cores, ni_threshold);
    std::uint64_t notified = 0;
    monitor.setNotify([&notified](int) { ++notified; });
    log.open("nmap.monitor");
    for (const Irq &q : irqs) {
        monitor.onHardIrq(q.core);
        monitor.onPollProcessed(q.core, q.intr, q.poll);
    }
    DriveTiming r;
    r.ns = log.close();
    keep(notified);
    r.ops = ops;
    return r;
}

DriveTiming
driveDispatch(std::uint64_t seed, std::uint64_t ops,
              const std::string &dispatch, int hosts, SpanLog &log)
{
    Rng rng = streamFor(seed, 8);
    const std::vector<Packet> pkts =
        packets(rng, std::min<std::uint64_t>(ops, 4096),
                Packet::Kind::kRequest);

    ensureBuiltinDispatchPolicies();
    DispatchContext ctx;
    ctx.numHosts = hosts;
    ctx.weights.assign(static_cast<std::size_t>(hosts), 1.0);
    ctx.outstanding = [](int) -> std::uint64_t { return 0; };
    ctx.healthy = [](int) { return true; };
    std::unique_ptr<DispatchPolicy> policy =
        DispatchRegistry::instance().make(dispatch, ctx);

    std::uint64_t sum = 0;
    log.open("cluster.dispatch");
    for (std::uint64_t i = 0; i < ops; ++i)
        sum += static_cast<std::uint64_t>(
            policy->pickHost(pkts[i % pkts.size()]));
    DriveTiming r;
    r.ns = log.close();
    keep(sum);
    r.ops = ops;
    return r;
}

DriveTiming
driveBreaker(std::uint64_t seed, std::uint64_t ops,
             const BreakerConfig &config, SpanLog &log)
{
    Rng rng = streamFor(seed, 9);
    struct Step
    {
        Tick at;
        bool failure;
    };
    std::vector<Step> steps(ops);
    Tick now = 0;
    for (Step &s : steps) {
        now += static_cast<Tick>(rng.exponential(2000.0));
        // Failure bursts around one breaker trip per millisecond.
        s.failure = rng.bernoulli((now / milliseconds(1)) % 4 == 0
                                      ? 0.7
                                      : 0.02);
        s.at = now;
    }

    CircuitBreaker breaker(config);
    log.open("resilience.breaker");
    for (const Step &s : steps)
        if (breaker.allow(s.at))
            breaker.onOutcome(s.at, s.failure);
    DriveTiming r;
    r.ns = log.close();
    r.ops = ops;
    return r;
}

DriveTiming
driveLatencyRecorder(std::uint64_t seed, std::uint64_t ops, SpanLog &log)
{
    Rng rng = streamFor(seed, 10);
    std::vector<LatencySample> samples(ops);
    Tick now = 0;
    for (LatencySample &s : samples) {
        now += static_cast<Tick>(rng.exponential(2000.0));
        s = {now, static_cast<Tick>(rng.lognormal(10.5, 0.6))};
    }

    LatencyRecorder rec;
    log.open("stats.latency_recorder");
    for (const LatencySample &s : samples)
        rec.record(s.completionTime, s.latency);
    const Tick p = rec.percentile(50.0) + rec.percentile(99.0);
    DriveTiming r;
    r.ns = log.close();
    keep(p);
    r.ops = ops;
    return r;
}

DriveTiming
driveEnergyMeter(std::uint64_t seed, std::uint64_t ops, SpanLog &log)
{
    Rng rng = streamFor(seed, 11);
    struct Update
    {
        Tick at;
        double watts;
    };
    std::vector<Update> updates(ops);
    Tick now = 0;
    for (Update &u : updates) {
        now += static_cast<Tick>(rng.exponential(5000.0));
        u = {now, rng.uniform(0.5, 12.0)};
    }

    EnergyMeter meter;
    log.open("stats.energy_meter");
    for (const Update &u : updates)
        meter.setPower(u.at, u.watts);
    DriveTiming r;
    r.ns = log.close();
    keep(meter.energyJoules(now));
    r.ops = ops;
    return r;
}

double
machineProbeMs()
{
    // A toy discrete-event loop with the simulator's mix of work, built
    // from the standard library alone: a binary heap of 4096 pending
    // timestamps, and per event a hashed read-modify-write with a
    // data-dependent branch into a 1 MiB state table. On a shared host
    // it slows down with the simulator; a pure pointer chase or a
    // register-only loop tracked that drift less well. The state and
    // the stream restart on every call, so every call does the same
    // work.
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    static std::vector<std::uint64_t> state(1u << 17);
    std::fill(state.begin(), state.end(), 1);
    std::vector<Entry> storage;
    storage.reserve(4096);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
        std::greater<>(), std::move(storage));
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    const auto step = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.push({step() % 100000, i});

    const std::int64_t t0 = nowNs();
    for (int i = 0; i < 200000; ++i) {
        const auto [when, id] = heap.top();
        heap.pop();
        const std::uint64_t r = step();
        std::uint64_t &slot =
            state[(id * 2654435761u + (r & 1023)) & (state.size() - 1)];
        slot = slot * 6364136223846793005ULL + when;
        if (slot & 1)
            slot ^= r;
        else
            slot += id;
        heap.push({when + 1 + r % 5000, id});
    }
    const std::int64_t t1 = nowNs();
    keep(heap.top());
    keep(state[x & 1023]);
    return static_cast<double>(t1 - t0) / 1e6;
}

} // namespace perfbench
