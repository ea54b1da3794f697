#include "harness/config_io.hh"

#include <sstream>

#include "sim/logging.hh"

namespace nmapsim {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** The ExperimentConfig schema, in print order. */
template <class Config, class Visit>
void
forEachField(Config &c, Visit &field)
{
    field("cpu_profile", c.cpuProfile);
    field("cores", c.numCores);
    field("app", c.app);
    field("load", c.load);
    field("rps_override", c.rpsOverride);
    field("train_mean_override", c.trainMeanOverride);
    field("duty_override", c.dutyOverride);
    field("burst.period", c.burst.period);
    field("burst.on_time", c.burst.onTime);
    field("connection_skew", c.connectionSkew);
    field("freq_policy", c.freqPolicy);
    field("idle_policy", c.idlePolicy);
    field("gov.sample_period", c.gov.samplePeriod);
    field("gov.up_threshold", c.gov.upThreshold);
    field("gov.down_threshold", c.gov.downThreshold);
    field("gov.ewma_alpha", c.gov.ewmaAlpha);
    field("os.irq_cycles", c.os.irqCycles);
    field("os.poll_overhead_cycles", c.os.pollOverheadCycles);
    field("os.rx_packet_cycles", c.os.rxPacketCycles);
    field("os.tx_completion_cycles", c.os.txCompletionCycles);
    field("os.napi_weight", c.os.napiWeight);
    field("os.tx_clean_budget", c.os.txCleanBudget);
    field("os.max_softirq_iters", c.os.maxSoftirqIters);
    field("os.jiffy", c.os.jiffy);
    field("os.max_softirq_time", c.os.maxSoftirqTime);
    field("nic.num_queues", c.nic.numQueues);
    field("nic.rx_ring_size", c.nic.rxRingSize);
    field("nic.itr", c.nic.itr);
    field("nic.dma_latency", c.nic.dmaLatency);
    field("connections", c.numConnections);
    field("warmup", c.warmup);
    field("duration", c.duration);
    field("seed", c.seed);
    field("collect_traces", c.collectTraces);
    field("trace_bucket", c.traceBucket);
    field("collect_latency_trace", c.collectLatencyTrace);
    field("watch_core", c.watchCore);
}

} // namespace

void
forEachConfigLine(
    const std::string &text,
    const std::function<void(const std::string &key,
                             const std::string &value)> &apply)
{
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::size_t eq = t.find('=');
        if (eq == std::string::npos)
            fatal("config line " + std::to_string(lineno) +
                  ": expected key=value, got '" + t + "'");
        std::string key = trim(t.substr(0, eq));
        if (key.empty())
            fatal("config line " + std::to_string(lineno) +
                  ": empty key");
        apply(key, trim(t.substr(eq + 1)));
    }
}

bool
parseConfigBool(const std::string &text, const std::string &key)
{
    if (text == "true" || text == "1")
        return true;
    if (text == "false" || text == "0")
        return false;
    fatal("config key '" + key + "': not a bool: '" + text +
          "' (use true/false)");
}

LoadLevel
parseLoadLevel(const std::string &text, const std::string &key)
{
    if (text == "low")
        return LoadLevel::kLow;
    if (text == "med")
        return LoadLevel::kMed;
    if (text == "high")
        return LoadLevel::kHigh;
    fatal("config key '" + key + "': unknown load level '" + text +
          "' (known: low, med, high)");
}

std::string
printConfig(const ExperimentConfig &c)
{
    std::string out;
    ConfigFieldPrinter print(out);
    forEachField(c, print);
    for (const auto &[key, value] : c.params)
        print(key, value);
    return out;
}

void
setConfigValue(ExperimentConfig &c, const std::string &key,
               const std::string &value)
{
    ConfigFieldSetter set(key, value);
    forEachField(c, set);
    if (set.hit() != nullptr)
        return;
    // Other dotted keys are policy tunables, passed through verbatim.
    const std::size_t dot = key.find('.');
    if (dot == std::string::npos || dot == 0 || set.reservedPrefix())
        fatal("unknown config key '" + key + "'");
    c.params.set(key, value);
}

ExperimentConfig
parseConfig(const std::string &text)
{
    ExperimentConfig config;
    forEachConfigLine(text,
                      [&config](const std::string &key,
                                const std::string &value) {
                          setConfigValue(config, key, value);
                      });
    return config;
}

} // namespace nmapsim
