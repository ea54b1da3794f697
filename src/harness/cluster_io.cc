#include "harness/cluster_io.hh"

#include <charconv>

#include "harness/config_io.hh"
#include "sim/logging.hh"

namespace nmapsim {

namespace {

/** Parse "host<i>.<rest>" keys; returns false for anything else. */
bool
splitHostKey(const std::string &key, int &host, std::string &rest)
{
    if (key.rfind("host", 0) != 0)
        return false;
    std::size_t dot = key.find('.');
    if (dot == std::string::npos || dot == 4)
        return false;
    const char *b = key.data() + 4;
    const char *e = key.data() + dot;
    int v = 0;
    auto res = std::from_chars(b, e, v);
    if (res.ec != std::errc() || res.ptr != e)
        return false;
    host = v;
    rest = key.substr(dot + 1);
    return true;
}

/** Materialise per-host specs so host @p id can take an override. */
HostSpec &
hostSpec(ClusterConfig &config, int id, const std::string &key)
{
    if (id < 0 || id >= config.numHosts)
        fatal("config key '" + key + "': host index out of range "
              "(hosts=" + std::to_string(config.numHosts) +
              "; set hosts first)");
    if (config.hosts.empty())
        config.hosts.assign(static_cast<std::size_t>(config.numHosts),
                            HostSpec{});
    if (static_cast<int>(config.hosts.size()) != config.numHosts)
        fatal("config key '" + key + "': host spec count diverged "
              "from the host count");
    return config.hosts[static_cast<std::size_t>(id)];
}

/** The cluster-claimed ClusterConfig schema, in print order. */
template <class Config, class Visit>
void
forEachField(Config &c, Visit &field)
{
    field("hosts", c.numHosts);
    field("dispatch", c.dispatch);
    field("cluster.client_groups", c.clientGroups);
    field("cluster.drain", c.drain);
    field("cluster.fabric_bandwidth", c.fabric.fabricBandwidthBps);
    field("cluster.fabric_latency", c.fabric.fabricLatency);
    field("cluster.port_bandwidth", c.fabric.portBandwidthBps);
    field("cluster.port_propagation", c.fabric.portPropagation);
    field("cluster.port_queue", c.fabric.portQueueLimit);
    field("cluster.health_interval", c.fabric.healthInterval);
    field("cluster.health_timeout", c.fabric.healthTimeout);
    field("cluster.eject_duration", c.fabric.ejectDuration);
}

} // namespace

bool
setClusterConfigValue(ClusterConfig &c, const std::string &key,
                      const std::string &value)
{
    ConfigFieldSetter set(key, value);
    forEachField(c, set);
    if (set.hit() == &c.numHosts && !c.hosts.empty())
        fatal("config key '" + key + "': set the host count before any "
              "host<i>.* override");
    if (set.hit() != nullptr)
        return true;
    if (set.reservedPrefix())
        fatal("unknown config key '" + key + "'");

    int host = 0;
    std::string rest;
    if (key.rfind("topology.", 0) == 0) {
        // Topologies only exist behind the switch: claiming the key
        // here flips nmapsim_run into cluster mode. Validation (key
        // shape, tier ranges) happens in TopologyPlan::fromParams at
        // experiment construction.
        c.base.params.set(key, value);
    } else if (splitHostKey(key, host, rest)) {
        HostSpec &spec = hostSpec(c, host, key);
        if (rest == "freq_policy")
            spec.freqPolicy = value;
        else if (rest == "idle_policy")
            spec.idlePolicy = value;
        else if (rest == "weight")
            spec.weight = PolicyParams::parseDouble(value, key);
        else if (rest.find('.') != std::string::npos) {
            // Structured (gov/os/nic/burst) and cluster-scoped
            // (cluster/fault/client/topology) namespaces are not
            // honoured per host; silently stashing them in params
            // would drop them, so reject with a labelled error — the
            // same contract fault.* key validation gives.
            const std::string ns = rest.substr(0, rest.find('.'));
            for (const char *banned :
                 {"gov", "burst", "os", "nic", "cluster", "fault",
                  "client", "topology", "resilience"}) {
                if (ns == banned)
                    fatal("config key '" + key + "': '" + ns +
                          ".*' keys cannot be overridden per host");
            }
            spec.params.set(rest, value);
        } else {
            fatal("unknown per-host config key '" + key +
                  "' (use freq_policy, idle_policy, weight or a "
                  "dotted params key)");
        }
    } else {
        setConfigValue(c.base, key, value);
        return false;
    }
    return true;
}

std::string
printClusterConfig(const ClusterConfig &c)
{
    std::string out;
    ConfigFieldPrinter print(out);
    forEachField(c, print);

    for (std::size_t i = 0; i < c.hosts.size(); ++i) {
        const HostSpec &spec = c.hosts[i];
        const std::string prefix = "host" + std::to_string(i) + ".";
        // weight always prints so parsing recreates the spec vector.
        print(prefix + "weight", spec.weight);
        if (!spec.freqPolicy.empty())
            print(prefix + "freq_policy", spec.freqPolicy);
        if (!spec.idlePolicy.empty())
            print(prefix + "idle_policy", spec.idlePolicy);
        for (const auto &[key, value] : spec.params)
            print(prefix + key, value);
    }

    return out + printConfig(c.base);
}

ClusterConfig
parseClusterConfig(const std::string &text)
{
    ClusterConfig config;
    forEachConfigLine(text,
                      [&config](const std::string &key,
                                const std::string &value) {
                          setClusterConfigValue(config, key, value);
                      });
    return config;
}

} // namespace nmapsim
