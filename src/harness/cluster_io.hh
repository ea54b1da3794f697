/**
 * @file
 * Declarative ClusterConfig <-> key=value text.
 *
 * The cluster key space extends the single-host schema
 * (harness/config_io.hh): any key the cluster layer does not claim is
 * applied to ClusterConfig::base through setConfigValue(), so every
 * experiment key (`app`, `cores`, `freq_policy`, `nmap.*`, ...) works
 * unchanged. The cluster claims the keys of the field list in
 * cluster_io.cc (`hosts`, `dispatch`, `cluster.*`; README's cluster
 * key table gives their units), every `topology.*` key, and per-host
 * overrides:
 *
 *   host<i>.freq_policy         per-host frequency-policy override
 *   host<i>.idle_policy         per-host sleep-policy override
 *   host<i>.weight              per-host dispatch weight
 *   host<i>.<param>             per-host tunable overlay (any dotted
 *                               params key, e.g. host0.nmap.ni_th)
 *
 * Dispatch tunables (`dispatch.vnodes`, `dispatch.pack_limit`) travel
 * in the base params blob like any policy tunable.
 */

#ifndef NMAPSIM_HARNESS_CLUSTER_IO_HH_
#define NMAPSIM_HARNESS_CLUSTER_IO_HH_

#include <string>

#include "harness/cluster.hh"

namespace nmapsim {

/** Serialise every schema field as `key=value` lines. */
std::string printClusterConfig(const ClusterConfig &config);

/** Parse `key=value` lines onto a default config; fatal() on unknown
 *  keys or malformed values. */
ClusterConfig parseClusterConfig(const std::string &text);

/** Apply one key/value onto @p config; cluster-claimed keys are
 *  handled here, everything else lands on config.base. Returns true
 *  when the key was cluster-claimed (the CLI keys cluster mode off
 *  this). */
bool setClusterConfigValue(ClusterConfig &config, const std::string &key,
                           const std::string &value);

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_CLUSTER_IO_HH_
