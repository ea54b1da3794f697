/**
 * @file
 * Run result -> ResultWriter record mapping, for single-host, cluster
 * and colocation runs alike.
 *
 * One flat record per run: the config dimensions that identify the
 * point (app, load, policies, cores, seed, ...) followed by every
 * scalar metric of the result. All harness/bench JSON and CSV output
 * goes through these functions, and each column run they share
 * (latency summary, server counters, fault counters, resilience
 * counters, bypass counters) is written by one helper, so field names and order stay
 * consistent across the CLI, the benches and the test suite.
 * Durations are integer nanoseconds. Traces and CDFs are not
 * serialised.
 */

#ifndef NMAPSIM_HARNESS_RESULT_IO_HH_
#define NMAPSIM_HARNESS_RESULT_IO_HH_

#include "harness/cluster.hh"
#include "harness/colocation.hh"
#include "harness/experiment.hh"
#include "stats/result_writer.hh"

namespace nmapsim {

/** Append one record for (config, result) to @p writer. */
ResultWriter::Record &appendResultRecord(ResultWriter &writer,
                                         const ExperimentConfig &config,
                                         const ExperimentResult &result);

/** Append one cluster-level record (dims, aggregates and a per-host
 *  summary in host<i>_-prefixed columns) for (config, result). */
ResultWriter::Record &
appendClusterResultRecord(ResultWriter &writer,
                          const ClusterConfig &config,
                          const ClusterResult &result);

/** Append one colocation record: the config dimensions, the shared
 *  server's columns under the single-host names, the tenant count, then
 *  each tenant's workload and client columns, tenant<i>_-prefixed. */
ResultWriter::Record &
appendColocationResultRecord(ResultWriter &writer,
                             const ColocationConfig &config,
                             const ColocationResult &result);

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_RESULT_IO_HH_
