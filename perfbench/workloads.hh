/**
 * @file
 * The benchmark's workloads and the one call it times.
 *
 * Each workload is a key=value config text, the same form
 * `nmapsim_run --config` reads, resolved through the repository's own
 * parsers. A run goes through the public harness entry points only
 * (Experiment::run / ClusterExperiment::run); everything the benchmark
 * reports about the simulated system comes from the result record.
 */

#ifndef NMAPSIM_PERFBENCH_WORKLOADS_HH_
#define NMAPSIM_PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "spans.hh"

namespace perfbench {

/** Whether @p name is a known workload. */
bool isWorkload(const std::string &name);

/**
 * Work counts and simulated outputs of one run, flattened from either
 * result record type. Every field is deterministic for a given
 * (workload, seed).
 */
struct RunRecord
{
    bool cluster = false;

    std::uint64_t events = 0;
    std::int64_t simTicks = 0;

    /** @name Client side */
    /**@{*/
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t shed = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t retransmits = 0;
    double availability = 0.0;
    /**@}*/

    /** @name NIC and wires. On a cluster run the record carries no
     *  harvest counts: nicRxHarvested is the hosts' NIC-accepted Rx
     *  packets and nicTxConsumed the packets the hosts sent back into
     *  the switch (responses plus east-west forwards). */
    /**@{*/
    std::uint64_t nicRxHarvested = 0;
    std::uint64_t nicTxConsumed = 0;
    std::uint64_t nicDrops = 0;
    std::uint64_t switchPortDrops = 0;
    std::uint64_t linkDownDrops = 0;
    /**@}*/

    /** @name OS, cores and DVFS (summed over hosts) */
    /**@{*/
    std::uint64_t pktsIntrMode = 0;
    std::uint64_t pktsPollMode = 0;
    std::uint64_t ksoftirqdWakes = 0;
    std::uint64_t pstateTransitions = 0;
    std::uint64_t cc6Wakes = 0;
    std::uint64_t cc1Wakes = 0;
    double busyFraction = 0.0;
    /**@}*/

    /** @name Cluster, resilience, fault */
    /**@{*/
    std::uint64_t forwards = 0; //!< switch dispatches + east-west
    std::uint64_t rerouted = 0;
    std::uint64_t ejections = 0;
    std::uint64_t breakerShortCircuits = 0;
    std::uint64_t breakerTransitions = 0;
    std::uint64_t retryBudgetExhausted = 0;
    /**@}*/

    /** @name Bypass dataplane */
    /**@{*/
    std::uint64_t pollLoops = 0;
    std::uint64_t emptyPolls = 0;
    /**@}*/

    std::int64_t p99Ticks = 0;
    double energyJoules = 0.0;

    /** The run's serialized result record (ResultWriter JSON). */
    std::string recordBytes;

    /** Host ns from config text to the returned result (config
     *  resolution, assembly, simulation, teardown). */
    std::int64_t wallNs = 0;
    /** Host ns to append and serialize the result record. */
    std::int64_t writeNs = 0;
};

/** A workload resolved for one seed. */
class Workload
{
  public:
    Workload(const std::string &name, std::uint64_t seed);

    const std::string &name() const { return name_; }

    /** The per-host config the workload resolves to (for a cluster,
     *  the base every host starts from). */
    nmapsim::ExperimentConfig base() const;

    bool cluster() const { return cluster_; }

    /**
     * Parse the config, build the rig, run it, tear it down, then
     * serialize the result record. With @p zero_length the warmup,
     * window and drain are all zero, so the run measures config
     * resolution, assembly and teardown alone. With @p spans, each
     * phase is recorded as a span under the caller's open span.
     */
    RunRecord run(bool zero_length, SpanLog *spans = nullptr) const;

  private:
    std::string name_;
    std::string text_;
    bool cluster_ = false;
};

/** Human-readable reasons @p r breaks a conservation identity; empty
 *  when every identity the record carries holds. */
std::vector<std::string> identityViolations(const RunRecord &r);

} // namespace perfbench

#endif // NMAPSIM_PERFBENCH_WORKLOADS_HH_
