/**
 * @file
 * Declarative dataplane modality: how packets get from the NIC rings
 * into the application.
 *
 * A DataplanePlan is parsed from the ordinary key=value config pipeline
 * (`dataplane.*` namespace in ExperimentConfig::params), validated
 * once, and consulted by the harness when assembling a rig. The default
 * plan (`mode = napi`) is the zero-config bypass: no engine is
 * constructed, the NIC interrupt path stays exactly as ServerOs wired
 * it, and the simulation is bit-for-bit the same as before the
 * dataplane subsystem existed.
 *
 * `mode = bypass` dedicates the first `poll_cores` cores to a DPDK-style
 * PMD loop: interrupts are masked, each poll core harvests its share of
 * the NIC queues directly with a per-poll batch limit, and a registered
 * dataplane policy (see dataplane/policy.hh) decides after every poll
 * whether to keep spinning or sleep — optionally with the queue
 * interrupts re-armed so a packet arrival cuts the sleep short.
 */

#ifndef NMAPSIM_DATAPLANE_PLAN_HH_
#define NMAPSIM_DATAPLANE_PLAN_HH_

#include <string>

#include "harness/policy_params.hh"

namespace nmapsim {

/** Validated dataplane configuration (see `dataplane.*` config keys). */
struct DataplanePlan
{
    enum class Mode
    {
        kNapi,   //!< kernel interrupt/NAPI path (the default)
        kBypass, //!< dedicated busy-poll cores, no interrupts
    };

    Mode mode = Mode::kNapi;

    /** Dedicated poll cores (ids [0, pollCores)); bypass only. Must
     *  leave at least one worker core — checked where the core count
     *  is known (Experiment and BypassEngine construction). */
    int pollCores = 1;

    /** Max Rx packets harvested per queue per poll iteration. */
    int pollBatch = 32;

    /** Sleep policy consulted after every poll, by
     *  DataplanePolicyRegistry name ("spin", "metronome"). */
    std::string policy = "spin";

    /** Re-arm the queue interrupts while a poll core sleeps, so an
     *  arrival wakes it early instead of waiting out the sleep. */
    bool sleepArmedIrq = false;

    /** Per-Rx-packet poll-core cost in cycles. The kernel path charges
     *  OsConfig::rxPacketCycles (5600: driver + IP + TCP + socket); a
     *  user-space stack over mapped rings does the same work in a
     *  fraction of that — the cycle savings kernel-bypass papers
     *  measure ("Enabling Kernel Bypass Networking on gem5"). */
    double rxPacketCycles = 1400;

    /** Per-Tx-completion poll-core cost in cycles (kernel: 250). */
    double txCompletionCycles = 100;

    bool bypass() const { return mode == Mode::kBypass; }

    /**
     * Build a plan from the `dataplane.*` keys in @p params. Unknown
     * `dataplane.*` keys and out-of-range values are fatal (config
     * errors); non-dataplane keys are ignored. A params blob without
     * dataplane keys yields the default NAPI plan.
     */
    static DataplanePlan fromParams(const PolicyParams &params);
};

} // namespace nmapsim

#endif // NMAPSIM_DATAPLANE_PLAN_HH_
