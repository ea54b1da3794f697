/**
 * @file
 * The paper's server, assembled in one place.
 *
 * A ServerRig is one complete server host: the CPU profile's cores,
 * the multi-queue NIC with one RSS queue per core, the OS network
 * stack, the sleep policy with its SwitchableIdleGovernor wrapper, the
 * frequency policy resolved by name through the FreqPolicyRegistry, a
 * ksoftirqd wake counter, package energy metering and — under
 * `dataplane.mode=bypass` — the busy-poll BypassEngine. Experiment
 * (one rig behind two client wires), ClusterExperiment (one rig per
 * switch port) and ColocationExperiment (one rig shared by several
 * tenants) all build their server through it and read it back through
 * the one collect().
 *
 * What the rig does not own is what differs between those callers:
 * wires to the clients or the switch, the server application(s) and
 * the clients or feedback clients.
 *
 * Construction runs in two phases so every caller keeps its Rng fork
 * order. The constructor builds the hardware and the OS, and the cores
 * take the rig's stream first. The caller then adds its apps and
 * clients, forking rng() for each. attachPolicies() finally resolves
 * the policies and builds the energy meters — policies first, because
 * the policies and PackagePower both subscribe to the cores' frequency
 * changes.
 */

#ifndef NMAPSIM_HARNESS_SERVER_RIG_HH_
#define NMAPSIM_HARNESS_SERVER_RIG_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cpu/core.hh"
#include "cpu/package_power.hh"
#include "governors/switchable_idle.hh"
#include "harness/experiment.hh"
#include "harness/policy_registry.hh"
#include "net/nic.hh"
#include "os/server_os.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/energy_meter.hh"

namespace nmapsim {

class BypassEngine;
class Client;

/** One server host: hardware, OS, policies, meters, dataplane. */
class ServerRig
{
  public:
    /** Offline NMAP threshold profiling (NI_TH, CU_TH). */
    using ProfileFn = std::function<std::pair<double, double>()>;

    /**
     * Phase 1: cores, NIC and OS.
     *
     * @param config the resolved host configuration; borrowed, must
     *               outlive the rig (the policies keep references into
     *               its app profile and params)
     * @param rng    the host's random stream; the cores fork it first
     */
    ServerRig(EventQueue &eq, const ExperimentConfig &config, Rng rng);
    ~ServerRig();

    ServerRig(const ServerRig &) = delete;
    ServerRig &operator=(const ServerRig &) = delete;

    /**
     * Phase 2, after the caller's apps and clients exist: the sleep and
     * frequency policies, the ksoftirqd counter, package energy and the
     * bypass engine (which forks nothing and schedules nothing).
     *
     * @param feedback client latency feed (Parties), or null
     * @param profile  offline threshold profiling, or empty when there
     *                 is no single application to profile
     */
    void attachPolicies(Client *feedback, ProfileFn profile);

    /** Start the OS idle loops, the poll threads and the policy. */
    void start();

    /** Begin the measurement window: arm the energy meters. */
    void beginMeasurement(Tick now);

    /**
     * Server-side results over [beginMeasurement, @p end]: package
     * energy and power, NIC counters, NAPI mode, DVFS and C-state
     * counters summed over the cores, bypass stats and the frequency
     * policy's finalize outputs. Client-side fields keep their
     * defaults; the caller fills them.
     */
    ExperimentResult collect(Tick end) const;

    Rng &rng() { return rng_; }
    Nic &nic() { return nic_; }
    const Nic &nic() const { return nic_; }
    ServerOs &os() { return os_; }
    Core &core(int i) { return *cores_[static_cast<std::size_t>(i)]; }
    /** True when the host runs the bypass dataplane. */
    bool bypass() const { return bypass_ != nullptr; }

  private:
    /** Counts ksoftirqd wake-ups across the host's cores. */
    class KsoftirqdCounter : public NapiObserver
    {
      public:
        void onKsoftirqdWake(int) override { ++wakes_; }
        std::uint64_t wakes() const { return wakes_; }

      private:
        std::uint64_t wakes_ = 0;
    };

    EventQueue &eq_;
    const ExperimentConfig &config_;
    Rng rng_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Core *> corePtrs_;
    Nic nic_;
    ServerOs os_;
    KsoftirqdCounter ksoft_;

    std::unique_ptr<CpuIdleGovernor> idle_;
    std::optional<SwitchableIdleGovernor> switchable_;
    FreqPolicyInstance policy_;

    std::optional<PackagePower> uncore_;
    PackageEnergyMeter package_;
    /** Only constructed for dataplane.mode=bypass. */
    std::unique_ptr<BypassEngine> bypass_;
    Tick measureStart_ = 0;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_SERVER_RIG_HH_
