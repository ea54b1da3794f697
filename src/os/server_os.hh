/**
 * @file
 * The server's operating system: one scheduler + NAPI context per core,
 * wired to the multi-queue NIC.
 *
 * ServerOs is the assembly point: it binds NIC queue i to core i (the
 * RSS arrangement of the paper's evaluation), fans NAPI events out to
 * registered observers (NMAP's monitor, trace collectors), and routes
 * received request packets to the application via the deliver callback.
 */

#ifndef NMAPSIM_OS_SERVER_OS_HH_
#define NMAPSIM_OS_SERVER_OS_HH_

#include <functional>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "net/nic.hh"
#include "os/core_sched.hh"
#include "os/cpuidle.hh"
#include "os/hooks.hh"
#include "os/napi.hh"
#include "os/os_config.hh"

namespace nmapsim {

/** OS instance managing all cores of the server. */
class ServerOs
{
  public:
    /** Request packet handed to the application on @p core. */
    using Deliver = std::function<void(int core, const Packet &)>;

    /**
     * @param cores one Core per NIC queue; borrowed, must outlive us
     * @param nic   the server NIC; its irq handler is claimed here
     */
    ServerOs(std::vector<Core *> cores, Nic &nic,
             const OsConfig &config);

    int numCores() const { return static_cast<int>(cores_.size()); }

    CoreScheduler &sched(int core) { return *scheds_[core]; }
    NapiContext &napi(int core) { return *napis_[core]; }
    const NapiContext &napi(int core) const { return *napis_[core]; }
    Core &core(int core) { return *cores_[core]; }
    const OsConfig &config() const { return config_; }

    /** Application receive path; set before traffic starts. */
    void setDeliver(Deliver deliver) { deliver_ = std::move(deliver); }

    /** Hand a request to the application on @p core directly (the
     *  bypass dataplane's receive path; NAPI goes through the per-core
     *  NapiContext instead). */
    void
    deliverToApp(int core, const Packet &pkt)
    {
        if (deliver_)
            deliver_(core, pkt);
    }

    /** Shared cpuidle governor for every core (may be null). */
    void setIdleGovernor(CpuIdleGovernor *gov);

    /** Register a NAPI observer (kept for the simulation lifetime). */
    void addObserver(NapiObserver *obs) { observers_.push_back(obs); }

    /** Enter the idle loop on every core; calls after wiring is done. */
    void start();

  private:
    std::vector<Core *> cores_;
    Nic &nic_;
    OsConfig config_;
    Deliver deliver_;
    std::vector<NapiObserver *> observers_;
    std::vector<std::unique_ptr<NapiContext>> napis_;
    std::vector<std::unique_ptr<CoreScheduler>> scheds_;
};

} // namespace nmapsim

#endif // NMAPSIM_OS_SERVER_OS_HH_
