#include "harness/server_rig.hh"

#include "cpu/cpu_profile.hh"
#include "dataplane/bypass.hh"
#include "dataplane/plan.hh"
#include "sim/logging.hh"

namespace nmapsim {

namespace {

std::vector<std::unique_ptr<Core>>
buildCores(EventQueue &eq, const ExperimentConfig &config, Rng &rng)
{
    if (config.numCores < 1)
        fatal("ServerRig requires at least one core");
    const CpuProfile &profile = CpuProfile::byName(config.cpuProfile);
    std::vector<std::unique_ptr<Core>> cores;
    for (int i = 0; i < config.numCores; ++i)
        cores.push_back(std::make_unique<Core>(i, eq, profile, rng,
                                               config.app.cacheTouch));
    return cores;
}

std::vector<Core *>
pointers(const std::vector<std::unique_ptr<Core>> &cores)
{
    std::vector<Core *> out;
    for (const std::unique_ptr<Core> &core : cores)
        out.push_back(core.get());
    return out;
}

/** One RSS queue per core. */
NicConfig
rssNic(const ExperimentConfig &config)
{
    NicConfig nic = config.nic;
    nic.numQueues = config.numCores;
    return nic;
}

} // namespace

ServerRig::ServerRig(EventQueue &eq, const ExperimentConfig &config,
                     Rng rng)
    : eq_(eq), config_(config), rng_(std::move(rng)),
      cores_(buildCores(eq, config, rng_)), corePtrs_(pointers(cores_)),
      nic_(eq, rssNic(config)), os_(corePtrs_, nic_, config.os)
{
}

ServerRig::~ServerRig() = default;

void
ServerRig::attachPolicies(Client *feedback, ProfileFn profile)
{
    IdleContext idle_ctx{corePtrs_.front()->profile(), config_.numCores,
                         config_.params};
    idle_ = IdlePolicyRegistry::instance().make(config_.idlePolicy,
                                                idle_ctx);
    switchable_.emplace(*idle_);

    PolicyContext policy_ctx{eq_,
                             corePtrs_,
                             nic_,
                             os_,
                             config_.app,
                             rng_,
                             config_.gov,
                             config_.params,
                             feedback,
                             std::move(profile),
                             &*switchable_,
                             /*switchableRequested_=*/false};
    policy_ = FreqPolicyRegistry::instance().make(config_.freqPolicy,
                                                  policy_ctx);
    os_.setIdleGovernor(policy_ctx.switchableRequested()
                            ? static_cast<CpuIdleGovernor *>(
                                  &*switchable_)
                            : idle_.get());
    os_.addObserver(&ksoft_);

    uncore_.emplace(eq_, corePtrs_);
    package_.addMeter(&uncore_->meter());
    for (Core *core : corePtrs_)
        package_.addMeter(&core->meter());

    // The default NAPI plan constructs nothing. A bypass host
    // repurposes its first poll_cores cores as PMD pollers; the engine
    // forks no random stream, so every other stream is untouched.
    const DataplanePlan dplan = DataplanePlan::fromParams(config_.params);
    if (dplan.bypass())
        bypass_ = std::make_unique<BypassEngine>(os_, nic_, dplan,
                                                 config_.params);
}

void
ServerRig::start()
{
    os_.start();
    if (bypass_)
        bypass_->start();
    policy_.governor->start();
}

void
ServerRig::beginMeasurement(Tick now)
{
    measureStart_ = now;
    package_.startMeasurement(now);
    if (bypass_)
        bypass_->startMeasurement(now);
}

ExperimentResult
ServerRig::collect(Tick end) const
{
    ExperimentResult r;
    r.energyJoules = package_.energyJoules(end);
    r.avgPowerWatts = r.energyJoules / toSeconds(end - measureStart_);

    r.nicDrops = nic_.packetsDropped();
    r.nicRxHarvested = nic_.rxHarvested();
    r.nicTxConsumed = nic_.txConsumed();
    r.ksoftirqdWakes = ksoft_.wakes();
    for (int i = 0; i < config_.numCores; ++i) {
        Core *core = corePtrs_[static_cast<std::size_t>(i)];
        r.pktsIntrMode += os_.napi(i).pktsInterruptMode();
        r.pktsPollMode += os_.napi(i).pktsPollingMode();
        r.pstateTransitions += core->dvfs().numTransitions();
        r.cc6Wakes += core->cstates().wakeCount(CState::kC6);
        r.cc1Wakes += core->cstates().wakeCount(CState::kC1);
        r.busyFraction += static_cast<double>(core->busyTime()) /
                          static_cast<double>(end) /
                          static_cast<double>(config_.numCores);
    }

    if (bypass_) {
        // Bypass harvests are polling-mode work by definition; the NAPI
        // contexts stayed dormant, so pktsIntrMode is zero and the
        // NAPI conservation identity (intr + poll == rx harvested + tx
        // consumed) carries over unchanged.
        const BypassEngine::Stats dp = bypass_->stats();
        r.pktsPollMode += dp.pktsHarvested;
        r.bypassPollLoops = dp.pollLoops;
        r.bypassEmptyPolls = dp.emptyPolls;
        r.bypassSleeps = dp.sleeps;
        r.bypassSleepResidency = dp.sleepResidency;
        r.bypassWastedPollEnergy = bypass_->wastedPollEnergyJoules(end);
    }

    // Policy-specific outputs (e.g. the thresholds NMAP resolved).
    if (policy_.finalize)
        policy_.finalize(r);
    return r;
}

} // namespace nmapsim
