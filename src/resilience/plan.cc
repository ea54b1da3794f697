#include "resilience/plan.hh"

#include "resilience/admission.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

void
validate(const ResiliencePlan &plan)
{
    if (plan.admission == "queue-deadline") {
        if (plan.admitTarget <= 0)
            fatal("resilience.admit_target must be positive for "
                  "queue-deadline admission");
        if (plan.admitInterval <= 0)
            fatal("resilience.admit_interval must be positive for "
                  "queue-deadline admission");
    }
    if (plan.admission == "token-bucket") {
        if (plan.admitRate <= 0.0)
            fatal("resilience.admit_rate must be positive for "
                  "token-bucket admission");
        if (plan.admitBurst < 1.0)
            fatal("resilience.admit_burst must be >= 1");
    }
    if (plan.admitTarget < 0 || plan.admitInterval < 0)
        fatal("resilience.admit_target/admit_interval must be >= 0");

    if (plan.retryBudget < 0.0 || plan.retryBudget > 1.0)
        fatal("resilience.retry_budget must be in [0, 1]");
    if (plan.wantsRetryBudget()) {
        if (plan.retryMin < 0)
            fatal("resilience.retry_min must be >= 0");
        if (plan.retryCap < 1.0)
            fatal("resilience.retry_cap must be >= 1");
    }

    if (plan.breakerWindow < 0)
        fatal("resilience.breaker_window must be >= 0");
    if (plan.wantsBreakers()) {
        if (plan.breakerThreshold <= 0.0 || plan.breakerThreshold > 1.0)
            fatal("resilience.breaker_threshold must be in (0, 1]");
        if (plan.breakerMinVolume < 1)
            fatal("resilience.breaker_min_volume must be >= 1");
        if (plan.breakerOpen <= 0)
            fatal("resilience.breaker_open must be positive");
        if (plan.breakerTrials < 1)
            fatal("resilience.breaker_trials must be >= 1");
    }

    if (plan.deadline < 0)
        fatal("resilience.deadline must be >= 0");
}

} // namespace

bool
ResiliencePlan::enabled() const
{
    return wantsAdmission() || wantsRetryBudget() || wantsBreakers() ||
           wantsDeadline();
}

ResiliencePlan
ResiliencePlan::fromParams(const PolicyParams &params)
{
    ParamsReader r(params, "resilience");
    ResiliencePlan plan;
    // The registered spelling: validation below and make() must agree
    // on which policy a case-insensitive name means.
    ensureBuiltinAdmissionPolicies();
    plan.admission = AdmissionPolicyRegistry::instance().canonical(
        r.raw("resilience.admission"));
    // Counting present keys around each group of reads tells whether
    // any knob of the group was given.
    std::size_t before = r.present().size();
    plan.admitTarget =
        r.getTick("resilience.admit_target", milliseconds(1));
    plan.admitInterval =
        r.getTick("resilience.admit_interval", milliseconds(10));
    plan.admitRate = r.getDouble("resilience.admit_rate", 0.0);
    plan.admitBurst = r.getDouble("resilience.admit_burst", 16.0);
    const bool admitKnobs = r.present().size() > before;
    plan.retryBudget = r.getDouble("resilience.retry_budget", 0.0);
    before = r.present().size();
    plan.retryMin = r.getInt("resilience.retry_min", 10);
    plan.retryCap = r.getDouble("resilience.retry_cap", 100.0);
    const bool retryKnobs = r.present().size() > before;
    plan.breakerWindow = r.getTick("resilience.breaker_window", 0);
    before = r.present().size();
    plan.breakerThreshold =
        r.getDouble("resilience.breaker_threshold", 0.5);
    plan.breakerMinVolume =
        r.getInt("resilience.breaker_min_volume", 10);
    plan.breakerOpen =
        r.getTick("resilience.breaker_open", plan.breakerWindow);
    plan.breakerTrials = r.getInt("resilience.breaker_trials", 3);
    const bool breakerKnobs = r.present().size() > before;
    plan.deadline = r.getTick("resilience.deadline", 0);
    r.rejectUnread();

    if (!plan.wantsAdmission() && admitKnobs)
        fatal("resilience.admit_* keys require resilience.admission");
    if (!plan.wantsRetryBudget() && retryKnobs)
        fatal("resilience.retry_min/retry_cap require "
              "resilience.retry_budget");
    if (!plan.wantsBreakers() && breakerKnobs)
        fatal("resilience.breaker_* keys require "
              "resilience.breaker_window");
    validate(plan);
    return plan;
}

} // namespace nmapsim
