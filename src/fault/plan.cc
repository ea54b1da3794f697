#include "fault/plan.hh"

#include <charconv>
#include <string>
#include <system_error>

#include "sim/logging.hh"

namespace nmapsim {
namespace {

void
validate(const FaultPlan &plan)
{
    if (plan.wireLoss < 0.0 || plan.wireLoss >= 1.0)
        fatal("fault.wire_loss must be in [0, 1)");
    if (plan.wireCorrupt < 0.0 || plan.wireCorrupt >= 1.0)
        fatal("fault.wire_corrupt must be in [0, 1)");
    if (plan.wireLoss + plan.wireCorrupt >= 1.0)
        fatal("fault.wire_loss + fault.wire_corrupt must stay below 1");

    if (plan.flapCycles < 0)
        fatal("fault.flap_cycles must be >= 0");
    if (plan.flapCycles > 0) {
        if (plan.flapDown <= 0)
            fatal("fault.flap_down must be positive when flapping");
        if (plan.flapCycles > 1 && plan.flapPeriod <= plan.flapDown)
            fatal("fault.flap_period must exceed fault.flap_down");
    }
    if (plan.flapHost < -1)
        fatal("fault.flap_host must be -1 (all hosts) or a host id");

    if (plan.ringSize > 0 && plan.ringRestoreAt != 0 &&
        plan.ringRestoreAt <= plan.ringDegradeAt) {
        fatal("fault.ring_restore_at must come after "
              "fault.ring_degrade_at");
    }

    for (int host : plan.crashHosts)
        if (host < 0)
            fatal("fault.crash_host entries must be host ids (>= 0)");
    if (!plan.crashHosts.empty() && plan.recoverAt != 0 &&
        plan.recoverAt <= plan.crashAt) {
        fatal("fault.recover_at must come after fault.crash_at");
    }
}

} // namespace

bool
FaultPlan::enabled() const
{
    return wantsLoss() || wantsFlap() || wantsRingDegrade() ||
           wantsCrash();
}

FaultPlan
FaultPlan::fromParams(const PolicyParams &params)
{
    ParamsReader r(params, "fault");
    FaultPlan plan;
    plan.wireLoss = r.getDouble("fault.wire_loss", 0.0);
    plan.wireCorrupt = r.getDouble("fault.wire_corrupt", 0.0);
    plan.flapStart = r.getTick("fault.flap_start", 0);
    plan.flapDown = r.getTick("fault.flap_down", 0);
    plan.flapPeriod = r.getTick("fault.flap_period", 0);
    plan.flapCycles =
        r.getInt("fault.flap_cycles", plan.flapDown > 0 ? 1 : 0);
    plan.flapHost = r.getInt("fault.flap_host", -1);
    plan.ringDegradeAt = r.getTick("fault.ring_degrade_at", 0);
    const int ringSlots = r.getInt("fault.ring_size", 0);
    plan.ringRestoreAt = r.getTick("fault.ring_restore_at", 0);
    const std::string crashHosts = r.raw("fault.crash_host");
    plan.crashAt = r.getTick("fault.crash_at", 0);
    plan.recoverAt = r.getTick("fault.recover_at", 0);
    r.rejectUnread();

    if (ringSlots < 0)
        fatal("fault.ring_size must be >= 0");
    plan.ringSize = static_cast<std::size_t>(ringSlots);
    // fault.crash_host: a single host id, a comma-separated list of
    // ids (all crash and recover together), or -1 for none.
    std::string rest = crashHosts == "-1" ? std::string() : crashHosts;
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string tok = rest.substr(0, comma);
        rest = comma == std::string::npos ? std::string()
                                          : rest.substr(comma + 1);
        int host = -1;
        const char *b = tok.data();
        const char *e = b + tok.size();
        const auto res = std::from_chars(b, e, host);
        if (tok.empty() || res.ec != std::errc() || res.ptr != e)
            fatal("fault.crash_host: bad host id '" + tok + "'");
        if (host < 0)
            fatal("fault.crash_host entries must be host ids "
                  "(>= 0), or a single -1 for none");
        plan.crashHosts.push_back(host);
    }
    if (!plan.crashHosts.empty() && plan.crashAt == 0)
        fatal("fault.crash_host requires fault.crash_at");
    validate(plan);
    return plan;
}

} // namespace nmapsim
