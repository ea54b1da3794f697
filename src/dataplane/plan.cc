#include "dataplane/plan.hh"

#include "sim/logging.hh"

namespace nmapsim {

DataplanePlan
DataplanePlan::fromParams(const PolicyParams &params)
{
    ParamsReader r(params, "dataplane");
    DataplanePlan plan;
    const std::string mode = r.raw("dataplane.mode");
    const std::size_t modeKeys = r.present().size();
    plan.pollCores = r.getInt("dataplane.poll_cores", 1);
    plan.pollBatch = r.getInt("dataplane.poll_batch", 32);
    if (r.has("dataplane.policy"))
        plan.policy = r.raw("dataplane.policy");
    plan.sleepArmedIrq = r.getBool("dataplane.sleep_armed_irq", false);
    plan.rxPacketCycles =
        r.getDouble("dataplane.rx_packet_cycles", 1400);
    plan.txCompletionCycles =
        r.getDouble("dataplane.tx_completion_cycles", 100);
    r.rejectUnread();

    if (mode.empty() || mode == "napi")
        plan.mode = Mode::kNapi;
    else if (mode == "bypass")
        plan.mode = Mode::kBypass;
    else
        fatal("dataplane.mode must be 'napi' or 'bypass', got '" +
              mode + "'");
    if (plan.pollCores < 1)
        fatal("dataplane.poll_cores must be >= 1");
    if (plan.pollBatch < 1)
        fatal("dataplane.poll_batch must be >= 1");
    if (plan.policy.empty())
        fatal("dataplane.policy must name a registered policy");
    if (plan.rxPacketCycles <= 0)
        fatal("dataplane.rx_packet_cycles must be > 0");
    if (plan.txCompletionCycles <= 0)
        fatal("dataplane.tx_completion_cycles must be > 0");

    // The non-mode keys only steer the bypass engine; rejecting them
    // under NAPI catches configs that meant to flip the mode.
    if (!plan.bypass() && r.present().size() > modeKeys)
        fatal("'" + r.present()[modeKeys]->first +
              "' requires dataplane.mode=bypass");
    return plan;
}

} // namespace nmapsim
