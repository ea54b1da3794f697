/**
 * @file
 * Built-in dataplane sleep policies.
 *
 * `spin` is the DPDK default: the poll core never sleeps, burning a
 * full core per poll thread for the lowest possible latency. It is the
 * upper anchor of the energy-vs-latency frontier.
 *
 * `metronome` models Metronome's intermittent sleep-based packet
 * retrieval (arxiv 2103.13263): instead of busy-waiting between
 * arrivals, the poll thread sleeps for an adaptively-controlled
 * duration and harvests whatever accumulated when it wakes. The
 * controller targets a ring-occupancy setpoint — backlog above the
 * setpoint shrinks the sleep multiplicatively (catch up), backlog at
 * or below it grows the sleep (save energy), both clamped to
 * [min_sleep, max_sleep]. The paper's multi-thread variant hands out
 * "tickets" so N threads share the polling duty; with the duty rotated
 * the effective gap between polls is sleep/tickets, which is how the
 * `metronome.tickets` tunable enters the model.
 *
 * Both policies are pure functions of poll history — no RNG, no wall
 * clock — so bypass runs stay byte-reproducible.
 */

#include <algorithm>
#include <memory>

#include "dataplane/policy.hh"
#include "sim/logging.hh"
#include "sim/time.hh"

namespace nmapsim {
namespace {

/** Pure busy polling: never sleep, poll again immediately. */
class SpinPolicy : public DataplanePolicy
{
  public:
    Tick
    sleepAfterPoll(const DataplanePollStats &) override
    {
        return 0;
    }
};

std::unique_ptr<DataplanePolicy>
makeSpinPolicy(const DataplaneContext &)
{
    return std::make_unique<SpinPolicy>();
}

REGISTER_DATAPLANE_POLICY(
    "spin", &makeSpinPolicy,
    "DPDK-style pure busy poll; poll cores never sleep");

/** Metronome's adaptive intermittent sleep (arxiv 2103.13263). */
class MetronomePolicy : public DataplanePolicy
{
  public:
    MetronomePolicy(Tick min_sleep, Tick max_sleep, double setpoint,
                    double grow, double shrink, int tickets)
        : minSleep_(min_sleep), maxSleep_(max_sleep),
          setpoint_(setpoint), grow_(grow), shrink_(shrink),
          tickets_(tickets), sleep_(static_cast<double>(max_sleep))
    {
    }

    Tick
    sleepAfterPoll(const DataplanePollStats &stats) override
    {
        // Multiplicative control toward the occupancy setpoint: leftover
        // backlog means we slept too long, an under-full batch means we
        // can afford a longer nap.
        double occupancy = static_cast<double>(stats.ringOccupancy) +
                           static_cast<double>(stats.harvestedRx);
        if (occupancy > setpoint_)
            sleep_ *= shrink_;
        else
            sleep_ *= grow_;
        sleep_ = std::clamp(sleep_, static_cast<double>(minSleep_),
                            static_cast<double>(maxSleep_));
        // With N ticket-holding threads rotating the polling duty, the
        // per-thread sleep stays `sleep_` but the ring is visited every
        // sleep_/N — model the visit rate, which is what latency sees.
        return std::max<Tick>(
            1, static_cast<Tick>(sleep_) / static_cast<Tick>(tickets_));
    }

  private:
    const Tick minSleep_;
    const Tick maxSleep_;
    const double setpoint_;
    const double grow_;
    const double shrink_;
    const int tickets_;
    double sleep_;
};

std::unique_ptr<DataplanePolicy>
makeMetronomePolicy(const DataplaneContext &ctx)
{
    Tick min_sleep =
        ctx.params.getTick("metronome.min_sleep", microseconds(1));
    Tick max_sleep =
        ctx.params.getTick("metronome.max_sleep", microseconds(64));
    double setpoint = ctx.params.getDouble("metronome.setpoint", 16.0);
    double grow = ctx.params.getDouble("metronome.grow", 1.5);
    double shrink = ctx.params.getDouble("metronome.shrink", 0.5);
    int tickets = ctx.params.getInt("metronome.tickets", 1);

    if (min_sleep <= 0)
        fatal("metronome.min_sleep must be > 0");
    if (max_sleep < min_sleep)
        fatal("metronome.max_sleep must be >= metronome.min_sleep");
    if (setpoint <= 0.0)
        fatal("metronome.setpoint must be > 0");
    if (grow <= 1.0)
        fatal("metronome.grow must be > 1");
    if (shrink <= 0.0 || shrink >= 1.0)
        fatal("metronome.shrink must be in (0, 1)");
    if (tickets < 1)
        fatal("metronome.tickets must be >= 1");

    return std::make_unique<MetronomePolicy>(min_sleep, max_sleep,
                                             setpoint, grow, shrink,
                                             tickets);
}

REGISTER_DATAPLANE_POLICY(
    "metronome", &makeMetronomePolicy,
    "Metronome intermittent sleep: adaptive sleep toward a "
    "ring-occupancy setpoint (arxiv 2103.13263)");

} // namespace

/** Defined here, beside the registrars: a call forces this TU out of
 *  the static archive. */
void
ensureBuiltinDataplanePolicies()
{
}

} // namespace nmapsim
