/**
 * @file
 * Per-layer drives for the traced run.
 *
 * Each drive builds one layer's component standalone, the way the unit
 * tests do, feeds it inputs generated from the workload seed, and times
 * the call batch as one span. Inputs are generated before the span
 * opens, so the span holds only calls into the layer's public API.
 * A drive that fires events on its own EventQueue reports how many, so
 * the caller can take the event engine's cost back out and estimate
 * the layer's self time.
 */

#ifndef NMAPSIM_PERFBENCH_DRIVES_HH_
#define NMAPSIM_PERFBENCH_DRIVES_HH_

#include <cstdint>
#include <string>

#include "resilience/breaker.hh"
#include "spans.hh"

namespace perfbench {

struct DriveTiming
{
    std::uint64_t ops = 0;         //!< operations the span timed
    std::int64_t ns = 0;           //!< span duration
    std::uint64_t queueEvents = 0; //!< events the drive's own queue fired
    /** Packets harvested per poll (NAPI drive only). */
    double pktsPerPoll = 0.0;

    double
    nsPerOp() const
    {
        return ops == 0 ? 0.0
                        : static_cast<double>(ns) /
                              static_cast<double>(ops);
    }
};

/** sim: self-rescheduling events through schedule/reschedule/step;
 *  one op = one fired event. */
DriveTiming driveEventQueue(std::uint64_t seed, std::uint64_t ops,
                            SpanLog &log);

/** net: Wire::send to sink delivery; one op = one packet. */
DriveTiming driveWire(std::uint64_t seed, std::uint64_t ops,
                      SpanLog &log);

/** net: Nic::receive, popRx, transmit, consumeTx over @p queues RSS
 *  queues; one op = one Rx or Tx packet. */
DriveTiming driveNic(std::uint64_t seed, std::uint64_t ops, int queues,
                     SpanLog &log);

/** os: NapiContext poll sessions (napiSchedule, beginPoll/completePoll
 *  until napi_complete, ksoftirqd handoff); one op = one poll. */
DriveTiming driveNapi(std::uint64_t seed, std::uint64_t ops,
                      SpanLog &log);

/** cpu: DvfsActuator::requestPState through transition completion;
 *  one op = one request. */
DriveTiming driveDvfs(std::uint64_t seed, std::uint64_t ops,
                      SpanLog &log);

/** cpu: Core enterSleep (CC1/CC6) then wake; one op = one pair. */
DriveTiming driveCoreSleep(std::uint64_t seed, std::uint64_t ops,
                           SpanLog &log);

/** nmap: ModeTransitionMonitor onHardIrq plus the poll feed that
 *  follows it; one op = one hard IRQ. */
DriveTiming driveMonitor(std::uint64_t seed, std::uint64_t ops,
                         int cores, double ni_threshold, SpanLog &log);

/** cluster: DispatchPolicy::pickHost of policy @p dispatch over
 *  @p hosts hosts; one op = one pick. */
DriveTiming driveDispatch(std::uint64_t seed, std::uint64_t ops,
                          const std::string &dispatch, int hosts,
                          SpanLog &log);

/** resilience: CircuitBreaker allow plus onOutcome at advancing times;
 *  one op = one allow/outcome pair. */
DriveTiming driveBreaker(std::uint64_t seed, std::uint64_t ops,
                         const nmapsim::BreakerConfig &config,
                         SpanLog &log);

/** stats: LatencyRecorder::record, then the percentiles a run reads;
 *  one op = one sample. */
DriveTiming driveLatencyRecorder(std::uint64_t seed, std::uint64_t ops,
                                 SpanLog &log);

/** stats: EnergyMeter::setPower at advancing times; one op = one
 *  update. */
DriveTiming driveEnergyMeter(std::uint64_t seed, std::uint64_t ops,
                             SpanLog &log);

/**
 * The machine probe: fixed, seed-independent CPU-bound work that runs
 * no simulator code, timed in host ms. Its time on the reference
 * machine is kReferenceProbeMs; the ratio of the two converts a host
 * time measured next to it into reference-machine time, which factors
 * out both a slower box and a slower phase of a shared one.
 */
double machineProbeMs();

/** machineProbeMs() on the reference machine (see README.md). */
inline constexpr double kReferenceProbeMs = 32.0;

} // namespace perfbench

#endif // NMAPSIM_PERFBENCH_DRIVES_HH_
