/**
 * @file
 * Built-in admission policies.
 *
 * `none` admits everything — the explicit opt-in that turns the
 * resilience counters on without shedding anything, useful as the
 * control cell of an overload experiment.
 *
 * `queue-deadline` is a CoDel-style sojourn-time law applied at the
 * serve side of the app queue: a request is shed when queueing delay
 * has exceeded `resilience.admit_target` continuously for at least
 * `resilience.admit_interval`, and while that persists the shed rate
 * ramps with the inverse-sqrt control law so standing queues drain
 * instead of merely capping. This bounds the *age* of served work —
 * exactly what a latency-critical tier wants under retry storms,
 * where serving stale requests wastes cycles the retransmission has
 * already re-requested.
 *
 * `token-bucket` is an arrival-side rate gate: requests drain a bucket
 * refilled at `resilience.admit_rate` per second with capacity
 * `resilience.admit_burst`, so sustained overload is shed immediately
 * at ingress before it occupies queue slots.
 *
 * All three are pure functions of the deterministic packet timeline —
 * no RNG, no wall clock — so resilient runs stay byte-reproducible.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "resilience/admission.hh"

namespace nmapsim {
namespace {

/** Admit everything; counters on, shedding off. */
class AdmitAllPolicy : public AdmissionPolicy
{
  public:
    bool
    admit(Tick, std::size_t) override
    {
        return true;
    }
};

std::unique_ptr<AdmissionPolicy>
makeAdmitAllPolicy(const AdmissionContext &)
{
    return std::make_unique<AdmitAllPolicy>();
}

REGISTER_ADMISSION_POLICY(
    "none", &makeAdmitAllPolicy,
    "admit everything; enables resilience accounting without shedding");

/** CoDel-style sojourn-time shedding at the serve side of the queue. */
class QueueDeadlinePolicy : public AdmissionPolicy
{
  public:
    QueueDeadlinePolicy(Tick target, Tick interval)
        : target_(target), interval_(interval)
    {
    }

    bool
    admit(Tick, std::size_t) override
    {
        return true;
    }

    bool
    serve(Tick now, Tick enqueuedAt) override
    {
        const Tick sojourn = now - enqueuedAt;
        if (sojourn < target_) {
            // Below target: leave the shedding state entirely.
            firstAbove_ = 0;
            shedding_ = false;
            return true;
        }
        if (firstAbove_ == 0) {
            // First sighting above target: arm the interval timer.
            firstAbove_ = now + interval_;
            return true;
        }
        if (now < firstAbove_)
            return true;
        if (!shedding_) {
            shedding_ = true;
            // Resume near the previous shed rate if we left it recently
            // (CoDel's count memory), else restart gently.
            count_ = count_ > 2 ? count_ - 2 : 1;
            shedNext_ = now + controlInterval();
            return false;
        }
        if (now >= shedNext_) {
            ++count_;
            shedNext_ = now + controlInterval();
            return false;
        }
        return true;
    }

  private:
    Tick
    controlInterval() const
    {
        // Inverse-sqrt control law: successive sheds come faster until
        // the sojourn drops back under target.
        return std::max<Tick>(
            1, static_cast<Tick>(
                   static_cast<double>(interval_) /
                   std::sqrt(static_cast<double>(count_))));
    }

    const Tick target_;
    const Tick interval_;
    Tick firstAbove_ = 0;
    Tick shedNext_ = 0;
    int count_ = 0;
    bool shedding_ = false;
};

std::unique_ptr<AdmissionPolicy>
makeQueueDeadlinePolicy(const AdmissionContext &ctx)
{
    return std::make_unique<QueueDeadlinePolicy>(
        ctx.plan.admitTarget, ctx.plan.admitInterval);
}

REGISTER_ADMISSION_POLICY(
    "queue-deadline", &makeQueueDeadlinePolicy,
    "CoDel-style sojourn shedding: drop serves whose queueing delay "
    "stayed above admit_target for admit_interval");

/** Arrival-side token bucket: shed ingress beyond a sustained rate. */
class TokenBucketPolicy : public AdmissionPolicy
{
  public:
    TokenBucketPolicy(double rate, double burst)
        : rate_(rate), burst_(burst), tokens_(burst)
    {
    }

    bool
    admit(Tick now, std::size_t) override
    {
        tokens_ = std::min(
            burst_, tokens_ + static_cast<double>(now - lastRefill_) *
                                  rate_ / 1e9);
        lastRefill_ = now;
        if (tokens_ < 1.0)
            return false;
        tokens_ -= 1.0;
        return true;
    }

  private:
    const double rate_;
    const double burst_;
    double tokens_;
    Tick lastRefill_ = 0;
};

std::unique_ptr<AdmissionPolicy>
makeTokenBucketPolicy(const AdmissionContext &ctx)
{
    return std::make_unique<TokenBucketPolicy>(ctx.plan.admitRate,
                                               ctx.plan.admitBurst);
}

REGISTER_ADMISSION_POLICY(
    "token-bucket", &makeTokenBucketPolicy,
    "arrival-rate gate: admit while a bucket refilled at admit_rate "
    "req/s (capacity admit_burst) holds a token");

} // namespace

/** Defined here, beside the registrars: a call forces this TU out of
 *  the static archive. */
void
ensureBuiltinAdmissionPolicies()
{
}

} // namespace nmapsim
