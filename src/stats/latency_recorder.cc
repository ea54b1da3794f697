#include "stats/latency_recorder.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

#include "sim/logging.hh"

namespace nmapsim {

namespace {

/**
 * Histogram buckets per selection pass: 2^bits, with bits derived from
 * the number of samples in the range (one bucket per two to four
 * samples) so a small recorder gets a small histogram.
 */
constexpr int kMinBucketBits = 4;
constexpr int kMaxBucketBits = 16;

/**
 * A wanted bucket holding more than 1/kRefineShare of its range's
 * samples (and more than kMinRefine) is refined by a histogram of its
 * own instead of being copied out and sorted.
 */
constexpr std::size_t kRefineShare = 16;
constexpr std::size_t kMinRefine = 64;

/** Histogram slot marking a bucket that holds no wanted rank. */
constexpr std::uint32_t kSkip = std::numeric_limits<std::uint32_t>::max();

/** @p v - @p lo in unsigned arithmetic, so any pair of Ticks works. */
std::uint64_t
above(Tick v, Tick lo)
{
    return static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(lo);
}

/**
 * Exact order statistics of a sample set's latencies without sorting
 * it. One histogram pass over the samples locates the bucket holding
 * each wanted rank; one more pass copies out the samples of just those
 * buckets, which are then sorted. The samples are never reordered.
 */
class RankSelector
{
  public:
    explicit RankSelector(const std::vector<LatencySample> &samples)
        : samples_(samples)
    {
    }

    /**
     * Set out[i] to the latency at rank ranks[i] (0-based, ascending
     * latency) for i < @p m. The ranks ascend strictly and all lie
     * among the @p count samples with latency in [lo, hi]; @p below
     * samples lie under @p lo.
     */
    void select(Tick lo, Tick hi, std::size_t below, std::size_t count,
                const std::size_t *ranks, Tick *out, std::size_t m);

  private:
    /** A bucket holding wanted ranks ranks[first, last). */
    struct Part
    {
        std::size_t bucket; //!< histogram index
        std::size_t below;  //!< samples under the bucket
        std::size_t count;  //!< samples in the bucket
        std::size_t first;
        std::size_t last;
    };

    const std::vector<LatencySample> &samples_;
    std::vector<std::uint32_t> hist_;
    std::vector<Tick> gathered_;
};

void
RankSelector::select(Tick lo, Tick hi, std::size_t below,
                     std::size_t count, const std::size_t *ranks, Tick *out,
                     std::size_t m)
{
    if (lo == hi) {
        std::fill(out, out + m, lo);
        return;
    }
    const std::uint64_t span = above(hi, lo);
    const int bits = std::clamp(static_cast<int>(std::bit_width(count)) - 2,
                                kMinBucketBits, kMaxBucketBits);
    const int shift =
        std::max(static_cast<int>(std::bit_width(span)) - bits, 0);
    hist_.assign(static_cast<std::size_t>(span >> shift) + 1, 0);
    for (const LatencySample &s : samples_) {
        const std::uint64_t off = above(s.latency, lo);
        if (off <= span)
            ++hist_[off >> shift];
    }

    // Hand each wanted rank to the bucket holding it. A one-tick
    // bucket answers directly (its values are all equal); a small one
    // is gathered and sorted below; a large one is refined by its own
    // histogram, so a dense bucket (everything but a far outlier, say)
    // is never copied out whole.
    const std::size_t cap = std::max(kMinRefine, count / kRefineShare);
    std::vector<Part> gather;
    std::vector<Part> refine;
    std::size_t cum = below;
    for (std::size_t k = 0, i = 0; i < m; ++k) {
        const std::size_t n = hist_[k];
        std::size_t j = i;
        while (j < m && ranks[j] < cum + n)
            ++j;
        if (j > i) {
            const Part part{k, cum, n, i, j};
            if (shift == 0)
                std::fill(out + i, out + j,
                          static_cast<Tick>(static_cast<std::uint64_t>(lo) +
                                            k));
            else if (n <= cap)
                gather.push_back(part);
            else
                refine.push_back(part);
            i = j;
        }
        cum += n;
    }

    if (!gather.empty()) {
        // Reuse the histogram as per-bucket write cursors into
        // gathered_, laid out bucket after bucket.
        std::fill(hist_.begin(), hist_.end(), kSkip);
        std::size_t total = 0;
        for (const Part &p : gather) {
            hist_[p.bucket] = static_cast<std::uint32_t>(total);
            total += p.count;
        }
        gathered_.resize(total);
        for (const LatencySample &s : samples_) {
            const std::uint64_t off = above(s.latency, lo);
            if (off > span)
                continue;
            std::uint32_t &slot = hist_[off >> shift];
            if (slot != kSkip)
                gathered_[slot++] = s.latency;
        }
        auto bucket = gathered_.begin();
        for (const Part &p : gather) {
            std::sort(bucket, bucket + static_cast<std::ptrdiff_t>(p.count));
            for (std::size_t t = p.first; t < p.last; ++t)
                out[t] = bucket[static_cast<std::ptrdiff_t>(ranks[t] -
                                                            p.below)];
            bucket += static_cast<std::ptrdiff_t>(p.count);
        }
    }

    for (const Part &p : refine) {
        const std::uint64_t start = static_cast<std::uint64_t>(p.bucket)
                                    << shift;
        const std::uint64_t width =
            std::min(span - start, (std::uint64_t{1} << shift) - 1);
        const Tick sub_lo =
            static_cast<Tick>(static_cast<std::uint64_t>(lo) + start);
        select(sub_lo,
               static_cast<Tick>(static_cast<std::uint64_t>(sub_lo) + width),
               p.below, p.count, ranks + p.first, out + p.first,
               p.last - p.first);
    }
}

/** Latencies at the @p m strictly ascending @p ranks of @p samples. */
void
selectRanks(const std::vector<LatencySample> &samples,
            const std::size_t *ranks, Tick *out, std::size_t m)
{
    // Histogram slots hold sample offsets and kSkip.
    if (samples.size() >= kSkip)
        panic("LatencyRecorder: too many samples to rank");
    Tick lo = samples.front().latency;
    Tick hi = lo;
    for (const LatencySample &s : samples) {
        lo = std::min(lo, s.latency);
        hi = std::max(hi, s.latency);
    }
    RankSelector(samples).select(lo, hi, 0, samples.size(), ranks, out, m);
}

} // namespace

Tick
LatencyRecorder::percentile(double p) const
{
    if (samples_.empty())
        return 0;
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    const std::size_t ranks[] = {lo, hi};
    Tick at[2];
    selectRanks(samples_, ranks, at, hi > lo ? 2 : 1);
    if (hi == lo)
        at[1] = at[0];
    double v = static_cast<double>(at[0]) * (1.0 - frac) +
               static_cast<double>(at[1]) * frac;
    return static_cast<Tick>(std::llround(v));
}

double
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return 0.0;
    // An integer sum is exact in any order, so the mean does not
    // depend on the order the samples were recorded or merged in.
    std::uint64_t sum = 0;
    for (const auto &s : samples_)
        sum += static_cast<std::uint64_t>(s.latency);
    return static_cast<double>(static_cast<Tick>(sum)) /
           static_cast<double>(samples_.size());
}

Tick
LatencyRecorder::max() const
{
    Tick m = 0;
    for (const auto &s : samples_)
        m = std::max(m, s.latency);
    return m;
}

double
LatencyRecorder::fractionAbove(Tick slo) const
{
    if (samples_.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &s : samples_)
        if (s.latency > slo)
            ++n;
    return static_cast<double>(n) / static_cast<double>(samples_.size());
}

std::vector<std::pair<Tick, double>>
LatencyRecorder::cdf(std::size_t points) const
{
    std::vector<std::pair<Tick, double>> out;
    if (samples_.empty() || points == 0)
        return out;
    std::vector<std::size_t> idx(points);
    for (std::size_t i = 0; i < points; ++i) {
        double q = static_cast<double>(i + 1) / static_cast<double>(points);
        idx[i] = std::min(
            samples_.size() - 1,
            static_cast<std::size_t>(q *
                                     static_cast<double>(samples_.size())));
    }
    // idx never decreases; select each distinct rank once.
    std::vector<std::size_t> ranks;
    std::unique_copy(idx.begin(), idx.end(), std::back_inserter(ranks));
    std::vector<Tick> at(ranks.size());
    selectRanks(samples_, ranks.data(), at.data(), ranks.size());
    out.reserve(points);
    for (std::size_t i = 0, r = 0; i < points; ++i) {
        while (ranks[r] != idx[i])
            ++r;
        out.emplace_back(at[r], static_cast<double>(i + 1) /
                                    static_cast<double>(points));
    }
    return out;
}

std::vector<LatencySample>
LatencyRecorder::trace() const
{
    auto by_completion = [](const LatencySample &a, const LatencySample &b) {
        return a.completionTime < b.completionTime;
    };
    std::vector<LatencySample> t(samples_);
    if (!std::is_sorted(t.begin(), t.end(), by_completion))
        std::stable_sort(t.begin(), t.end(), by_completion);
    return t;
}

void
LatencyRecorder::discardBefore(Tick cutoff)
{
    samples_.erase(std::remove_if(samples_.begin(), samples_.end(),
                                  [cutoff](const LatencySample &s) {
                                      return s.completionTime < cutoff;
                                  }),
                   samples_.end());
}

} // namespace nmapsim
