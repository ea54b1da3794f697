/**
 * @file
 * In-memory span log for the traced run.
 *
 * A span is one timed call batch the benchmark makes into a layer's
 * public API: name, start, end and the span that was open when it
 * began. Spans stay in memory and are written out once, as Chrome
 * Trace Event JSON (opens in Perfetto or chrome://tracing), when the
 * benchmark ends. Nothing here runs in an untraced run.
 */

#ifndef NMAPSIM_PERFBENCH_SPANS_HH_
#define NMAPSIM_PERFBENCH_SPANS_HH_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Host time in nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; //!< index into SpanLog::spans(); -1 = root
};

class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its id. */
    int
    open(const std::string &name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, nowNs(), 0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    /** Close the innermost open span; returns its duration in ns. */
    std::int64_t
    close()
    {
        Span &s = spans_[static_cast<std::size_t>(stack_.back())];
        stack_.pop_back();
        s.endNs = nowNs();
        return s.endNs - s.startNs;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span for its scope when given a log; a no-op otherwise. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name) : log_(log)
    {
        if (log_)
            log_->open(name);
    }
    ~SpanScope()
    {
        if (log_)
            log_->close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
};

} // namespace perfbench

#endif // NMAPSIM_PERFBENCH_SPANS_HH_
