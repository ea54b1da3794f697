/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue orders Event objects by (tick, priority, insertion
 * sequence) and processes them one at a time. Components own their events
 * (usually as data members) and schedule/deschedule them on the queue;
 * descheduling is O(1) via lazy invalidation tokens, which keeps the hot
 * reschedule-heavy paths (CPU slice preemption, interrupt moderation)
 * cheap.
 *
 * Internally the queue is a calendar queue (a timing wheel with an
 * overflow heap), not a binary heap: the wheel covers a sliding window
 * of 2^8 buckets of 2^9 ticks each (~131 us of 512 ns buckets), events
 * beyond the window wait in a min-heap and are pulled in when the wheel
 * runs dry. Near-term scheduling — the simulator's overwhelmingly common
 * case — is O(1) bucket insertion plus a small per-bucket sort at
 * consumption time, instead of an O(log n) sift over every pending
 * event. The ordering contract is identical to the old heap and is
 * pinned by tests/event_queue_diff_test.cc, which drives this queue and
 * a reference heap implementation through randomized schedules and
 * demands bit-identical firing order (see DESIGN.md).
 */

#ifndef NMAPSIM_SIM_EVENT_QUEUE_HH_
#define NMAPSIM_SIM_EVENT_QUEUE_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hh"

namespace nmapsim {

class EventQueue;

/**
 * Base class for all simulation events.
 *
 * An event may be scheduled on at most one queue at a time. Lifetime is
 * managed by the owning component; the queue never deletes events.
 */
class Event
{
  public:
    /** Lower value runs first among events scheduled for the same tick. */
    enum Priority
    {
        kHighPriority = 0,
        kDefaultPriority = 50,
        kLowPriority = 100,
    };

    explicit Event(int priority = kDefaultPriority);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when the event fires. */
    virtual void process() = 0;

    /** Human-readable identifier for tracing. */
    virtual const char *name() const { return "event"; }

    /** True if currently pending on a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will fire; only valid when scheduled. */
    Tick when() const { return when_; }

    int priority() const { return priority_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    /** Sequence number of the live calendar entry; doubles as the
     *  stale-detection token (each schedule() gets a fresh one). */
    std::uint64_t seq_ = 0;
    int priority_;
    bool scheduled_ = false;
};

/**
 * Event whose action is a std::function, for components that do not want
 * a named Event subclass per callback.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback, const char *name,
                         int priority = kDefaultPriority);

    void process() override { callback_(); }
    const char *name() const override { return name_; }

  private:
    std::function<void()> callback_;
    const char *name_;
};

/**
 * Event bound to a member function at compile time. Fires through one
 * virtual dispatch straight into (usually inlined) @p Method — no
 * std::function indirection or closure storage. Use for events that
 * fire millions of times per run (wire delivery, scheduler slices);
 * EventFunctionWrapper remains the right tool everywhere else.
 */
template <typename T, void (T::*Method)()>
class MemberEvent : public Event
{
  public:
    MemberEvent(T *obj, const char *name,
                int priority = kDefaultPriority)
        : Event(priority), obj_(obj), name_(name)
    {
    }

    void process() override { (obj_->*Method)(); }
    const char *name() const override { return name_; }

  private:
    T *obj_;
    const char *name_;
};

/** MemberEvent variant carrying one int argument (e.g. a queue index). */
template <typename T, void (T::*Method)(int)>
class IndexedMemberEvent : public Event
{
  public:
    IndexedMemberEvent(T *obj, int arg, const char *name,
                       int priority = kDefaultPriority)
        : Event(priority), obj_(obj), arg_(arg), name_(name)
    {
    }

    void process() override { (obj_->*Method)(arg_); }
    const char *name() const override { return name_; }

  private:
    T *obj_;
    int arg_;
    const char *name_;
};

/**
 * The global event queue for one simulation.
 *
 * All simulated components in one experiment share a single queue; time
 * advances only by processing events.
 */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p ev to fire at absolute tick @p when (>= now).
     * The event must not already be scheduled.
     */
    void schedule(Event *ev, Tick when);

    /** Schedule @p ev to fire @p delay ticks from now. */
    void scheduleIn(Event *ev, Tick delay) { schedule(ev, now_ + delay); }

    /** Remove a pending event; no-op fields if not scheduled. */
    void deschedule(Event *ev);

    /** Deschedule (if needed) then schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /** True when no events are pending. */
    bool empty() const { return numPending_ == 0; }

    /** Number of events currently pending. */
    std::size_t numPending() const { return numPending_; }

    /** Process a single event; returns false if the queue was empty. */
    bool step();

    /**
     * Run until the queue is empty or simulated time would exceed
     * @p end. Events exactly at @p end are processed; afterwards now()
     * is max(now, end).
     */
    void runUntil(Tick end);

    /** Run until the queue is empty. */
    void runAll();

    /** Total number of events processed since construction. */
    std::uint64_t numProcessed() const { return numProcessed_; }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *event;

        bool
        operator<(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (priority != o.priority)
                return priority < o.priority;
            return seq < o.seq;
        }

        bool operator>(const Entry &o) const { return o < *this; }
    };

    /** Where the next fresh (non-stale) entry lives. */
    enum class Next
    {
        kNone,     //!< queue drained (pending entries were all stale)
        kActive,   //!< active_[activePos_] is fresh
        kOverflow, //!< wheel empty; overflow_.front() is fresh
    };

    /** log2 of the bucket width: 2^9 ticks = 512 ns per bucket. */
    static constexpr int kBucketShift = 9;
    /**
     * Buckets per wheel window: 2^8 (window spans ~131 us). Sized so
     * the slot headers and occupancy bitmaps stay cache-resident: the
     * simulation's hot events (slices, ITR, DMA, wire times) all land
     * within tens of microseconds, while the rare long-range timer
     * (jiffies, load trains) takes the overflow heap instead.
     */
    static constexpr int kBucketCount = 1 << 8;
    static constexpr int kSlotMask = kBucketCount - 1;
    static constexpr int kWordCount = kBucketCount / 64;
    static constexpr int kSummaryWordCount = (kWordCount + 63) / 64;

    bool
    stale(const Entry &e) const
    {
        return !e.event->scheduled_ || e.event->seq_ != e.seq;
    }

    void setBit(int slot);
    void clearBit(int slot);
    /** First occupied slot >= @p from, or kBucketCount if none. */
    int findSlot(int from) const;

    /** Place an entry whose bucket lies inside the current window. */
    void insertWheel(const Entry &e, std::int64_t bucket);
    /** Return the active bucket's unconsumed tail to its wheel slot. */
    void flushActive();
    /** Purge stale entries until the next fresh one is located. */
    Next findNext();
    /** Re-base the window at the overflow minimum and drain it in. */
    void advanceEpoch();
    /** Fire active_[activePos_]; caller guarantees it is fresh. */
    void fireFront();

    std::vector<std::vector<Entry>> buckets_;
    /** Per-slot occupancy bits, plus a summary bit per 64-slot word. */
    std::array<std::uint64_t, kWordCount> words_{};
    std::array<std::uint64_t, kSummaryWordCount> summary_{};
    /** Events beyond the window; min-heap ordered by (when, prio, seq). */
    std::vector<Entry> overflow_;

    /** The bucket being consumed, sorted; activePos_ is the read head. */
    std::vector<Entry> active_;
    std::size_t activePos_ = 0;
    bool activeValid_ = false;
    std::int64_t activeBucket_ = -1; //!< absolute bucket number

    /** Window start as an absolute bucket number, kBucketCount-aligned;
     *  invariant: epochBase_ <= (now_ >> kBucketShift). */
    std::int64_t epochBase_ = 0;
    /** Next wheel slot to examine, in [0, kBucketCount]. */
    int cursorSlot_ = 0;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t numPending_ = 0;
    std::uint64_t numProcessed_ = 0;
};

} // namespace nmapsim

#endif // NMAPSIM_SIM_EVENT_QUEUE_HH_
