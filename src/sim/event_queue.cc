#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "sim/logging.hh"

namespace nmapsim {

Event::Event(int priority)
    : priority_(priority)
{
}

Event::~Event()
{
    // Owning components must deschedule before destruction; firing a
    // destroyed event would be use-after-free. The queue tolerates the
    // stale calendar entry (token mismatch) but only while the object
    // lives. panic() from a destructor reaches std::terminate — the
    // intended fail-stop, and unlike assert() it survives Release.
    if (scheduled_)
        panic("event destroyed while scheduled");
}

EventFunctionWrapper::EventFunctionWrapper(std::function<void()> callback,
                                           const char *name, int priority)
    : Event(priority), callback_(std::move(callback)), name_(name)
{
}

EventQueue::EventQueue()
    : buckets_(kBucketCount)
{
}

void
EventQueue::setBit(int slot)
{
    words_[static_cast<std::size_t>(slot >> 6)] |=
        std::uint64_t{1} << (slot & 63);
    summary_[static_cast<std::size_t>(slot >> 12)] |=
        std::uint64_t{1} << ((slot >> 6) & 63);
}

void
EventQueue::clearBit(int slot)
{
    const int w = slot >> 6;
    words_[static_cast<std::size_t>(w)] &=
        ~(std::uint64_t{1} << (slot & 63));
    if (words_[static_cast<std::size_t>(w)] == 0)
        summary_[static_cast<std::size_t>(slot >> 12)] &=
            ~(std::uint64_t{1} << (w & 63));
}

int
EventQueue::findSlot(int from) const
{
    if (from >= kBucketCount)
        return kBucketCount;
    const int w = from >> 6;
    const std::uint64_t first =
        words_[static_cast<std::size_t>(w)] &
        (~std::uint64_t{0} << (from & 63));
    if (first != 0)
        return (w << 6) + std::countr_zero(first);
    int sw = (w + 1) >> 6;
    if (sw >= kSummaryWordCount)
        return kBucketCount;
    std::uint64_t sword = summary_[static_cast<std::size_t>(sw)] &
                          (~std::uint64_t{0} << ((w + 1) & 63));
    for (;;) {
        if (sword != 0) {
            const int wi = (sw << 6) + std::countr_zero(sword);
            return (wi << 6) +
                   std::countr_zero(
                       words_[static_cast<std::size_t>(wi)]);
        }
        if (++sw >= kSummaryWordCount)
            return kBucketCount;
        sword = summary_[static_cast<std::size_t>(sw)];
    }
}

void
EventQueue::insertWheel(const Entry &e, std::int64_t bucket)
{
    if (activeValid_) {
        if (bucket == activeBucket_) {
            // An event landing in the bucket currently being consumed
            // must still fire in (when, priority, seq) order relative
            // to the *unconsumed* tail — e.g. a same-tick
            // higher-priority event scheduled from inside process()
            // fires next, exactly as it would have popped from a heap.
            active_.insert(
                std::upper_bound(
                    active_.begin() +
                        static_cast<std::ptrdiff_t>(activePos_),
                    active_.end(), e),
                e);
            return;
        }
        if (bucket < activeBucket_)
            flushActive();
    }
    const int slot = static_cast<int>(bucket & kSlotMask);
    buckets_[static_cast<std::size_t>(slot)].push_back(e);
    setBit(slot);
    if (slot < cursorSlot_)
        cursorSlot_ = slot;
}

void
EventQueue::flushActive()
{
    // The consumption cursor moved past this bucket's slot, but an
    // insert now targets an earlier bucket (possible only from harness
    // code between runs — e.g. after runUntil() stopped short of the
    // active bucket). Hand the unconsumed tail back to the wheel and
    // rewind; the slots in between are empty, so the rescan is free.
    const int slot = static_cast<int>(activeBucket_ & kSlotMask);
    std::vector<Entry> &bucket = buckets_[static_cast<std::size_t>(slot)];
    for (std::size_t i = activePos_; i < active_.size(); ++i)
        bucket.push_back(active_[i]);
    if (!bucket.empty())
        setBit(slot);
    active_.clear();
    activePos_ = 0;
    activeValid_ = false;
    if (slot < cursorSlot_)
        cursorSlot_ = slot;
}

EventQueue::Next
EventQueue::findNext()
{
    for (;;) {
        while (activePos_ < active_.size()) {
            if (!stale(active_[activePos_]))
                return Next::kActive;
            ++activePos_; // stale entry from a deschedule/reschedule
        }
        if (activeValid_) {
            active_.clear();
            activePos_ = 0;
            activeValid_ = false;
        }
        const int slot = findSlot(cursorSlot_);
        if (slot < kBucketCount) {
            active_.swap(buckets_[static_cast<std::size_t>(slot)]);
            clearBit(slot);
            // A bucket holds a handful of entries; inline insertion
            // sort beats the std::sort call at those sizes. (Entries
            // never compare equal — seq is unique — so the sorts
            // cannot differ.)
            if (active_.size() > 16) {
                std::sort(active_.begin(), active_.end());
            } else {
                for (std::size_t i = 1; i < active_.size(); ++i) {
                    const Entry key = active_[i];
                    std::size_t j = i;
                    for (; j > 0 && key < active_[j - 1]; --j)
                        active_[j] = active_[j - 1];
                    active_[j] = key;
                }
            }
            activePos_ = 0;
            activeValid_ = true;
            activeBucket_ = epochBase_ + slot;
            cursorSlot_ = slot + 1;
            continue;
        }
        cursorSlot_ = kBucketCount;
        while (!overflow_.empty() && stale(overflow_.front())) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          std::greater<Entry>{});
            overflow_.pop_back();
        }
        return overflow_.empty() ? Next::kNone : Next::kOverflow;
    }
}

void
EventQueue::advanceEpoch()
{
    // Caller guarantees the wheel is empty and overflow_.front() is
    // fresh. Re-base the window at that event's (aligned) epoch and
    // pull in every overflow entry that now lands inside it; the
    // front event fires immediately afterwards, which restores the
    // epochBase_ <= bucket(now_) invariant before any user code runs.
    const std::int64_t front =
        overflow_.front().when >> kBucketShift;
    epochBase_ = front & ~static_cast<std::int64_t>(kSlotMask);
    while (!overflow_.empty() &&
           (overflow_.front().when >> kBucketShift) <
               epochBase_ + kBucketCount) {
        const Entry e = overflow_.front();
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      std::greater<Entry>{});
        overflow_.pop_back();
        if (!stale(e))
            insertWheel(e, e.when >> kBucketShift);
    }
}

void
EventQueue::fireFront()
{
    const Entry &e = active_[activePos_++];
    Event *ev = e.event;
    if (e.when < now_)
        panic("event queue went backwards in time");
    now_ = e.when;
    ev->scheduled_ = false;
    --numPending_;
    ++numProcessed_;
    ev->process();
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        throw std::logic_error(
            std::string("schedule: event already scheduled: ") + ev->name());
    if (when < now_)
        throw std::logic_error(std::string("schedule: tick in the past: ") +
                               ev->name());

    ev->when_ = when;
    ev->seq_ = nextSeq_;
    ev->scheduled_ = true;
    const Entry e{when, ev->priority_, nextSeq_++, ev};
    const std::int64_t bucket = when >> kBucketShift;
    if (bucket < epochBase_)
        panic("event queue window behind now");
    if (bucket >= epochBase_ + kBucketCount) {
        overflow_.push_back(e);
        std::push_heap(overflow_.begin(), overflow_.end(),
                       std::greater<Entry>{});
    } else {
        insertWheel(e, bucket);
    }
    ++numPending_;
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled_)
        return;
    // Lazy removal: clear the scheduled flag; the calendar entry is
    // dropped when reached (and a reschedule changes seq_, so the old
    // entry stays stale even once the flag is set again).
    ev->scheduled_ = false;
    --numPending_;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    deschedule(ev);
    schedule(ev, when);
}

bool
EventQueue::step()
{
    for (;;) {
        switch (findNext()) {
        case Next::kNone:
            return false;
        case Next::kOverflow:
            advanceEpoch();
            continue;
        case Next::kActive:
            fireFront();
            return true;
        }
    }
}

void
EventQueue::runUntil(Tick end)
{
    for (;;) {
        const Next next = findNext();
        if (next == Next::kNone)
            break;
        if (next == Next::kOverflow) {
            // Skipping stale entries (inside findNext) never advances
            // time; stopping short of a future event does not either.
            if (overflow_.front().when > end)
                break;
            advanceEpoch();
            continue;
        }
        if (active_[activePos_].when > end)
            break;
        fireFront();
    }
    if (now_ < end)
        now_ = end;
}

void
EventQueue::runAll()
{
    while (step()) {
    }
}

} // namespace nmapsim
