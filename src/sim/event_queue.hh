/**
 * @file
 * A deterministic event queue: the heart of the simulator.
 *
 * Events are ordered by (tick, priority, insertion sequence). The
 * insertion sequence guarantees that two events scheduled for the same
 * tick and priority fire in scheduling order, which makes every
 * simulation bit-reproducible.
 *
 * The queue is an intrusive binary heap over the Event objects
 * themselves: each event carries its own heap slot index, so
 * scheduling never allocates, descheduling is a true O(log n)
 * removal, and the heap holds exactly the pending events (no stale
 * entries to grow through under reschedule-heavy traffic such as
 * DRAM bank timers).
 *
 * An object that elides do-nothing re-arms of a periodic event (the
 * compute unit's tick) keeps its same-tick position with two
 * primitives: reinsert() puts an event back under the sequence
 * number of its last schedule(), and serviced() tells whether that
 * (tick, priority, seq) slot has already gone by.
 */

#ifndef MIGC_SIM_EVENT_QUEUE_HH
#define MIGC_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace migc
{

class EventQueue;

/**
 * Coarse component attribution for events, so the perf harness can
 * report events/sec by component. Counting is a single array
 * increment on the service path.
 */
enum class EventCategory : std::uint8_t
{
    generic = 0, ///< uncategorized (tests, ad-hoc events)
    gpu,         ///< CU ticks, dispatcher machinery
    cache,       ///< cache retry/writeback-drain machinery
    mem,         ///< packet queues, crossbar
    dram,        ///< channel scheduling
    stats,
};

inline constexpr std::size_t numEventCategories = 6;

/** Short stable name for an event category ("gpu", "dram", ...). */
const char *eventCategoryName(EventCategory c);

/**
 * Base class for schedulable events.
 *
 * Events are owned by their creators (usually as members of
 * simulation objects) and must outlive any pending schedule.
 */
class Event
{
  public:
    /** Smaller value fires first within the same tick. */
    enum Priority : int
    {
        responsePriority = -10, ///< memory responses before new work
        defaultPriority = 0,
        cpuTickPriority = 10,   ///< periodic machinery after messages
        statsPriority = 100,
    };

    explicit Event(int priority = defaultPriority,
                   EventCategory category = EventCategory::generic)
        : priority_(priority), category_(category)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event fires. */
    virtual void process() = 0;

    /**
     * Human-readable description for debugging. Only called on error
     * and trace paths, both gated behind the active log level, so no
     * name string is ever built on the hot path.
     */
    virtual std::string name() const { return "anon-event"; }

    bool scheduled() const { return heapIndex_ != invalidIndex; }

    /** The tick this event is scheduled for (valid when scheduled()). */
    Tick when() const { return when_; }

    int priority() const { return priority_; }

    EventCategory category() const { return category_; }

  private:
    friend class EventQueue;

    static constexpr std::size_t invalidIndex = SIZE_MAX;

    Tick when_ = 0;
    std::uint64_t seq_ = 0;       ///< insertion-order tiebreak
    std::size_t heapIndex_ = invalidIndex; ///< slot in the owning heap
    EventQueue *queue_ = nullptr; ///< queue holding a live schedule
    int priority_ = defaultPriority;
    EventCategory category_ = EventCategory::generic;
};

/** An event that runs a bound callable; saves one subclass per use. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         std::string name,
                         int priority = defaultPriority,
                         EventCategory category = EventCategory::generic)
        : Event(priority, category), callback_(std::move(callback)),
          name_(std::move(name))
    {}

    void process() override { callback_(); }

    std::string name() const override { return name_; }

  private:
    std::function<void()> callback_;
    std::string name_;
};

/**
 * The global-per-simulation event queue.
 *
 * The heap stores pointers to the scheduled events; every event
 * tracks its own index, so schedule/deschedule/reschedule are
 * allocation-free (amortized: the slot vector grows like any vector)
 * and the heap size always equals the pending-event count.
 */
class EventQueue
{
  public:
    EventQueue() { heap_.reserve(64); }

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /** Remove @p ev from the queue; no-op if not scheduled. */
    void deschedule(Event *ev);

    /** Deschedule if needed, then schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule the unscheduled @p ev at @p when (>= curTick) under
     * the insertion sequence of its last schedule() on this queue, so
     * it sorts among same-(tick, priority) events as if it had been
     * scheduled back then. @p ev must have been scheduled on this
     * queue since the last reset().
     */
    void reinsert(Event *ev, Tick when);

    /**
     * True when @p ev, placed at @p when under its current sequence
     * number, would sort at or before the event being serviced (or,
     * between events, the last one serviced): that slot of the
     * (tick, priority, seq) order has already gone by, so a
     * reinsert() there would fire out of order.
     */
    bool
    serviced(const Event &ev, Tick when) const
    {
        if (when != curTick_)
            return when < curTick_;
        if (ev.priority_ != curPriority_)
            return ev.priority_ < curPriority_;
        return ev.seq_ <= curSeq_;
    }

    bool empty() const { return heap_.empty(); }

    std::size_t numPending() const { return heap_.size(); }

    /**
     * Heap slots currently in use; always equals numPending() with
     * the intrusive design (the regression test for stale-entry
     * growth asserts this stays bounded under heavy reschedule).
     */
    std::size_t heapSize() const { return heap_.size(); }

    /**
     * Return the queue to its just-constructed state while keeping
     * the heap array's capacity: every pending event is detached
     * (unscheduled, safe to destroy or reschedule), the clock returns
     * to tick 0, the insertion sequence restarts, nothing counts as
     * serviced, and the processed counters clear. Used by
     * System::reset() so a worker can re-run a simulation on warm
     * storage; a reset queue is observationally identical to a fresh
     * one.
     */
    void reset();

    /** Pop and process exactly one event. Queue must not be empty. */
    void serviceOne();

    /**
     * Run until the queue is empty or @p max_events have been
     * processed.
     * @return number of events processed.
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /**
     * Run until @p pred returns true (checked after each event), the
     * queue empties, or @p max_events is hit.
     * @return true iff @p pred was satisfied.
     */
    bool runUntil(const std::function<bool()> &pred,
                  std::uint64_t max_events = UINT64_MAX);

    /** Total events processed over the queue's lifetime. */
    std::uint64_t numProcessed() const { return numProcessed_; }

    /** Events processed attributed to @p c. */
    std::uint64_t
    numProcessed(EventCategory c) const
    {
        return processedByCategory_[static_cast<std::size_t>(c)];
    }

  private:
    /**
     * Heap slot: the fire tick is duplicated next to the event
     * pointer so the common compare (distinct ticks) never chases
     * the pointer; only tick ties dereference for (priority, seq).
     */
    struct HeapSlot
    {
        Tick when;
        Event *ev;
    };

    /** True when @p a fires strictly before @p b. */
    static bool
    before(const HeapSlot &a, const HeapSlot &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.ev->priority_ != b.ev->priority_)
            return a.ev->priority_ < b.ev->priority_;
        return a.ev->seq_ < b.ev->seq_;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Detach the root and restore the heap (no field cleanup). */
    Event *popTop();

    /** Link @p ev into the heap at @p when under its current seq_. */
    void insert(Event *ev, Tick when);

    /** Priority below every real one: before the first service,
     *  no (tick, priority, seq) key counts as serviced. */
    static constexpr int noPriority = std::numeric_limits<int>::min();

    std::vector<HeapSlot> heap_;
    Tick curTick_ = 0;
    /** (priority, seq) of the event being or last serviced; with
     *  curTick_ the position serviced() compares against. */
    int curPriority_ = noPriority;
    std::uint64_t curSeq_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numProcessed_ = 0;
    std::array<std::uint64_t, numEventCategories> processedByCategory_{};
};

} // namespace migc

#endif // MIGC_SIM_EVENT_QUEUE_HH
