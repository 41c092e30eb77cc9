#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace migc
{

const char *
eventCategoryName(EventCategory c)
{
    switch (c) {
      case EventCategory::generic: return "generic";
      case EventCategory::gpu: return "gpu";
      case EventCategory::cache: return "cache";
      case EventCategory::mem: return "mem";
      case EventCategory::dram: return "dram";
      case EventCategory::stats: return "stats";
    }
    return "?";
}

Event::~Event()
{
    // Deschedule on destruction so tearing a system down mid-
    // simulation (e.g., after the workload completed but with idle
    // machinery events still pending) is safe.
    if (scheduled() && queue_ != nullptr)
        queue_->deschedule(this);
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapSlot slot = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(slot, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_[i].ev->heapIndex_ = i;
        i = parent;
    }
    heap_[i] = slot;
    slot.ev->heapIndex_ = i;
}

void
EventQueue::siftDown(std::size_t i)
{
    HeapSlot slot = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], slot))
            break;
        heap_[i] = heap_[child];
        heap_[i].ev->heapIndex_ = i;
        i = child;
    }
    heap_[i] = slot;
    slot.ev->heapIndex_ = i;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    panic_if(ev == nullptr, "scheduling null event");
    panic_if(ev->scheduled(), "event '%s' already scheduled",
             ev->name().c_str());
    panic_if(when < curTick_,
             "event '%s' scheduled in the past (%llu < %llu)",
             ev->name().c_str(),
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(curTick_));

    ev->seq_ = nextSeq_++;
    ev->queue_ = this;
    insert(ev, when);
}

void
EventQueue::reinsert(Event *ev, Tick when)
{
    panic_if(ev == nullptr, "reinserting null event");
    panic_if(ev->scheduled(), "event '%s' already scheduled",
             ev->name().c_str());
    // A never-scheduled or reset-detached event has no sequence
    // number that means anything in this queue's order.
    panic_if(ev->queue_ != this,
             "reinserting event '%s' never scheduled on this queue",
             ev->name().c_str());
    panic_if(when < curTick_,
             "event '%s' reinserted in the past (%llu < %llu)",
             ev->name().c_str(),
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(curTick_));
    insert(ev, when);
}

void
EventQueue::insert(Event *ev, Tick when)
{
    ev->when_ = when;
    ev->heapIndex_ = heap_.size();
    heap_.push_back(HeapSlot{when, ev});
    siftUp(ev->heapIndex_);
}

void
EventQueue::deschedule(Event *ev)
{
    if (ev == nullptr || !ev->scheduled())
        return;
    // The index below is only meaningful in the owning queue's heap;
    // acting on a foreign event would silently corrupt both heaps.
    panic_if(ev->queue_ != this,
             "descheduling event '%s' from a queue it is not on",
             ev->name().c_str());

    std::size_t i = ev->heapIndex_;
    ev->heapIndex_ = Event::invalidIndex;

    HeapSlot last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        // Refill the vacated slot with the former tail and restore
        // the heap property in whichever direction it was violated.
        heap_[i] = last;
        last.ev->heapIndex_ = i;
        siftDown(i);
        if (last.ev->heapIndex_ == i)
            siftUp(i);
    }
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::reset()
{
    for (HeapSlot &slot : heap_) {
        slot.ev->heapIndex_ = Event::invalidIndex;
        slot.ev->queue_ = nullptr;
    }
    heap_.clear();
    curTick_ = 0;
    curPriority_ = noPriority;
    curSeq_ = 0;
    nextSeq_ = 0;
    numProcessed_ = 0;
    processedByCategory_.fill(0);
}

Event *
EventQueue::popTop()
{
    Event *top = heap_.front().ev;
    HeapSlot last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        last.ev->heapIndex_ = 0;
        siftDown(0);
    }
    top->heapIndex_ = Event::invalidIndex;
    return top;
}

void
EventQueue::serviceOne()
{
    panic_if(heap_.empty(), "serviceOne() on an empty event queue");

    Event *ev = popTop();
    panic_if(ev->when_ < curTick_, "time went backwards");
    curTick_ = ev->when_;
    curPriority_ = ev->priority_;
    curSeq_ = ev->seq_;
    ++numProcessed_;
    ++processedByCategory_[static_cast<std::size_t>(ev->category_)];
    if (logEnabled(LogLevel::trace)) {
        // The only place outside error paths that builds an event's
        // name string; unreachable at the default log level.
        inform("tick %llu: event %s",
               static_cast<unsigned long long>(curTick_),
               ev->name().c_str());
    }
    ev->process();
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (!empty() && n < max_events) {
        serviceOne();
        ++n;
    }
    return n;
}

bool
EventQueue::runUntil(const std::function<bool()> &pred,
                     std::uint64_t max_events)
{
    std::uint64_t n = 0;
    if (pred())
        return true;
    while (!empty() && n < max_events) {
        serviceOne();
        ++n;
        if (pred())
            return true;
    }
    return false;
}

} // namespace migc
