#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ddp::sim {

void
EventQueue::pushEvent(Tick when, std::uint64_t seq, TimerId timer,
                      EventFn fn)
{
    std::uint32_t slot;
    if (!freeEventSlots.empty()) {
        slot = freeEventSlots.back();
        freeEventSlots.pop_back();
        eventSlots[slot].timer = timer;
        eventSlots[slot].fn = std::move(fn);
    } else {
        slot = static_cast<std::uint32_t>(eventSlots.size());
        eventSlots.push_back(EventSlot{timer, std::move(fn)});
    }
    events.push_back(HeapItem{when, seq, slot});
    siftUp(events.size() - 1);
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapItem item = events[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!keyBefore(item, events[parent]))
            break;
        events[i] = events[parent];
        i = parent;
    }
    events[i] = item;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = events.size();
    HeapItem item = events[i];
    for (;;) {
        std::size_t first = i * kArity + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (keyBefore(events[c], events[best]))
                best = c;
        }
        if (!keyBefore(events[best], item))
            break;
        events[i] = events[best];
        i = best;
    }
    events[i] = item;
}

EventQueue::HeapItem
EventQueue::popItem()
{
    HeapItem top = events.front();
    events.front() = events.back();
    events.pop_back();
    if (!events.empty())
        siftDown(0);
    return top;
}

void
EventQueue::schedule(Tick when, EventFn fn)
{
    assert(when >= _now && "cannot schedule an event in the past");
    pushEvent(when, nextSeq++, kNoTimer, std::move(fn));
}

void
EventQueue::schedulePinned(Tick when, std::uint64_t seq, EventFn fn)
{
    assert(when >= _now && "cannot schedule an event in the past");
    assert(seq < nextSeq && "pinned seq must come from allocSeq()");
    pushEvent(when, seq, kNoTimer, std::move(fn));
}

bool
EventQueue::consumeIfNext(Tick when, std::uint64_t seq)
{
    if (when > runLimit)
        return false;
    // Cancelled timers at the front never fire and never advance time,
    // so they must not block the comparison against the true next event.
    purgeCancelled();
    const HeapItem *top = peekItem();
    if (top != nullptr) {
        HeapItem probe{when, seq, 0};
        if (!keyBefore(probe, *top))
            return false;
    }
    assert(when >= _now);
    _now = when;
    ++executed;
    return true;
}

TimerId
EventQueue::scheduleTimer(Tick when, EventFn fn)
{
    assert(when >= _now && "cannot schedule a timer in the past");
    std::uint32_t slot;
    if (!freeTimerSlots.empty()) {
        slot = freeTimerSlots.back();
        freeTimerSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(timerSlots.size());
        timerSlots.emplace_back();
    }
    timerSlots[slot].live = true;
    TimerId id = (static_cast<TimerId>(timerSlots[slot].gen) << 32) |
                 (slot + 1);
    pushEvent(when, nextSeq++, id, std::move(fn));
    return id;
}

bool
EventQueue::cancelTimer(TimerId id)
{
    if (!timerPending(id))
        return false;
    timerSlots[slotOf(id)].live = false;
    ++cancelledPending;
    return true;
}

void
EventQueue::retireTimer(TimerId id)
{
    std::uint32_t slot = slotOf(id);
    assert(slot < timerSlots.size() && timerSlots[slot].gen == genOf(id));
    ++timerSlots[slot].gen;
    timerSlots[slot].live = false;
    freeTimerSlots.push_back(slot);
}

void
EventQueue::purgeCancelled()
{
    if (cancelledPending == 0)
        return;
    for (const HeapItem *top = peekItem(); top != nullptr;
         top = peekItem()) {
        TimerId timer = eventSlots[top->slot].timer;
        if (timer == kNoTimer || timerPending(timer))
            return;
        HeapItem item = popItem();
        eventSlots[item.slot].fn = EventFn(); // drop the callback
        freeEventSlots.push_back(item.slot);
        retireTimer(timer);
        assert(cancelledPending > 0);
        --cancelledPending;
    }
}

bool
EventQueue::step()
{
    purgeCancelled();
    if (events.empty())
        return false;

    HeapItem item = popItem();
    assert(item.when >= _now);
    _now = item.when;
    ++executed;
    // Move the callback out before running it: fn may push new events
    // that recycle this very slot.
    TimerId timer = eventSlots[item.slot].timer;
    EventFn fn = std::move(eventSlots[item.slot].fn);
    freeEventSlots.push_back(item.slot);
    if (timer != kNoTimer)
        retireTimer(timer);
    fn();
    return true;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

void
EventQueue::runUntil(Tick limit)
{
    runLimit = limit;
    for (;;) {
        purgeCancelled();
        const HeapItem *top = peekItem();
        if (top == nullptr || top->when > limit)
            break;
        step();
    }
    runLimit = kTickNever;
    if (_now < limit)
        _now = limit;
}

} // namespace ddp::sim
