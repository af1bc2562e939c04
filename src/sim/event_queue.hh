/**
 * @file
 * Deterministic discrete-event queue.
 *
 * All simulation activity in DDPSim is driven by a single EventQueue.
 * Events scheduled for the same tick are executed in the order they were
 * scheduled (FIFO tie-break via a monotonically increasing sequence
 * number), which makes entire cluster simulations bit-reproducible for a
 * given RNG seed.
 *
 * Hot-path design notes:
 *  - callbacks are InlineFn, so typical closures (this + a few scalars)
 *    live inside the event slab instead of costing a malloc per event;
 *  - the priority queue is indirect: callbacks are parked in a
 *    free-listed slab and an explicitly-owned 4-ary min-heap sifts only
 *    trivially copyable 24-byte (when, seq, slot) keys, ordered
 *    strictly by the unique (when, seq) key. Four children per node
 *    halve the tree depth of a binary heap and keep each sibling group
 *    within two cache lines; because no two keys compare equal, any
 *    correct heap pops the same sequence, so the arity cannot change
 *    a simulated result;
 *  - cancellable timers use generation-tagged slots — cancel, fire and
 *    pending-checks are O(1) array lookups, with no per-event hash-set
 *    traffic.
 *
 * For batched delivery (net/fabric's doorbell rings), allocSeq() +
 * schedulePinned() let a caller reserve an event's FIFO position at
 * enqueue time and materialize the event later under that exact
 * (when, seq) key — the mechanism that keeps coalesced drains
 * bit-identical to one-event-per-message scheduling.
 */

#ifndef DDP_SIM_EVENT_QUEUE_HH
#define DDP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/ticks.hh"

namespace ddp::sim {

/** Callback type executed when an event fires. */
using EventFn = InlineFn<void()>;

/**
 * Handle of a cancellable timer; 0 is "no timer". Packs a slot index
 * (low 32 bits, biased by 1) and that slot's generation (high 32 bits),
 * so stale handles from fired or cancelled timers are rejected in O(1).
 */
using TimerId = std::uint64_t;

/** The null TimerId. */
constexpr TimerId kNoTimer = 0;

/**
 * A deterministic discrete-event queue.
 *
 * Usage: schedule callbacks at absolute ticks (or with scheduleIn() at an
 * offset from now()), then drive the simulation with run(), runUntil(),
 * or step().
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events waiting to fire (cancelled timers excluded). */
    std::size_t pendingEvents() const
    {
        return events.size() - cancelledPending;
    }

    /** Total number of events executed so far. */
    std::uint64_t executedEvents() const { return executed; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * Scheduling in the past is a programming error and asserts.
     */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void scheduleIn(Tick delay, EventFn fn) { schedule(_now + delay, std::move(fn)); }

    /**
     * Reserve the FIFO position the *next* schedule() call would get,
     * without scheduling anything. The returned sequence number can be
     * handed to schedulePinned() later — possibly after other events
     * were scheduled — to enqueue an event that fires exactly where a
     * schedule() call at reservation time would have.
     */
    std::uint64_t allocSeq() { return nextSeq++; }

    /**
     * Schedule @p fn under the exact key (@p when, @p seq), where
     * @p seq came from allocSeq(). The caller must not schedule two
     * pending events under the same sequence number; @p when must obey
     * the same not-in-the-past rule as schedule().
     */
    void schedulePinned(Tick when, std::uint64_t seq, EventFn fn);

    /**
     * Batched-execution hook, callable only from inside a running
     * event: if the reserved key (@p when, @p seq) sorts before every
     * pending event — i.e. it is exactly what the scheduler would pop
     * next — consume it: advance now() to @p when, count one executed
     * event, and return true so the caller performs the corresponding
     * work inline. Returns false (and changes nothing) otherwise, or
     * when @p when lies beyond the active runUntil() limit.
     *
     * This is what keeps doorbell-coalesced delivery bit-identical to
     * one-event-per-message scheduling: a drain may only swallow its
     * ring's next entry when no other event could have interleaved.
     * The caller must guarantee any *other* not-yet-materialized work
     * is bounded below by some pending event (net/fabric: every ring's
     * head is always materialized as its armed drain).
     */
    bool consumeIfNext(Tick when, std::uint64_t seq);

    /**
     * Schedule a *cancellable* timer firing at absolute time @p when.
     * The returned handle can be passed to cancelTimer() any time
     * before the timer fires. Timers obey the same deterministic
     * FIFO-per-tick ordering as plain events; cancellation leaves the
     * stored entry in place but skips it (and does not advance time for
     * it) when it reaches the front.
     */
    TimerId scheduleTimer(Tick when, EventFn fn);

    /** Schedule a cancellable timer @p delay ticks from now. */
    TimerId
    scheduleTimerIn(Tick delay, EventFn fn)
    {
        return scheduleTimer(_now + delay, std::move(fn));
    }

    /**
     * Cancel a pending timer.
     * @return true if the timer was still pending and is now cancelled;
     *         false if it already fired, was already cancelled, or the
     *         handle is kNoTimer / unknown.
     */
    bool cancelTimer(TimerId id);

    /** True while @p id names a timer that has not fired or been
     *  cancelled. */
    bool
    timerPending(TimerId id) const
    {
        if (id == kNoTimer)
            return false;
        std::uint32_t slot = slotOf(id);
        return slot < timerSlots.size() &&
               timerSlots[slot].gen == genOf(id) && timerSlots[slot].live;
    }

    /**
     * Execute the next event, advancing time to its timestamp.
     * @return true if an event was executed, false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run until simulated time would exceed @p limit or the queue drains.
     * Events scheduled exactly at @p limit are executed. Afterwards, if
     * the queue is non-empty, now() is clamped to @p limit.
     */
    void runUntil(Tick limit);

  private:
    /** Scheduler key: trivially copyable, so sifting never touches the
     *  callback slab. @c slot indexes eventSlots. */
    struct HeapItem
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Slab cell holding one pending event's payload. */
    struct EventSlot
    {
        TimerId timer = kNoTimer;
        EventFn fn;
    };

    /**
     * One cancellable timer's bookkeeping. The slot is allocated when
     * the timer is scheduled and retired (generation bumped, index
     * recycled) when its stored entry surfaces — whether it fires or
     * was cancelled in the meantime.
     */
    struct TimerSlot
    {
        std::uint32_t gen = 0;
        bool live = false;
    };

    /** Strict total event order: (when, seq), seqs unique. */
    static bool
    keyBefore(const HeapItem &a, const HeapItem &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Children per heap node. */
    static constexpr std::size_t kArity = 4;

    static std::uint32_t
    slotOf(TimerId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
    }

    static std::uint32_t
    genOf(TimerId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    void pushEvent(Tick when, std::uint64_t seq, TimerId timer,
                   EventFn fn);
    /** Earliest pending entry, or nullptr when empty. Stable until the
     *  next push/pop. */
    const HeapItem *
    peekItem() const
    {
        return events.empty() ? nullptr : &events.front();
    }
    HeapItem popItem();
    /** Move the item at @p i toward the root until its parent is
     *  earlier. */
    void siftUp(std::size_t i);
    /** Move the item at @p i toward the leaves until every child is
     *  later. */
    void siftDown(std::size_t i);
    /** Bump the slot's generation and recycle its index. */
    void retireTimer(TimerId id);
    /** Pop cancelled timer entries off the front of the queue. */
    void purgeCancelled();

    std::vector<HeapItem> events; ///< 4-ary min-heap on (when, seq).
    std::vector<EventSlot> eventSlots;
    std::vector<std::uint32_t> freeEventSlots;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    /** Horizon of the active runUntil() (kTickNever outside one):
     *  consumeIfNext() must not advance time past it, or batched
     *  drains would overrun a measurement-window boundary that
     *  one-event-per-message scheduling respects. */
    Tick runLimit = kTickNever;

    std::vector<TimerSlot> timerSlots;
    std::vector<std::uint32_t> freeTimerSlots;
    std::size_t cancelledPending = 0;
};

} // namespace ddp::sim

#endif // DDP_SIM_EVENT_QUEUE_HH
