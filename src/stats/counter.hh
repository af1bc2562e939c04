/**
 * @file
 * Named counters and a registry for experiment-level statistics.
 *
 * Protocol engines and device models register counters (messages sent,
 * persists issued, reads stalled, transactions squashed, ...) under
 * stable names; the experiment runner snapshots the registry before and
 * after the measurement window so warmup activity is excluded.
 */

#ifndef DDP_STATS_COUNTER_HH
#define DDP_STATS_COUNTER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace ddp::stats {

/**
 * A flat registry of named uint64 counters. Lookup creates on demand.
 * Entries are never removed, so a Counter handle's cached slot stays
 * valid for the registry's lifetime.
 */
class CounterRegistry
{
  public:
    /**
     * A counter bound to one name: the first add() creates (or finds)
     * the registry entry and caches its address, every later add() is
     * a plain increment. Until then the handle leaves no entry, so
     * binding handles up front does not change which counters a
     * snapshot lists. @p name must outlive the handle (a literal).
     */
    class Counter
    {
      public:
        Counter(CounterRegistry &reg, std::string_view name)
            : reg(&reg), name(name)
        {
        }

        void
        add(std::uint64_t delta = 1)
        {
            if (slot == nullptr)
                slot = &reg->entry(name);
            *slot += delta;
        }

      private:
        CounterRegistry *reg;
        std::string_view name;
        std::uint64_t *slot = nullptr;
    };

    /** Increment @p name by @p delta. */
    void
    add(std::string_view name, std::uint64_t delta = 1)
    {
        entry(name) += delta;
    }

    /** A handle bound to @p name (see Counter). */
    Counter counter(std::string_view name) { return Counter(*this, name); }

    /** Current value of @p name (0 if never touched). */
    std::uint64_t
    get(std::string_view name) const
    {
        auto it = values.find(name);
        return it == values.end() ? 0 : it->second;
    }

    /** Snapshot of all counters (copy). */
    std::map<std::string, std::uint64_t> snapshot() const
    {
        return {values.begin(), values.end()};
    }

    /**
     * Difference of all counters against an earlier snapshot; counters
     * that did not change are still included (value 0) if present now.
     */
    std::map<std::string, std::uint64_t>
    diff(const std::map<std::string, std::uint64_t> &before) const
    {
        std::map<std::string, std::uint64_t> out;
        for (const auto &[name, v] : values) {
            auto it = before.find(name);
            std::uint64_t old = it == before.end() ? 0 : it->second;
            out[name] = v - old;
        }
        return out;
    }

  private:
    /** The value slot of @p name, created at 0 on first use; map
     *  nodes never move, so the reference stays valid. */
    std::uint64_t &
    entry(std::string_view name)
    {
        auto it = values.find(name);
        if (it == values.end())
            it = values.emplace(std::string(name), 0).first;
        return it->second;
    }

    /** std::less<> lets string_view keys probe without a temporary
     *  std::string. */
    std::map<std::string, std::uint64_t, std::less<>> values;
};

} // namespace ddp::stats

#endif // DDP_STATS_COUNTER_HH
