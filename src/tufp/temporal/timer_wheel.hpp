// Hierarchical timer wheel over the engine's virtual clock.
//
// The reclamation side of the temporal lease subsystem (DESIGN.md §10)
// needs "pop everything that expired by time t" at every epoch boundary,
// cheap enough that expiry processing never shows up on the admission hot
// path. A priority queue costs O(log n) per expiry and its heap layout
// depends on insertion history; this wheel is the classic serving-system
// alternative: virtual time is quantized into ticks, ticks hash into a
// small circular array of slots, and L stacked wheels of W slots each
// cover a W^L-tick horizon so one event never sits in more than L slots
// over its lifetime — amortized O(1) schedule + cascade work per event.
//
// Determinism contract (the property every consumer relies on): advance()
// emits due events ordered by (time, id), exactly — not by slot insertion
// history, not by tick rounding. Slots are drained in increasing tick
// order (times in different ticks are ordered by construction) and each
// drained slot is sorted by (time, id) before it is appended; the final
// tick is drained *partially* on the exact `time <= now` comparison so an
// event expiring later in the same tick as `now` never fires early. The
// cursor therefore may sit on a tick whose slot still holds future
// events; the next advance() re-examines that slot first.
//
// Single-threaded by design: the engine drains expiries at epoch
// boundaries on the epoch loop's thread, so the wheel needs no locks and
// its output is trivially byte-identical for any solver thread count.
#pragma once

#include <cstdint>
#include <vector>

namespace tufp::temporal {

class TimerWheel {
 public:
  struct Event {
    double time = 0.0;       // scheduled (expiry) time, virtual seconds
    std::int64_t id = -1;    // tie-break: deterministic (time, id) order
  };

  // `tick_seconds` is the quantization of the level-0 wheel; events within
  // one tick are ordered exactly (see above), so the tick only trades
  // cascade frequency against slot occupancy, never correctness.
  explicit TimerWheel(double tick_seconds);

  // Schedules an event. `time` must be >= the time of the last advance()
  // (the wheel has no past).
  void schedule(double time, std::int64_t id);

  // Appends every scheduled event with time <= now to *out in (time, id)
  // order and moves the clock to `now`. `now` must be nondecreasing
  // across calls. Amortized O(1) per event: per-level occupancy counts
  // let the cursor jump straight to the next boundary that could matter
  // (an entirely empty wheel fast-forwards in one step), so long idle
  // stretches cost boundary hops, not per-tick scans.
  void advance(double now, std::vector<Event>* out);

  std::size_t size() const { return size_; }
  double now() const { return now_; }
  double tick_seconds() const { return tick_seconds_; }

 private:
  // W = 64 slots per level, L = 4 levels: horizon = 64^4 ticks. With the
  // default 50 ms tick that is ~9.7 virtual days; later expiries go to the
  // overflow list and re-bucket exactly once — at the horizon boundary
  // that brings the earliest of them within wheel range — so an overflow
  // event costs O(overflow size) total, not per crossed boundary.
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;       // 64
  static constexpr int kLevels = 4;
  static constexpr std::int64_t kHorizonTicks =
      std::int64_t{1} << (kSlotBits * kLevels);       // 64^4

  std::int64_t tick_of(double time) const;
  void place(std::int64_t tick, const Event& event);
  void cascade(int level, std::size_t slot);
  // The next tick after cursor_ at which anything can happen: the nearest
  // occupied level-0 slot, the nearest cascade boundary whose slot is
  // occupied per higher level, or the next overflow re-bucket horizon.
  // O(levels x slots) scan, paid once per landing, so advances cost
  // boundary hops instead of per-tick scans.
  std::int64_t next_event_tick() const;
  // Drains slot `cursor_ % 64`: fully when the whole tick is due, else
  // only events with time <= now (the remainder stays put).
  void drain_cursor_slot(double now, bool whole_tick,
                         std::vector<Event>* out);

  double tick_seconds_;
  double now_ = 0.0;
  std::int64_t cursor_ = 0;  // tick currently under the level-0 cursor
  std::size_t size_ = 0;
  // levels_[l][s] holds events whose tick maps to slot s of level l.
  std::vector<std::vector<Event>> levels_[kLevels];
  std::int64_t level_counts_[kLevels] = {};  // occupancy per level
  std::vector<Event> overflow_;  // beyond the top-level horizon
  // Earliest overflow tick; the boundary floor(min/horizon)*horizon is
  // where the next re-bucket is due (INT64_MAX when overflow is empty).
  std::int64_t overflow_min_tick_ = 0;
  std::vector<Event> scratch_;   // per-drain staging (sorted, then emitted)
};

}  // namespace tufp::temporal
