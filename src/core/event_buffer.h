// Bounded-lateness event reordering.
//
// Real sensor meshes deliver crossing events out of order (multi-hop
// forwarding, per-sensor clocks). The tracking-form stores and live
// monitors require per-edge time order, so ingestion pipelines place this
// reorder buffer in front: events may arrive up to `max_lateness` seconds
// late; the buffer holds a sliding window and releases events in global
// time order once they can no longer be preceded by an unseen earlier
// event. Events later than the watermark are reported as dropped rather
// than corrupting downstream state.
#ifndef INNET_CORE_EVENT_BUFFER_H_
#define INNET_CORE_EVENT_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

#include "mobility/trajectory.h"

namespace innet::core {

/// Sliding-window reorder buffer for crossing events.
class EventReorderBuffer {
 public:
  using Sink = std::function<void(const mobility::CrossingEvent&)>;

  /// Events arriving more than `max_lateness` seconds behind the newest
  /// arrival are dropped.
  EventReorderBuffer(double max_lateness, Sink sink);

  /// Offers one event. Returns false when the event violated the lateness
  /// bound and was dropped, or when it exactly duplicated an event (same
  /// edge, direction, and timestamp) still inside the reorder window —
  /// duplicate deliveries from retransmitting meshes would otherwise
  /// double-count downstream.
  bool Push(const mobility::CrossingEvent& event);

  /// Releases every buffered event (end of stream) and advances the
  /// watermark to the newest admitted event. The buffer stays usable for a
  /// subsequent stream segment: events at or after the flushed watermark
  /// flow normally, older ones are dropped.
  void Flush();

  /// Events currently held back.
  size_t Pending() const { return heap_.size(); }

  /// Events dropped for exceeding the lateness bound.
  size_t Dropped() const { return dropped_; }

  /// Exact duplicates suppressed within the reorder window.
  size_t Duplicates() const { return duplicates_; }

  /// Timestamp below which all events have been released.
  double Watermark() const { return watermark_; }

 private:
  struct Later {
    bool operator()(const mobility::CrossingEvent& a,
                    const mobility::CrossingEvent& b) const {
      return a.time > b.time;
    }
  };

  void Release();
  void ReleaseTop();

  // Dedup key: (edge, direction, exact timestamp bits), laid out as a
  // 16-byte hash-table slot.
  struct EventKey {
    uint64_t time_bits = 0;
    graph::EdgeId edge = 0;
    bool forward = false;
    bool used = false;  // Slot occupancy; always true for a live key.

    static EventKey Of(const mobility::CrossingEvent& e) {
      EventKey key;
      std::memcpy(&key.time_bits, &e.time, sizeof(key.time_bits));
      key.edge = e.edge;
      key.forward = e.forward;
      key.used = true;
      return key;
    }
    bool SameAs(const EventKey& o) const {
      return time_bits == o.time_bits && edge == o.edge &&
             forward == o.forward && used == o.used;
    }
  };

  // Open-addressed set of EventKeys: linear probing over a power-of-two
  // slot array, backward-shift deletion (no tombstones). It doubles at
  // half load and never shrinks, so a buffer in steady state allocates
  // nothing per event.
  class KeySet {
   public:
    /// Adds `key`; false when it was already present.
    bool Insert(const EventKey& key);
    /// Removes `key`, which must be present.
    void Erase(const EventKey& key);

   private:
    size_t Home(const EventKey& key) const;
    void Grow();

    std::vector<EventKey> slots_;
    size_t size_ = 0;
  };

  double max_lateness_;
  Sink sink_;
  std::priority_queue<mobility::CrossingEvent,
                      std::vector<mobility::CrossingEvent>, Later>
      heap_;
  // Every event currently buffered, plus the events already released at
  // exactly the watermark timestamp — a late duplicate of those still
  // passes the `time < watermark_` gate.
  KeySet pending_keys_;
  // Keys released at exactly the current watermark; erased from
  // pending_keys_ whenever the watermark advances.
  std::vector<EventKey> released_at_watermark_;
  double newest_ = -1e300;
  double watermark_ = -1e300;
  size_t dropped_ = 0;
  size_t duplicates_ = 0;
};

}  // namespace innet::core

#endif  // INNET_CORE_EVENT_BUFFER_H_
