#include "core/event_buffer.h"

#include <algorithm>

#include "util/logging.h"

namespace innet::core {

EventReorderBuffer::EventReorderBuffer(double max_lateness, Sink sink)
    : max_lateness_(max_lateness), sink_(std::move(sink)) {
  INNET_CHECK(max_lateness_ >= 0.0);
  INNET_CHECK(sink_ != nullptr);
}

bool EventReorderBuffer::Push(const mobility::CrossingEvent& event) {
  if (event.time < watermark_) {
    ++dropped_;
    return false;
  }
  // A key already in the set is either still buffered or was released at
  // exactly the current watermark; both make `event` an exact duplicate
  // delivery.
  if (!pending_keys_.Insert(EventKey::Of(event))) {
    ++duplicates_;
    return false;
  }
  heap_.push(event);
  if (event.time > newest_) newest_ = event.time;
  Release();
  return true;
}

void EventReorderBuffer::Release() {
  // Everything at or before newest - lateness can no longer be preceded by
  // an unseen event.
  double safe = newest_ - max_lateness_;
  while (!heap_.empty() && heap_.top().time <= safe) {
    ReleaseTop();
  }
}

void EventReorderBuffer::ReleaseTop() {
  const mobility::CrossingEvent& event = heap_.top();
  if (event.time != watermark_) {
    // The watermark moves: duplicates of events released at the old
    // watermark are now caught by the `time < watermark_` gate instead.
    for (const EventKey& k : released_at_watermark_) pending_keys_.Erase(k);
    released_at_watermark_.clear();
    watermark_ = event.time;
  }
  // The key stays in the set until the watermark moves past it.
  released_at_watermark_.push_back(EventKey::Of(event));
  sink_(event);
  heap_.pop();
}

void EventReorderBuffer::Flush() {
  while (!heap_.empty()) {
    ReleaseTop();
  }
  // Close the stream epoch: everything at or before the newest admitted
  // event has been released, so advance the watermark to it even when the
  // heap drained early (or was already empty). A buffer reused after Flush
  // then rejects events behind the released history instead of re-admitting
  // them and corrupting downstream per-edge time order.
  double close = std::max(newest_, watermark_);
  if (close > watermark_) {
    for (const EventKey& k : released_at_watermark_) pending_keys_.Erase(k);
    released_at_watermark_.clear();
  }
  newest_ = close;
  watermark_ = close;
}

size_t EventReorderBuffer::KeySet::Home(const EventKey& key) const {
  uint64_t h = key.time_bits ^ (static_cast<uint64_t>(key.edge) << 1) ^
               static_cast<uint64_t>(key.forward);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & (slots_.size() - 1);
}

bool EventReorderBuffer::KeySet::Insert(const EventKey& key) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  size_t mask = slots_.size() - 1;
  size_t i = Home(key);
  for (; slots_[i].used; i = (i + 1) & mask) {
    if (slots_[i].SameAs(key)) return false;
  }
  slots_[i] = key;
  ++size_;
  return true;
}

void EventReorderBuffer::KeySet::Erase(const EventKey& key) {
  size_t mask = slots_.size() - 1;
  size_t hole = Home(key);
  while (!slots_[hole].SameAs(key)) {
    INNET_DCHECK(slots_[hole].used);  // Erasing a key that is absent.
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull later members of the probe run into the hole
  // unless their home lies cyclically in (hole, j], where they already are
  // reachable.
  for (size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    size_t home = Home(slots_[j]);
    bool stays = hole <= j ? (hole < home && home <= j)
                           : (hole < home || home <= j);
    if (!stays) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].used = false;
  --size_;
}

void EventReorderBuffer::KeySet::Grow() {
  std::vector<EventKey> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), EventKey{});
  size_ = 0;
  for (const EventKey& key : old) {
    if (key.used) Insert(key);
  }
}

}  // namespace innet::core
