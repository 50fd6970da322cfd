#include "forms/frozen_tracking_form.h"

#include <algorithm>
#include <cstdint>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "util/logging.h"

namespace innet::forms {

namespace {

// Asks the kernel to back the 2 MiB-aligned interior of a freshly reserved,
// still untouched timestamp array with transparent huge pages (THP in
// `madvise` mode serves only advised ranges). At DRAM sizes every lookup
// level otherwise pays a page walk on 4 KiB pages. A hint only: arrays
// without a whole huge page inside are left alone, failure is harmless, and
// it compiles to nothing where MADV_HUGEPAGE is undefined.
void AdviseHugePages([[maybe_unused]] const std::vector<double>& reserved) {
#ifdef MADV_HUGEPAGE
  constexpr uintptr_t kHugePage = uintptr_t{1} << 21;
  uintptr_t first = reinterpret_cast<uintptr_t>(reserved.data());
  uintptr_t begin = (first + kHugePage - 1) & ~(kHugePage - 1);
  uintptr_t end =
      (first + reserved.capacity() * sizeof(double)) & ~(kHugePage - 1);
  if (begin < end) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#endif
}

}  // namespace

FrozenTrackingForm::FrozenTrackingForm(const TrackingForm& source) {
  size_t num_slots = 2 * source.num_edges();
  offsets_.assign(num_slots + 1, 0);
  times_.reserve(source.TotalEvents());
  AdviseHugePages(times_);
  for (graph::EdgeId road = 0; road < source.num_edges(); ++road) {
    for (bool forward : {true, false}) {
      size_t slot = Slot(road, forward);
      const std::vector<double>& seq = source.Sequence(road, forward);
      offsets_[slot] = times_.size();
      times_.insert(times_.end(), seq.begin(), seq.end());
    }
  }
  offsets_[num_slots] = times_.size();
}

FrozenTrackingForm::FrozenTrackingForm(std::vector<double> times,
                                       std::vector<uint64_t> offsets)
    : times_(std::move(times)), offsets_(std::move(offsets)) {
  INNET_CHECK(offsets_.size() >= 1 && offsets_.size() % 2 == 1);
  size_t num_slots = offsets_.size() - 1;
  INNET_CHECK(offsets_.front() == 0);
  INNET_CHECK(offsets_.back() == times_.size());
  for (size_t s = 0; s < num_slots; ++s) {
    INNET_CHECK(offsets_[s] <= offsets_[s + 1]);
    INNET_CHECK(std::is_sorted(times_.begin() + offsets_[s],
                               times_.begin() + offsets_[s + 1]));
  }
}

FrozenTrackingForm::FrozenTrackingForm(const FrozenTrackingForm& previous,
                                       const EpochDelta& delta) {
  size_t num_slots = previous.offsets_.size() - 1;
  INNET_CHECK(delta.NumSlots() == num_slots);
  offsets_.assign(num_slots + 1, 0);
  times_.reserve(previous.times_.size() + delta.times.size());
  AdviseHugePages(times_);

  size_t slot = 0;
  while (slot < num_slots) {
    size_t d_begin = delta.offsets[slot];
    size_t d_end = delta.offsets[slot + 1];
    if (d_begin == d_end) {
      // Maximal clean run [slot, run_end): previous timestamps of
      // consecutive slots are contiguous, so the whole run is one bulk copy
      // and its row pointers shift by one constant.
      size_t run_end = slot;
      while (run_end < num_slots &&
             delta.offsets[run_end] == delta.offsets[run_end + 1]) {
        ++run_end;
      }
      size_t shift = times_.size() - previous.offsets_[slot];
      times_.insert(times_.end(),
                    previous.times_.begin() + previous.offsets_[slot],
                    previous.times_.begin() + previous.offsets_[run_end]);
      for (size_t s = slot; s < run_end; ++s) {
        offsets_[s] = previous.offsets_[s] + shift;
      }
      slot = run_end;
      continue;
    }
    // Dirty slot: merge the previous span with the epoch's new events. The
    // common live-ingest case appends strictly after the stored history; a
    // true merge keeps multi-source streams with skewed watermarks correct.
    offsets_[slot] = times_.size();
    const double* old_begin = previous.SlotBegin(slot);
    const double* old_end = previous.SlotEnd(slot);
    const double* new_begin = delta.times.data() + d_begin;
    const double* new_end = delta.times.data() + d_end;
    INNET_DCHECK(std::is_sorted(new_begin, new_end));
    if (old_begin == old_end || *(old_end - 1) <= *new_begin) {
      times_.insert(times_.end(), old_begin, old_end);
      times_.insert(times_.end(), new_begin, new_end);
    } else {
      size_t at = times_.size();
      times_.resize(at + (old_end - old_begin) + (new_end - new_begin));
      std::merge(old_begin, old_end, new_begin, new_end, times_.begin() + at);
    }
    ++slot;
  }
  offsets_[num_slots] = times_.size();
}

// The four hot read kernels start on a 64-byte boundary, so their layout
// within cache lines and fetch blocks does not shift when unrelated code
// moves (read-path p99 moved ~12% between builds that changed no read-path
// code, only where these functions landed).
[[gnu::aligned(64)]] void FrozenTrackingForm::CountUpToSlots(
    const size_t* slots, size_t count, double t, size_t* out) const {
  // Software pipeline: while slot i resolves, the lines slot i+1's search
  // reads first are already in flight, and slot i+2's row pointers too.
  for (size_t i = 0; i < count; ++i) {
    if (i + 2 < count) __builtin_prefetch(&offsets_[slots[i + 2]]);
    if (i + 1 < count) PrefetchSlot(slots[i + 1]);
    out[i] = CountUpToSlot(slots[i], t);
  }
}

namespace {

// Boundary edges per batched-lookup chunk. 128 edges = 256 slots keeps the
// scratch on the stack (allocation-free warm path) while giving the
// prefetch pipeline a long runway.
constexpr size_t kEdgeChunk = 128;

}  // namespace

[[gnu::aligned(64)]] double EvaluateStaticCount(
    const FrozenTrackingForm& store, const std::vector<BoundaryEdge>& boundary,
    double t) {
  // Counts are integers well inside double's exact range, so the running
  // sum is exact and matches the virtual path bit-for-bit.
  double total = 0.0;
  size_t slots[2 * kEdgeChunk];
  size_t counts[2 * kEdgeChunk];
  size_t num_edges = boundary.size();
  for (size_t base = 0; base < num_edges; base += kEdgeChunk) {
    size_t m = std::min(kEdgeChunk, num_edges - base);
    for (size_t j = 0; j < m; ++j) {
      const BoundaryEdge& b = boundary[base + j];
      slots[2 * j] = FrozenTrackingForm::Slot(b.edge, b.inward_is_forward);
      slots[2 * j + 1] =
          FrozenTrackingForm::Slot(b.edge, !b.inward_is_forward);
    }
    store.CountUpToSlots(slots, 2 * m, t, counts);
    for (size_t j = 0; j < m; ++j) {
      total += static_cast<double>(counts[2 * j]);
      total -= static_cast<double>(counts[2 * j + 1]);
    }
  }
  return total;
}

[[gnu::aligned(64)]] double EvaluateTransientCount(
    const FrozenTrackingForm& store, const std::vector<BoundaryEdge>& boundary,
    double t0, double t1) {
  // Mirrors EdgeCountStore::CountInRange term by term: the virtual path
  // accumulates (in(t1) - in(t0)) - (out(t1) - out(t0)) per edge.
  double total = 0.0;
  size_t slots[2 * kEdgeChunk];
  size_t at_t1[2 * kEdgeChunk];
  size_t at_t0[2 * kEdgeChunk];
  size_t num_edges = boundary.size();
  for (size_t base = 0; base < num_edges; base += kEdgeChunk) {
    size_t m = std::min(kEdgeChunk, num_edges - base);
    for (size_t j = 0; j < m; ++j) {
      const BoundaryEdge& b = boundary[base + j];
      slots[2 * j] = FrozenTrackingForm::Slot(b.edge, b.inward_is_forward);
      slots[2 * j + 1] =
          FrozenTrackingForm::Slot(b.edge, !b.inward_is_forward);
    }
    store.CountUpToSlots(slots, 2 * m, t1, at_t1);
    store.CountUpToSlots(slots, 2 * m, t0, at_t0);
    for (size_t j = 0; j < m; ++j) {
      total += static_cast<double>(at_t1[2 * j]) -
               static_cast<double>(at_t0[2 * j]);
      total -= static_cast<double>(at_t1[2 * j + 1]) -
               static_cast<double>(at_t0[2 * j + 1]);
    }
  }
  return total;
}

namespace {

// Adds sign * (events <= times[k]) of one slot into out[0..count): a single
// merge pass — the cursor only ever advances because `times` is ascending.
// The first instant is one UpperBound over the whole span, whose early-outs
// and first halving steps read the lines PrefetchSlot already fetched. Each
// later advance gallops from the cursor to bracket the crossing, then
// resolves the bracket with UpperBound, so dense series steps cost a couple
// of compares and sparse ones O(log gap). Requires count >= 1.
void AccumulateSlotSeries(const FrozenTrackingForm& store, size_t slot,
                          double sign, const double* times, size_t count,
                          double* out) {
  const double* seq = store.SlotBegin(slot);
  size_t n = static_cast<size_t>(store.SlotEnd(slot) - seq);
  size_t cursor = FrozenTrackingForm::UpperBound(seq, n, times[0]);
  out[0] += sign * static_cast<double>(cursor);
  for (size_t k = 1; k < count; ++k) {
    const double t = times[k];
    const double* p = seq + cursor;
    size_t rest = n - cursor;
    if (rest > 0 && p[0] <= t) {
      // p[0] <= t: double the step until an element > t (or the end)
      // brackets the crossing in [bound / 2 + 1, min(bound, rest)).
      size_t bound = 1;
      while (bound < rest && p[bound] <= t) bound <<= 1;
      size_t lo = (bound >> 1) + 1;
      size_t hi = bound < rest ? bound : rest;
      cursor += lo + FrozenTrackingForm::UpperBound(p + lo, hi - lo, t);
    }
    out[k] += sign * static_cast<double>(cursor);
  }
}

}  // namespace

[[gnu::aligned(64)]] void EvaluateStaticCountBatch(
    const FrozenTrackingForm& store, const std::vector<BoundaryEdge>& boundary,
    const double* times, size_t count, double* out) {
  for (size_t k = 0; k + 1 < count; ++k) {
    INNET_DCHECK(times[k] <= times[k + 1]);
  }
  for (size_t k = 0; k < count; ++k) out[k] = 0.0;
  if (count == 0) return;
  size_t num_edges = boundary.size();
  for (size_t i = 0; i < num_edges; ++i) {
    if (i + 1 < num_edges) {
      const BoundaryEdge& next = boundary[i + 1];
      store.PrefetchSlot(FrozenTrackingForm::Slot(next.edge, true));
      store.PrefetchSlot(FrozenTrackingForm::Slot(next.edge, false));
    }
    const BoundaryEdge& b = boundary[i];
    AccumulateSlotSeries(store,
                         FrozenTrackingForm::Slot(b.edge, b.inward_is_forward),
                         1.0, times, count, out);
    AccumulateSlotSeries(
        store, FrozenTrackingForm::Slot(b.edge, !b.inward_is_forward), -1.0,
        times, count, out);
  }
}

// Defined here (not tracking_form.cc) so TrackingForm's translation unit
// does not depend on the frozen layout.
FrozenTrackingForm TrackingForm::Freeze() const {
  return FrozenTrackingForm(*this);
}

}  // namespace innet::forms
