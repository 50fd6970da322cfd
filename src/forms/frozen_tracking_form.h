// Frozen (read-optimized) tracking forms: the CSR counterpart of
// TrackingForm for the serving hot path.
//
// TrackingForm stores one std::vector<double> per (edge, direction) — ideal
// for append-order ingestion, hostile to query scans: every CountUpTo pays
// a virtual call, two pointer dereferences, and a binary search over a heap
// block that shares no cache lines with its neighbours. Freezing rewrites
// the store into a bare CSR:
//
//   - ONE contiguous timestamp array (`times_`, CSR values), slot-major, and
//   - per-(edge, direction) row pointers (`offsets_`), the only index.
//
// Every read is one upper bound over one slot's sorted span (UpperBound):
// early-outs on the span's first and last timestamp, a branchless halving
// down to a small window, and a counting loop over that window that the
// compiler vectorizes. CountUpToSlots prefetches the next slot's lines so
// DRAM latency overlaps across a boundary loop instead of serializing per
// edge. Both copying constructors advise `times_` onto transparent huge
// pages before filling it, so at DRAM sizes a lookup's page walks hit the
// TLB instead of adding misses of their own.
//
// Counts are EXACTLY those of the source TrackingForm — integer-valued
// doubles, so every evaluation over a frozen store is bit-identical to the
// virtual path (tests/frozen_form_test.cc pins this). The frozen store is
// immutable: all reads are pure const and race-free across threads.
//
// The free-function kernels at the bottom are the devirtualized fast paths
// used by the query processors and runtime::BatchQueryEngine whenever the
// store they were handed is (dynamically) a FrozenTrackingForm; see
// docs/PERFORMANCE.md for the layout and measured costs.
#ifndef INNET_FORMS_FROZEN_TRACKING_FORM_H_
#define INNET_FORMS_FROZEN_TRACKING_FORM_H_

#include <cstdint>
#include <vector>

#include "forms/edge_count_store.h"
#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "graph/planar_graph.h"

namespace innet::forms {

/// One epoch's worth of new crossing events in slot-major CSR layout:
/// `times[offsets[s] .. offsets[s+1])` are the sorted-ascending new
/// timestamps for slot s (see FrozenTrackingForm::Slot). A slot with an
/// empty span is CLEAN — the incremental constructor reuses its previous
/// CSR range verbatim. Built by runtime::IngestPipeline's scatter→sort
/// pass; kept per-epoch so the delta stays proportional to the epoch's
/// event count, not the store size.
struct EpochDelta {
  std::vector<double> times;
  std::vector<uint64_t> offsets;  // num_slots + 1 row pointers.

  size_t NumSlots() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t TotalEvents() const { return times.size(); }
};

/// Immutable CSR tracking store. Build with TrackingForm::Freeze() (or the
/// constructor) after ingestion has stopped.
class FrozenTrackingForm : public EdgeCountStore {
 public:
  /// Span length at or below which UpperBound stops halving and counts.
  static constexpr size_t kCountWindow = 16;

  explicit FrozenTrackingForm(const TrackingForm& source);

  /// Rehydrates a frozen store from its persisted CSR arrays (snapshot
  /// load, io::LoadFrozenSnapshot). `offsets` must be monotone row pointers
  /// over an even slot count with offsets.back() == times.size(), and every
  /// slot's span must be sorted ascending — CHECK-enforced, so loaders
  /// validate before constructing. The result is bit-identical to the
  /// store the arrays were copied out of.
  FrozenTrackingForm(std::vector<double> times,
                     std::vector<uint64_t> offsets);

  /// Incremental re-freeze: `previous` extended by one epoch of new events.
  /// Runs of clean slots (no delta events) are one bulk copy plus a row-
  /// pointer shift; dirty slots merge the old span with the delta span (a
  /// straight append when the epoch starts at or after the slot's last
  /// stored timestamp). The result is bit-identical to a from-scratch
  /// Freeze() of the combined stream (tests/ingest_pipeline_test.cc pins
  /// this).
  FrozenTrackingForm(const FrozenTrackingForm& previous,
                     const EpochDelta& delta);

  size_t num_edges() const { return offsets_.size() / 2; }
  size_t TotalEvents() const { return times_.size(); }

  /// CSR slot of (road, direction). Forward and backward sequences of one
  /// road are adjacent, so both directions of a boundary edge share cache
  /// lines.
  static size_t Slot(graph::EdgeId road, bool forward) {
    return 2 * static_cast<size_t>(road) + (forward ? 0 : 1);
  }

  /// Events recorded on `road` in the given direction.
  size_t EventCount(graph::EdgeId road, bool forward) const {
    size_t s = Slot(road, forward);
    return offsets_[s + 1] - offsets_[s];
  }

  /// Begin/end of one slot's sorted timestamp span.
  const double* SlotBegin(size_t slot) const {
    return times_.data() + offsets_[slot];
  }
  const double* SlotEnd(size_t slot) const {
    return times_.data() + offsets_[slot + 1];
  }

  /// Number of elements of the SORTED span [p, p+n) with value <= t, i.e.
  /// std::upper_bound(p, p+n, t) - p; a NaN probe returns 0. Early-outs on
  /// the first and last element (live readers probe near a slot's tail),
  /// then halves branchlessly down to at most kCountWindow elements and
  /// counts those with a loop the compiler vectorizes.
  static size_t UpperBound(const double* p, size_t n, double t) {
    if (n == 0 || !(p[0] <= t)) return 0;  // Also every NaN probe.
    if (p[n - 1] <= t) return n;
    // Invariant: everything before `base` is <= t, everything at or after
    // base + n is > t.
    const double* base = p;
    while (n > kCountWindow) {
      size_t half = n / 2;
      base = base[half - 1] <= t ? base + half : base;
      n -= half;
    }
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) count += base[i] <= t ? 1 : 0;
    return static_cast<size_t>(base - p) + count;
  }

  /// Devirtualized count lookup: events on `slot` with timestamp <= t.
  /// Exact (bit-identical to the source TrackingForm's binary search).
  size_t CountUpToSlot(size_t slot, double t) const {
    size_t begin = offsets_[slot];
    return UpperBound(times_.data() + begin, offsets_[slot + 1] - begin, t);
  }

  /// Batched multi-slot lookup: out[i] = CountUpToSlot(slots[i], t), with
  /// the next slot's first, middle and last timestamp lines prefetched so
  /// their cache misses overlap the current lookup. Callers get the most
  /// out of it by passing slots in ascending id order (SampledGraph emits
  /// boundaries that way); any order is correct.
  void CountUpToSlots(const size_t* slots, size_t count, double t,
                      size_t* out) const;

  /// Hints the lines a CountUpToSlot of `slot` reads first: the span's
  /// first, middle and last timestamps.
  void PrefetchSlot(size_t slot) const {
    const double* begin = SlotBegin(slot);
    size_t n = offsets_[slot + 1] - offsets_[slot];
    __builtin_prefetch(begin);
    __builtin_prefetch(begin + n / 2);
    __builtin_prefetch(begin + (n == 0 ? 0 : n - 1));
  }

  /// Devirtualized per-edge count (the non-virtual twin of
  /// EdgeCountStore::CountUpTo).
  double CountUpToFast(graph::EdgeId road, bool forward, double t) const {
    return static_cast<double>(CountUpToSlot(Slot(road, forward), t));
  }

  // EdgeCountStore. Provenance and storage report the timestamp sequences,
  // identical to the source TrackingForm, so frozen and unfrozen deployments
  // explain and account identically (IndexBytes() reports the row pointers).
  StoreProvenance Provenance() const override {
    return {"exact", 0, TotalEvents()};
  }
  double CountUpTo(graph::EdgeId road, bool forward,
                   double t) const override {
    return CountUpToFast(road, forward, t);
  }
  size_t StorageBytes() const override {
    return TotalEvents() * sizeof(double);
  }
  size_t StorageBytesForEdge(graph::EdgeId road) const override {
    return (EventCount(road, true) + EventCount(road, false)) *
           sizeof(double);
  }

  /// In-memory footprint of the index: the CSR row-pointer array.
  size_t IndexBytes() const { return offsets_.size() * sizeof(uint64_t); }

  /// The persisted representation (snapshot save): raw CSR arrays.
  const std::vector<double>& RawTimes() const { return times_; }
  const std::vector<uint64_t>& RawOffsets() const { return offsets_; }

 private:
  std::vector<double> times_;     // CSR values: all timestamps, slot-major.
  std::vector<uint64_t> offsets_; // CSR row pointers, size 2*num_edges + 1.
};

/// Fused static count (Thm 4.2) over a frozen store: one non-virtual,
/// cache-resident pass over the boundary, chunked through the prefetch-
/// pipelined CountUpToSlots. Bit-identical to the EdgeCountStore overload
/// in region_count.h (counts are integer-valued doubles, so the sum is
/// order-independent-exact).
double EvaluateStaticCount(const FrozenTrackingForm& store,
                           const std::vector<BoundaryEdge>& boundary,
                           double t);

/// Fused transient count (Thm 4.3) over a frozen store.
double EvaluateTransientCount(const FrozenTrackingForm& store,
                              const std::vector<BoundaryEdge>& boundary,
                              double t0, double t1);

/// Batch static-count kernel: evaluates the boundary at `count` query times
/// in ASCENDING order, writing out[k] = static count at times[k]. One merge
/// pass per (edge, direction): the first instant is one UpperBound over the
/// slot's span, and each later one gallops forward from the previous
/// cursor, so each slot's event array is walked once for the whole series
/// instead of `count` independent searches. Exactly equals calling
/// EvaluateStaticCount per time (integer arithmetic, no rounding).
void EvaluateStaticCountBatch(const FrozenTrackingForm& store,
                              const std::vector<BoundaryEdge>& boundary,
                              const double* times, size_t count, double* out);

}  // namespace innet::forms

#endif  // INNET_FORMS_FROZEN_TRACKING_FORM_H_
