// Tracking forms (§4.7.2): per directed sensor edge, the sequence of
// crossing-event timestamps γ⁺/γ⁻. This is the exact (non-learned) store.
#ifndef INNET_FORMS_TRACKING_FORM_H_
#define INNET_FORMS_TRACKING_FORM_H_

#include <vector>

#include "forms/edge_count_store.h"
#include "graph/planar_graph.h"

namespace innet::forms {

class FrozenTrackingForm;

/// Exact temporal tracking form: sorted timestamp sequences per edge and
/// direction, with binary-search count lookups. Lookups are pure const
/// reads (read-safe across threads once ingestion stops); RecordTraversal
/// needs external synchronization.
class TrackingForm : public EdgeCountStore {
 public:
  explicit TrackingForm(size_t num_edges);

  size_t num_edges() const { return forward_.size(); }

  /// Appends a crossing event (Eq. 8). Events on the same edge and direction
  /// must arrive in non-decreasing time order.
  void RecordTraversal(graph::EdgeId road, bool forward, double t);

  /// Number of events recorded on `road` in the given direction.
  size_t EventCount(graph::EdgeId road, bool forward) const {
    return Sequence(road, forward).size();
  }

  /// The raw timestamp sequence (sorted ascending).
  const std::vector<double>& Sequence(graph::EdgeId road, bool forward) const {
    return forward ? forward_[road] : backward_[road];
  }

  /// Total number of stored timestamps across all edges.
  size_t TotalEvents() const;

  /// Read-optimized snapshot for the serving hot path: contiguous CSR
  /// timestamps indexed by per-slot row pointers, with bit-identical
  /// counts (forms/frozen_tracking_form.h). Call after ingestion stops;
  /// later RecordTraversal calls do NOT propagate into the frozen copy.
  FrozenTrackingForm Freeze() const;

  // EdgeCountStore:
  StoreProvenance Provenance() const override {
    return {"exact", 0, TotalEvents()};
  }
  double CountUpTo(graph::EdgeId road, bool forward, double t) const override;
  size_t StorageBytes() const override;
  size_t StorageBytesForEdge(graph::EdgeId road) const override;

 private:
  std::vector<std::vector<double>> forward_;
  std::vector<std::vector<double>> backward_;
};

}  // namespace innet::forms

#endif  // INNET_FORMS_TRACKING_FORM_H_
