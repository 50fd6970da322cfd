// Traced replays (`--trace 1`): the per-layer breakdown.
//
// The end-to-end metrics come from untraced runs. A traced run repeats the
// workload and then replays the same query instances, and the same kind of
// event stream, through each layer's public calls with spans around every
// call, so the layers' self times add up to the replay's wall time (the
// rest is reported as unattributed).
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/sampled_graph.h"
#include "forms/frozen_tracking_form.h"
#include "harness.h"

namespace perfbench {

/// Expected answers of a query set: values[offsets[i] .. offsets[i + 1])
/// answer op i (one value for a count, kSeriesSteps for a panel, none for
/// a missed panel).
struct Expected {
  std::vector<double> values;
  std::vector<size_t> offsets{0};

  void Append(const std::vector<double>& answer) {
    values.insert(values.end(), answer.begin(), answer.end());
    offsets.push_back(values.size());
  }
  bool Matches(size_t op, const double* answer, size_t count) const;
};

/// Replays `ops` against `store` three times: direct layer calls without
/// spans, the same with spans (core.resolve, core.boundary,
/// forms.integrate, forms.series), and through a fresh serial
/// BatchQueryEngine. Resolved boundaries are reused per region the way the
/// engine's cache reuses them; `flush_every` > 0 drops them every that many
/// ops, mirroring store swaps. Every direct answer is checked against
/// `expected` when given, and always against the engine's answer. Adds the
/// read-path per-layer metrics to `result`.
void ReplayReads(const innet::core::SampledGraph& graph,
                 const innet::forms::FrozenTrackingForm& store,
                 const std::vector<innet::core::RangeQuery>& regions,
                 const std::vector<QueryOp>& ops, size_t flush_every,
                 const Expected* expected, SpanLog* spans, Result* result);

/// Where a write replay starts and what it streams.
struct WriteReplaySpec {
  /// Stream in delivery order (jittered; see Jittered()).
  const std::vector<CrossingEvent>* stream = nullptr;
  /// Event-time epoch boundaries are first_boundary + k * epoch_len.
  double first_boundary = 0.0;
  double epoch_len = 0.0;
  size_t num_edges = 0;
  /// WAL directory to resume (empty: start an empty durable store in
  /// `wal_dir`).
  std::string resume_from;
  std::string wal_dir;
  /// Report the median Recover() time of the resulting WAL as
  /// runtime.recovery_s (workloads whose set-up has no recovery of its own).
  bool report_recovery = true;
};

/// Streams `spec.stream` through EventReorderBuffer -> IngestPipeline
/// (WAL with fsync on commit) as fast as it goes, one epoch close in
/// flight, under one `write.replay` span, timing the buffer, the pushes and
/// the waits for earlier closes per event; then recovers the resulting WAL. Adds the write-path per-layer
/// metrics to `result` and fails it on drops, rejects, WAL errors, or a
/// recovered store that differs from the published one.
void ReplayWrites(const WriteReplaySpec& spec, SpanLog* spans,
                  Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
