#include "replay.h"

#include <filesystem>
#include <memory>
#include <unordered_map>

#include "core/event_buffer.h"
#include "core/query_processor.h"
#include "core/query_workspace.h"
#include "feeder.h"
#include "forms/region_count.h"
#include "obs/metrics.h"
#include "runtime/batch_query_engine.h"
#include "runtime/ingest_pipeline.h"
#include "runtime/recovery.h"

namespace perfbench {

namespace fs = std::filesystem;
using innet::core::BoundMode;
using innet::core::CountKind;
using innet::core::RangeQuery;
using innet::forms::BoundaryEdge;

bool Expected::Matches(size_t op, const double* answer, size_t count) const {
  size_t begin = offsets[op];
  if (offsets[op + 1] - begin != count) return false;
  for (size_t i = 0; i < count; ++i) {
    if (values[begin + i] != answer[i]) return false;
  }
  return true;
}

namespace {

/// Evaluation instants of a series panel, exactly as AnswerSeries builds
/// them.
void SeriesTimes(double t1, double t2, double* out) {
  double span = t2 - t1;
  for (size_t i = 0; i < kSeriesSteps; ++i) {
    out[i] = t1 + span * static_cast<double>(i) /
                      static_cast<double>(kSeriesSteps - 1);
  }
}

/// One resolved region as the engine's boundary cache would hold it.
struct Resolved {
  size_t faces = 0;
  std::vector<BoundaryEdge> edges;
};

/// Totals of one direct pass.
struct DirectPass {
  double wall_s = 0.0;
  uint64_t faces = 0;
  uint64_t edges = 0;
  uint64_t integrated_edges = 0;
  uint64_t series_ops = 0;
  uint64_t mismatches = 0;
  Expected answers;
};

/// Runs every op through the layers' public calls. With `spans` each call
/// is wrapped in a span under a per-op root span.
DirectPass RunDirect(const innet::core::SampledGraph& graph,
                     const innet::forms::FrozenTrackingForm& store,
                     const std::vector<RangeQuery>& regions,
                     const std::vector<QueryOp>& ops, size_t flush_every,
                     const Expected* expected, SpanLog* spans) {
  DirectPass pass;
  innet::core::QueryWorkspace ws;
  std::unordered_map<uint64_t, Resolved> cache;
  double times[kSeriesSteps];
  double series[kSeriesSteps];
  uint32_t root = SpanLog::kNoParent;
  uint32_t s = 0;
  int64_t start = NowNs();
  for (size_t i = 0; i < ops.size(); ++i) {
    const QueryOp& op = ops[i];
    if (flush_every != 0 && i % flush_every == 0) cache.clear();
    if (spans) root = spans->Begin("read.op", i);
    uint64_t key = 2 * uint64_t{op.region} + (op.bound == BoundMode::kUpper);
    auto it = cache.find(key);
    if (it == cache.end()) {
      const std::vector<innet::graph::NodeId>& junctions =
          regions[op.region].junctions;
      if (spans) s = spans->Begin("core.resolve", i, root);
      if (op.bound == BoundMode::kLower) {
        graph.LowerBoundFaces(junctions, ws);
      } else {
        graph.UpperBoundFaces(junctions, ws);
      }
      if (spans) spans->End(s);
      Resolved r;
      r.faces = ws.faces.size();
      if (!ws.faces.empty()) {
        if (spans) s = spans->Begin("core.boundary", i, root);
        graph.BoundaryOfFaces(ws.faces, ws);
        if (spans) spans->End(s);
        r.edges = ws.boundary_edges;
      }
      it = cache.emplace(key, std::move(r)).first;
    }
    const Resolved& r = it->second;
    pass.faces += r.faces;
    pass.edges += r.edges.size();
    const double* answer = series;
    size_t count = 0;
    if (op.kind == OpKind::kSeries) {
      ++pass.series_ops;
      if (r.faces != 0) {
        SeriesTimes(op.t1, op.t2, times);
        if (spans) s = spans->Begin("forms.series", i, root);
        innet::forms::EvaluateStaticCountBatch(store, r.edges, times,
                                               kSeriesSteps, series);
        if (spans) spans->End(s);
        count = kSeriesSteps;
      }
    } else {
      series[0] = 0.0;
      count = 1;
      if (r.faces != 0) {
        pass.integrated_edges += r.edges.size();
        if (spans) s = spans->Begin("forms.integrate", i, root);
        series[0] = op.kind == OpKind::kStatic
                        ? innet::forms::EvaluateStaticCount(store, r.edges,
                                                            op.t2)
                        : innet::forms::EvaluateTransientCount(
                              store, r.edges, op.t1, op.t2);
        if (spans) spans->End(s);
      }
    }
    if (spans) spans->End(root);
    if (expected && !expected->Matches(i, answer, count)) ++pass.mismatches;
    pass.answers.Append(std::vector<double>(answer, answer + count));
  }
  pass.wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  return pass;
}

}  // namespace

void ReplayReads(const innet::core::SampledGraph& graph,
                 const innet::forms::FrozenTrackingForm& store,
                 const std::vector<RangeQuery>& regions,
                 const std::vector<QueryOp>& ops, size_t flush_every,
                 const Expected* expected, SpanLog* spans, Result* result) {
  DirectPass plain =
      RunDirect(graph, store, regions, ops, flush_every, expected, nullptr);
  DirectPass traced =
      RunDirect(graph, store, regions, ops, flush_every, expected, spans);
  result->Fail(traced.mismatches + plain.mismatches,
               "direct layer replay disagrees with the oracle");

  // The same instances through a fresh serial engine (cache cold at the
  // start, flushed at the same cadence as the direct replay).
  innet::runtime::BatchEngineOptions options;
  options.num_threads = 0;
  innet::runtime::BatchQueryEngine engine(graph, store, options);
  innet::core::SampledQueryProcessor processor(graph, store);
  RangeQuery q;
  uint64_t engine_mismatches = 0;
  int64_t engine_ns = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const QueryOp& op = ops[i];
    if (flush_every != 0 && i % flush_every == 0) engine.ClearCache();
    Materialize(regions, op, &q);
    std::vector<double> answer;
    int64_t start = NowNs();
    if (op.kind == OpKind::kSeries) {
      answer = processor.AnswerSeries(q, op.bound, kSeriesSteps);
    } else {
      answer.push_back(
          engine
              .Answer(q,
                      op.kind == OpKind::kStatic ? CountKind::kStatic
                                                 : CountKind::kTransient,
                      op.bound)
              .estimate);
    }
    engine_ns += NowNs() - start;
    if (!traced.answers.Matches(i, answer.data(), answer.size())) {
      ++engine_mismatches;
    }
  }
  result->Fail(engine_mismatches, "engine disagrees with direct layer calls");

  double n = static_cast<double>(std::max<size_t>(1, ops.size()));
  double resolve = spans->SelfSeconds("core.resolve");
  double boundary = spans->SelfSeconds("core.boundary");
  double integrate = spans->SelfSeconds("forms.integrate");
  double series = spans->SelfSeconds("forms.series");
  double layers = resolve + boundary + integrate + series;
  double wall = traced.wall_s;
  result->Add("core.resolve.self_ns_per_query", 1e9 * resolve / n, "ns");
  result->Add("core.resolve.faces_per_query", double(traced.faces) / n,
              "count");
  result->Add("core.boundary.self_ns_per_query", 1e9 * boundary / n, "ns");
  result->Add("core.boundary.edges_per_query", double(traced.edges) / n,
              "count");
  result->Add("forms.integrate.self_ns_per_query", 1e9 * integrate / n, "ns");
  result->Add("forms.integrate.ns_per_edge",
              1e9 * integrate /
                  double(std::max<uint64_t>(1, traced.integrated_edges)),
              "ns");
  result->Add("forms.series.self_ns_per_panel",
              1e9 * series / double(std::max<uint64_t>(1, traced.series_ops)),
              "ns");
  double engine_s = 1e-9 * static_cast<double>(engine_ns);
  result->Add("runtime.engine.ns_per_query", 1e9 * engine_s / n, "ns");
  result->Add("runtime.engine.overhead_ns_per_query",
              1e9 * (engine_s - layers) / n, "ns");
  result->Add("read.share.core", (resolve + boundary) / wall, "1");
  result->Add("read.share.forms", (integrate + series) / wall, "1");
  result->Add("read.share.unattributed", (wall - layers) / wall, "1");
  result->Add("read.trace_overhead", (traced.wall_s - plain.wall_s) / plain.wall_s,
              "1");
  result->attempted += 3 * ops.size();
}

void ReplayWrites(const WriteReplaySpec& spec, SpanLog* spans,
                  Result* result) {
  innet::obs::MetricsRegistry registry;
  innet::runtime::IngestPipelineOptions options;
  options.shards = 1;
  options.registry = &registry;
  options.durability.wal_dir = spec.wal_dir;
  options.durability.fsync = true;
  std::unique_ptr<innet::runtime::IngestPipeline> pipeline;
  std::error_code ec;
  fs::remove_all(spec.wal_dir, ec);
  if (spec.resume_from.empty()) {
    pipeline =
        std::make_unique<innet::runtime::IngestPipeline>(spec.num_edges, options);
  } else {
    fs::copy(spec.resume_from, spec.wal_dir, fs::copy_options::recursive);
    innet::runtime::RecoveryOptions recovery;
    recovery.wal_dir = spec.wal_dir;
    recovery.num_edges = spec.num_edges;
    recovery.registry = &registry;
    auto resumed = innet::runtime::RecoveryManager(recovery).Resume(options);
    if (!resumed.ok()) {
      result->Fail(1, "write replay could not resume: " +
                          resumed.status().ToString());
      return;
    }
    pipeline = std::move(*resumed);
  }
  uint64_t base_events = pipeline->handle().Acquire().store->TotalEvents();
  innet::obs::Histogram& refreeze = registry.GetHistogram(
      "innet_refreeze_duration_micros",
      innet::obs::Histogram::DurationBoundsMicros());
  innet::obs::Histogram& fsync = registry.GetHistogram(
      "innet_wal_fsync_micros", innet::obs::Histogram::DurationBoundsMicros());
  double refreeze_sum0 = refreeze.Sum();
  double fsync_sum0 = fsync.Sum();
  uint64_t wal_bytes0 = registry.GetCounter("innet_wal_bytes_total").Value();
  uint64_t commits0 = registry.GetCounter("innet_wal_epochs_committed").Value();

  EpochFeeder feeder(pipeline.get(), spec.first_boundary, spec.epoch_len,
                     /*time_pushes=*/true);
  const std::vector<CrossingEvent>& stream = *spec.stream;
  int64_t buffer_ns = 0;
  int64_t start = NowNs();
  uint32_t root = spans->Begin("write.replay", 0);
  size_t dropped = 0;
  {
    innet::core::EventReorderBuffer buffer(
        5.0, [&feeder](const CrossingEvent& e) { feeder.Accept(e); });
    for (const CrossingEvent& e : stream) {
      int64_t t = NowNs();
      buffer.Push(e);
      buffer_ns += NowNs() - t;
    }
    int64_t t = NowNs();
    buffer.Flush();
    buffer_ns += NowNs() - t;
    dropped = buffer.Dropped() + buffer.Duplicates();
    feeder.Finish();
  }
  int64_t end = NowNs();
  spans->End(root);
  // The buffer's time includes the pushes it triggered through the feeder;
  // the waits for earlier closes happen inside those pushes as well.
  double wait_s = feeder.backpressure_wait_s();
  double push_s = 1e-9 * static_cast<double>(feeder.push_total_ns());
  double buffer_s = 1e-9 * static_cast<double>(buffer_ns);
  double wall_s = 1e-9 * static_cast<double>(end - start);
  double events = static_cast<double>(std::max<size_t>(1, stream.size()));
  double refreeze_s = 1e-6 * (refreeze.Sum() - refreeze_sum0);
  double fsync_s = 1e-6 * (fsync.Sum() - fsync_sum0);
  uint64_t commits =
      registry.GetCounter("innet_wal_epochs_committed").Value() - commits0;
  uint64_t wal_bytes =
      registry.GetCounter("innet_wal_bytes_total").Value() - wal_bytes0;
  uint64_t epochs = pipeline->EpochsPublished();
  uint64_t wal_errors = registry.GetCounter("innet_wal_errors_total").Value();

  result->Add("core.event_buffer.ns_per_event",
              1e9 * (buffer_s - push_s - wait_s) / events, "ns");
  result->Add("runtime.ingest.push_ns_per_event", 1e9 * push_s / events, "ns");
  result->Add("runtime.ingest.backpressure_wait_s", wait_s, "s");
  std::vector<double> visible = feeder.EpochVisibleMs();
  result->Add("runtime.ingest.epoch_visible_ms_p50", Quantile(visible, 0.5),
              "ms");
  result->Add("runtime.ingest.epoch_visible_ms_p99", Quantile(visible, 0.99),
              "ms");
  result->Add("runtime.ingest.epochs_published", double(epochs), "count");
  result->Add("forms.refreeze.us_p50", refreeze.Percentile(0.5), "us");
  result->Add("forms.refreeze.us_p99", refreeze.Percentile(0.99), "us");
  result->Add("io.wal.fsync_us_p50", fsync.Percentile(0.5), "us");
  result->Add("io.wal.fsync_us_p99", fsync.Percentile(0.99), "us");
  result->Add("io.wal.bytes_per_event", double(wal_bytes) / events, "B");
  result->Add("io.wal.commits", double(commits), "count");
  // Writer-side shares of the replay's wall time, plus the freezer's busy
  // share (re-freeze wall time includes its WAL commit).
  result->Add("write.share.backpressure", wait_s / wall_s, "1");
  result->Add("write.share.writer_busy", (buffer_s - wait_s) / wall_s, "1");
  result->Add("write.share.refreeze_wal", refreeze_s / wall_s, "1");
  result->Add("write.share.fsync", fsync_s / wall_s, "1");
  result->Note("write_replay", std::to_string(stream.size()) + " events, " +
                                   std::to_string(epochs) + " epochs in " +
                                   std::to_string(wall_s) + " s");

  result->attempted += stream.size();
  result->Fail(dropped, "write replay: reorder buffer dropped events");
  result->Fail(feeder.rejected(), "write replay: pipeline rejected events");
  result->Fail(wal_errors, "write replay: WAL errors");
  result->Fail(epochs != feeder.closes() ? 1 : 0,
               "write replay: an epoch close did not publish");
  if (base_events + feeder.pushed().size() !=
      pipeline->handle().Acquire().store->TotalEvents()) {
    result->Fail(1, "write replay: published store lost events");
  }

  // Restart-to-ready over the WAL this replay wrote: the recovered store
  // must equal the published one.
  std::shared_ptr<const innet::forms::FrozenTrackingForm> published =
      pipeline->handle().Acquire().store;
  pipeline.reset();
  innet::runtime::RecoveryOptions recovery;
  recovery.wal_dir = spec.wal_dir;
  recovery.num_edges = spec.num_edges;
  recovery.registry = &registry;
  std::vector<double> recover_s;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t t = NowNs();
    auto state = innet::runtime::RecoveryManager(recovery).Recover();
    recover_s.push_back(1e-9 * static_cast<double>(NowNs() - t));
    if (!state.ok() || !SameStore(*state->store, *published)) {
      result->Fail(1, "write replay: recovered store differs");
      break;
    }
  }
  if (spec.report_recovery) {
    result->Add("runtime.recovery_s", Median(recover_s), "s");
  }
  fs::remove_all(spec.wal_dir, ec);
}

}  // namespace perfbench
