// ingest_live: restart-to-ready, then live durable ingest under a paced
// reader.
//
// The generator first writes a base history (8 replicas of the day) through
// a durable pipeline, snapshots included, before any timing. Set-up is
// RecoveryManager::Resume over a fresh copy of that WAL. The measured phase
// streams 8 more time-shifted replicas through EventReorderBuffer ->
// EpochFeeder -> IngestPipeline (WAL on, fsync on every commit), paced so
// the stream lasts --seconds, while a reader thread follows the published
// store at a fixed rate, querying recent windows.
#include <atomic>
#include <filesystem>
#include <thread>

#include "core/event_buffer.h"
#include "core/query_processor.h"
#include "feeder.h"
#include "obs/metrics.h"
#include "replay.h"
#include "runtime/batch_query_engine.h"
#include "runtime/ingest_pipeline.h"
#include "runtime/recovery.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using innet::core::BoundMode;
using innet::core::CountKind;
using innet::core::RangeQuery;

namespace {

/// Pipeline options of every live pipeline in this workload.
innet::runtime::IngestPipelineOptions LiveOptions(
    innet::obs::MetricsRegistry* registry, const std::string& wal_dir,
    size_t snapshot_every) {
  innet::runtime::IngestPipelineOptions options;
  options.shards = 1;  // One writer; the snip is then a prefix of pushes.
  options.registry = registry;
  options.durability.wal_dir = wal_dir;
  options.durability.fsync = true;
  options.durability.snapshot_every_epochs = snapshot_every;
  return options;
}

/// Serving state of one set-up repetition.
struct Live {
  innet::obs::MetricsRegistry registry;
  std::unique_ptr<innet::core::Deployment> dep;
  std::unique_ptr<innet::runtime::IngestPipeline> pipeline;
  std::unique_ptr<innet::runtime::BatchQueryEngine> engine;
  std::unique_ptr<innet::core::SampledQueryProcessor> panels;
};

/// One reader query (`q` materialized from `op`). Answers depend on which
/// generation the reader saw, so they are not checked; the identity checks
/// at the end cover the store they come from.
void Answer(const Live& live, const RangeQuery& q, const QueryOp& op) {
  if (op.kind == OpKind::kSeries) {
    live.panels->AnswerSeries(q, op.bound, kSeriesSteps);
    return;
  }
  live.engine->Answer(q,
                      op.kind == OpKind::kStatic ? CountKind::kStatic
                                                 : CountKind::kTransient,
                      op.bound);
}

}  // namespace

Result RunIngestLive(const Args& args) {
  Result result;
  World world = MakeWorld(args.tiny);
  const size_t base_replicas = args.tiny ? 1 : 8;
  const size_t live_replicas = args.tiny ? 1 : 8;
  const double epoch_len = world.period / 15.0;
  const double reader_hz = args.tiny ? 200.0 : 2000.0;
  const double recent_s = std::min(1800.0, world.period / 4.0);

  std::string root = args.work_dir + "/ingest_live";
  std::string base_dir = root + "/base_wal";
  std::string wal_dir = root + "/wal";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);

  std::vector<CrossingEvent> base_stream;
  for (size_t r = 0; r < base_replicas; ++r) AppendReplica(world, r, &base_stream);
  std::vector<CrossingEvent> live_stream;
  for (size_t r = 0; r < live_replicas; ++r) {
    AppendReplica(world, base_replicas + r, &live_stream);
  }
  std::vector<CrossingEvent> live_delivery =
      Jittered(live_stream, 2.0, args.seed ^ 0x11feULL);
  const double live_t0 = double(base_replicas) * world.period;
  const double live_span = double(live_replicas) * world.period;
  const double speedup = live_span / args.seconds;  // Event s per wall s.

  // Generator: the base history, durable, with snapshots, untimed.
  {
    innet::obs::MetricsRegistry registry;
    innet::runtime::IngestPipeline pipeline(
        world.num_edges, LiveOptions(&registry, base_dir, 16));
    EpochFeeder feeder(&pipeline, epoch_len, epoch_len, false);
    innet::core::EventReorderBuffer buffer(
        5.0, [&feeder](const CrossingEvent& e) { feeder.Accept(e); });
    for (const CrossingEvent& e :
         Jittered(base_stream, 2.0, args.seed ^ 0xba5eULL)) {
      buffer.Push(e);
    }
    buffer.Flush();
    feeder.Finish();
    result.Fail(buffer.Dropped(), "generator: base history dropped events");
  }

  // Reader instances, fixed before timing: query j is due j / reader_hz
  // seconds into the phase and asks about the half hour of event time
  // leading up to the stream position due at that moment.
  std::vector<RangeQuery> regions =
      MakeRegions(world, {0.02, 0.04, 0.08}, 512, 0.0, 1.0, 0.0, 1.0,
                  args.seed ^ 0x2eadULL);
  std::vector<QueryOp> reader_ops;
  {
    innet::util::Rng rng(args.seed ^ 0x0b5ULL);
    size_t count = static_cast<size_t>((args.seconds * 1.5 + 5.0) * reader_hz);
    const OpKind kinds[4] = {OpKind::kStatic, OpKind::kStatic,
                             OpKind::kTransient, OpKind::kSeries};
    for (size_t j = 0; j < count; ++j) {
      QueryOp op;
      op.region = static_cast<uint32_t>(rng.UniformIndex(regions.size()));
      op.kind = kinds[j % 4];
      op.bound = j % 4 == 1 ? BoundMode::kUpper : BoundMode::kLower;
      op.t2 = live_t0 + double(j) / reader_hz * speedup;
      op.t1 = op.t2 - recent_s;
      reader_ops.push_back(op);
    }
  }

  // Set-up: restart-to-ready, three times over fresh copies of the base
  // WAL; the last repetition serves the measured phase.
  std::unique_ptr<Live> live;
  std::vector<double> setup_s, deploy_s;
  RangeQuery q;
  for (int rep = 0; rep < 3; ++rep) {
    live.reset();
    fs::remove_all(wal_dir, ec);
    fs::copy(base_dir, wal_dir, fs::copy_options::recursive);
    live = std::make_unique<Live>();
    int64_t t0 = NowNs();
    live->dep = std::make_unique<innet::core::Deployment>(Deploy(world));
    int64_t t1 = NowNs();
    innet::runtime::RecoveryOptions recovery;
    recovery.wal_dir = wal_dir;
    recovery.num_edges = world.num_edges;
    recovery.registry = &live->registry;
    auto resumed = innet::runtime::RecoveryManager(recovery).Resume(
        LiveOptions(&live->registry, wal_dir, 0));
    if (!resumed.ok()) {
      result.Fail(1, "resume failed: " + resumed.status().ToString());
      return result;
    }
    live->pipeline = std::move(*resumed);
    innet::runtime::BatchEngineOptions options;
    options.num_threads = 0;
    live->engine = std::make_unique<innet::runtime::BatchQueryEngine>(
        live->dep->graph(), live->pipeline->handle(), options);
    live->panels = std::make_unique<innet::core::SampledQueryProcessor>(
        live->dep->graph(), live->pipeline->handle());
    for (size_t j = 0; j < 8; ++j) {
      Materialize(regions, reader_ops[j], &q);
      Answer(*live, q, reader_ops[j]);
    }
    live->engine->ResetStats();
    int64_t t2 = NowNs();
    setup_s.push_back(1e-9 * double(t2 - t0));
    deploy_s.push_back(1e-9 * double(t1 - t0));
  }
  const uint64_t base_events =
      live->pipeline->handle().Acquire().store->TotalEvents();

  // Measured phase.
  EpochFeeder feeder(live->pipeline.get(), live_t0 + epoch_len, epoch_len,
                     false);
  std::atomic<uint64_t> final_total{UINT64_MAX};
  std::vector<std::pair<int64_t, uint64_t>> seen;  // (ns, store events)
  std::vector<double> latency_ms;  // Send to answer.
  std::vector<double> late_ms;     // Scheduled time to send.
  // Size the logs up front so the phase allocates nothing of its own.
  feeder.Reserve(live_delivery.size());
  seen.reserve(reader_ops.size());
  latency_ms.reserve(reader_ops.size());
  late_ms.reserve(reader_ops.size());
  double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs() + 2'000'000;
  std::thread reader([&] {
    RangeQuery rq;
    uint64_t generation = 0;
    const double period_ns = 1e9 / reader_hz;
    for (size_t j = 0; j < reader_ops.size(); ++j) {
      Materialize(regions, reader_ops[j], &rq);
      int64_t due = start + static_cast<int64_t>(double(j) * period_ns);
      int64_t now = NowNs();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      uint64_t g = live->pipeline->handle().Generation();
      if (g != generation) {
        auto snap = live->pipeline->handle().Acquire();
        generation = snap.generation;
        seen.emplace_back(NowNs(), snap.store->TotalEvents());
      }
      int64_t sent = NowNs();
      Answer(*live, rq, reader_ops[j]);
      latency_ms.push_back(1e-6 * double(NowNs() - sent));
      late_ms.push_back(1e-6 * double(sent - due));
      if (!seen.empty() && seen.back().second >= final_total.load()) break;
    }
  });
  size_t dropped = 0;
  {
    innet::core::EventReorderBuffer buffer(
        5.0, [&feeder](const CrossingEvent& e) { feeder.Accept(e); });
    for (const CrossingEvent& e : live_delivery) {
      int64_t due =
          start + static_cast<int64_t>((e.time - live_t0) / speedup * 1e9);
      int64_t now = NowNs();
      if (due > now + 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      buffer.Push(e);
    }
    buffer.Flush();
    dropped = buffer.Dropped() + buffer.Duplicates();
    feeder.Finish();
  }
  final_total.store(base_events + feeder.pushed().size());
  reader.join();
  const int64_t end = NowNs();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  innet::runtime::BatchEngineSnapshot snap = live->engine->Snapshot();

  // Freshness per event: push -> first reader observation of a store that
  // holds it (the store holds a prefix of the push order).
  std::vector<double> fresh_ms;
  fresh_ms.reserve(feeder.pushed().size());
  size_t k = 0;
  for (size_t i = 0; i < feeder.push_ns().size(); ++i) {
    while (k < seen.size() && seen[k].second < base_events + i + 1) ++k;
    if (k == seen.size()) break;
    fresh_ms.push_back(1e-6 * double(seen[k].first - feeder.push_ns()[i]));
  }

  uint64_t wal_errors =
      live->registry.GetCounter("innet_wal_errors_total").Value();
  result.attempted = live_delivery.size() + latency_ms.size();
  result.Fail(dropped, "reorder buffer dropped live events");
  result.Fail(feeder.rejected(), "pipeline rejected live events");
  result.Fail(wal_errors, "WAL errors");
  result.Fail(feeder.pushed().size() - fresh_ms.size(),
              "events never became visible to the reader");

  // Identity: the published store and the store recovered from this run's
  // WAL must both equal a scratch freeze of the admitted stream.
  int64_t r0 = NowNs();
  innet::forms::TrackingForm tracking(world.num_edges);
  size_t skip = args.perturb ? base_stream.size() / 2 : SIZE_MAX;
  for (size_t i = 0; i < base_stream.size(); ++i) {
    const CrossingEvent& e = base_stream[i];
    if (i != skip) tracking.RecordTraversal(e.edge, e.forward, e.time);
  }
  for (const CrossingEvent& e : feeder.pushed()) {
    tracking.RecordTraversal(e.edge, e.forward, e.time);
  }
  int64_t r1 = NowNs();
  innet::forms::FrozenTrackingForm scratch = tracking.Freeze();
  int64_t r2 = NowNs();
  std::shared_ptr<const innet::forms::FrozenTrackingForm> published =
      live->pipeline->handle().Acquire().store;
  result.attempted += 2;
  result.Fail(SameStore(*published, scratch) ? 0 : 1,
              "published store differs from the scratch freeze");
  uint64_t epochs = live->pipeline->EpochsPublished();
  result.Fail(epochs == feeder.closes() ? 0 : 1,
              "an epoch close did not publish");
  std::shared_ptr<innet::core::Deployment> dep = std::move(live->dep);
  live->panels.reset();
  live->engine.reset();
  live->pipeline.reset();
  {
    innet::runtime::RecoveryOptions recovery;
    recovery.wal_dir = wal_dir;
    recovery.num_edges = world.num_edges;
    recovery.registry = &live->registry;
    auto recovered = innet::runtime::RecoveryManager(recovery).Recover();
    result.Fail(recovered.ok() && SameStore(*recovered->store, scratch) ? 0 : 1,
                "store recovered from the run's WAL differs from the scratch "
                "freeze");
  }

  result.Note("world_s", std::to_string(world.world_s));
  result.Note("live_events", std::to_string(feeder.pushed().size()));
  result.Note("epochs", std::to_string(epochs));
  result.Note("phase_s", std::to_string(1e-9 * double(end - start)));
  result.Note("reader_queries", std::to_string(latency_ms.size()));
  // How late the reader ran (see README: on a shared VM an idle paced
  // thread alone sees millisecond wake-up stalls, so these stay a note).
  std::vector<double> from_due(latency_ms.size());
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    from_due[i] = latency_ms[i] + late_ms[i];
  }
  result.Note("reader_late_ms_p50_p99",
              std::to_string(Quantile(late_ms, 0.5)) + " " +
                  std::to_string(Quantile(late_ms, 0.99)));
  result.Note("reader_latency_from_due_ms_p50_p99",
              std::to_string(Quantile(from_due, 0.5)) + " " +
                  std::to_string(Quantile(from_due, 0.99)));
  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("ops_per_cpu_s", double(feeder.pushed().size()) / cpu_s, "1/s");
    result.Add("latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
    result.Add("latency_p99_ms", BlockedP99(latency_ms), "ms");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("rel_err_median",
               RelErrMedian(world, *dep, regions, reader_ops, 6000), "1");
    fs::remove_all(root, ec);
    return result;
  }

  // Traced run.
  double freeze_s = 1e-9 * double(r2 - r1);
  result.Add("freshness_p50_ms", Quantile(fresh_ms, 0.5), "ms");
  result.Add("freshness_p99_ms", Quantile(fresh_ms, 0.99), "ms");
  result.Add("setup.deploy_s", Median(deploy_s), "s");
  result.Add("forms.record_s", 1e-9 * double(r1 - r0), "s");
  result.Add("forms.freeze_s", freeze_s, "s");
  result.Add("forms.freeze.ns_per_event",
             1e9 * freeze_s / double(std::max<size_t>(1, scratch.TotalEvents())),
             "ns");
  result.Add("forms.store_bytes", double(published->StorageBytes()), "B");
  result.Add("forms.index_bytes", double(published->IndexBytes()), "B");
  uint64_t lookups = snap.cache_hits + snap.cache_misses;
  result.Add("runtime.cache.hit_ratio",
             lookups ? double(snap.cache_hits) / double(lookups) : 0.0, "1");
  result.Add("runtime.cache.store_invalidations",
             double(snap.store_invalidations), "count");
  std::vector<double> recover_s;
  for (int rep = 0; rep < 3; ++rep) {
    fs::remove_all(wal_dir, ec);
    fs::copy(base_dir, wal_dir, fs::copy_options::recursive);
    innet::runtime::RecoveryOptions recovery;
    recovery.wal_dir = wal_dir;
    recovery.num_edges = world.num_edges;
    recovery.registry = &live->registry;
    int64_t t = NowNs();
    auto state = innet::runtime::RecoveryManager(recovery).Recover();
    recover_s.push_back(1e-9 * double(NowNs() - t));
    result.Fail(state.ok() ? 0 : 1, "recovery of the base history failed");
  }
  result.Add("runtime.recovery_s", Median(recover_s), "s");

  // Read replay: the reader's instances against the final store, with the
  // cache dropped as often as the live run swapped stores.
  SpanLog spans;
  size_t per_epoch = static_cast<size_t>(
      std::max(1.0, reader_hz * epoch_len / speedup));
  std::vector<QueryOp> replay_ops(reader_ops.begin(),
                                  reader_ops.begin() + latency_ms.size());
  ReplayReads(dep->graph(), *published, regions, replay_ops, per_epoch,
              nullptr, &spans, &result);
  WriteReplaySpec spec;
  spec.stream = &live_delivery;
  spec.first_boundary = live_t0 + epoch_len;
  spec.epoch_len = epoch_len;
  spec.num_edges = world.num_edges;
  spec.resume_from = base_dir;
  spec.wal_dir = root + "/write_replay";
  spec.report_recovery = false;
  ReplayWrites(spec, &spans, &result);
  spans.WriteJsonLines(args.work_dir + "/spans.jsonl", args.workload);
  fs::remove_all(root, ec);
  return result;
}

}  // namespace perfbench
