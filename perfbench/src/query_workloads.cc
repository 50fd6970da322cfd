// The two closed-loop query workloads.
//
//   dashboard_dram  one client refreshes a fixed dashboard over the day
//                   replicated by time shift to ~48M events (CSR timestamps
//                   > 3x the 105 MiB L3). Tiles repeat, so the boundary
//                   cache hits and the frozen-store lookups in DRAM are the
//                   work.
//   adhoc_l2        one client sends fresh regions over the single day
//                   (~1.5 MB of timestamps, L2-resident). Every region is
//                   new to the cache, so region resolution is the work.
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/query_processor.h"
#include "replay.h"
#include "runtime/batch_query_engine.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using innet::core::BoundMode;
using innet::core::CountKind;
using innet::core::RangeQuery;

namespace {

/// Consecutive ops answered by one engine call: a same-(kind, bound) batch
/// of counts (AnswerBatch, or Answer for a single query) or one series
/// panel (AnswerSeries).
struct Call {
  OpKind kind = OpKind::kStatic;
  BoundMode bound = BoundMode::kLower;
  size_t first_op = 0;
  std::vector<RangeQuery> queries;
};

/// One latency sample: a dashboard refresh or one ad-hoc query.
struct Group {
  size_t first_call = 0;
  size_t end_call = 0;
  size_t ops = 0;
};

struct Plan {
  std::vector<RangeQuery> regions;
  std::vector<QueryOp> ops;
  std::vector<Call> calls;
  std::vector<Group> groups;
  size_t replicas = 1;
  size_t warmup_groups = 0;
  Expected expected;
};

/// Splits ops into calls and groups; `group_size` ops per group.
void BuildCalls(size_t group_size, Plan* plan) {
  for (size_t g = 0; g * group_size < plan->ops.size(); ++g) {
    Group group;
    group.first_call = plan->calls.size();
    size_t end = std::min(plan->ops.size(), (g + 1) * group_size);
    for (size_t i = g * group_size; i < end; ++i) {
      const QueryOp& op = plan->ops[i];
      bool extend = !plan->calls.empty() &&
                    plan->calls.size() > group.first_call &&
                    op.kind != OpKind::kSeries &&
                    plan->calls.back().kind == op.kind &&
                    plan->calls.back().bound == op.bound;
      if (!extend) {
        Call call;
        call.kind = op.kind;
        call.bound = op.bound;
        call.first_op = i;
        plan->calls.push_back(std::move(call));
      }
      RangeQuery q;
      Materialize(plan->regions, op, &q);
      plan->calls.back().queries.push_back(std::move(q));
    }
    group.end_call = plan->calls.size();
    group.ops = end - g * group_size;
    plan->groups.push_back(group);
  }
}

/// Serving state built by one set-up repetition.
struct Serving {
  std::unique_ptr<innet::core::Deployment> dep;
  std::unique_ptr<innet::forms::TrackingForm> tracking;
  std::unique_ptr<innet::forms::FrozenTrackingForm> frozen;
  std::unique_ptr<innet::runtime::BatchQueryEngine> engine;
  std::unique_ptr<innet::core::SampledQueryProcessor> panels;

  /// Tears down readers before what they reference.
  void Reset() {
    panels.reset();
    engine.reset();
    frozen.reset();
    tracking.reset();
    dep.reset();
  }
};

CountKind KindOf(OpKind kind) {
  return kind == OpKind::kTransient ? CountKind::kTransient
                                    : CountKind::kStatic;
}

/// Answers one group through the serving path; returns the number of
/// answers that differ from the expected ones (0 when `check` is false).
uint64_t Execute(const Plan& plan, const Group& group, const Serving& s,
                 bool check) {
  uint64_t bad = 0;
  for (size_t c = group.first_call; c < group.end_call; ++c) {
    const Call& call = plan.calls[c];
    if (call.kind == OpKind::kSeries) {
      for (size_t i = 0; i < call.queries.size(); ++i) {
        std::vector<double> v =
            s.panels->AnswerSeries(call.queries[i], call.bound, kSeriesSteps);
        bad += check &&
               !plan.expected.Matches(call.first_op + i, v.data(), v.size());
      }
    } else if (call.queries.size() == 1) {
      double v =
          s.engine->Answer(call.queries[0], KindOf(call.kind), call.bound)
              .estimate;
      bad += check && !plan.expected.Matches(call.first_op, &v, 1);
    } else {
      std::vector<innet::core::QueryAnswer> answers =
          s.engine->AnswerBatch(call.queries, KindOf(call.kind), call.bound);
      for (size_t i = 0; i < answers.size(); ++i) {
        bad += check && !plan.expected.Matches(call.first_op + i,
                                               &answers[i].estimate, 1);
      }
    }
  }
  return bad;
}

/// Timings of one set-up repetition.
struct SetupTimes {
  double total_s = 0.0;
  double deploy_s = 0.0;
  double record_s = 0.0;
  double freeze_s = 0.0;
  double fresh_p50_ms = 0.0;
  double fresh_p99_ms = 0.0;
};

/// Generated inputs to ready-to-serve: deploy, record, freeze, engine,
/// warm-up. Replaces `s`.
SetupTimes SetUp(const World& world, const Plan& plan, Serving* s) {
  s->Reset();
  SetupTimes t;
  int64_t t0 = NowNs();
  s->dep = std::make_unique<innet::core::Deployment>(Deploy(world));
  int64_t t1 = NowNs();
  s->tracking = std::make_unique<innet::forms::TrackingForm>(world.num_edges);
  size_t events = world.day.size() * plan.replicas;
  size_t chunk = std::max<size_t>(1, events / 1024);
  std::vector<int64_t> stamps;
  RecordReplicas(world, plan.replicas, chunk, s->tracking.get(), &stamps);
  int64_t t2 = NowNs();
  s->frozen = std::make_unique<innet::forms::FrozenTrackingForm>(
      s->tracking->Freeze());
  int64_t t3 = NowNs();
  innet::runtime::BatchEngineOptions options;
  options.num_threads = 0;  // Serial: innet_query's default engine.
  s->engine = std::make_unique<innet::runtime::BatchQueryEngine>(
      s->dep->graph(), *s->frozen, options);
  s->panels = std::make_unique<innet::core::SampledQueryProcessor>(
      s->dep->graph(), *s->frozen);
  int64_t first_answer = 0;
  for (size_t g = 0; g < plan.warmup_groups; ++g) {
    Execute(plan, plan.groups[g % plan.groups.size()], *s, false);
    if (g == 0) first_answer = NowNs();
  }
  s->engine->ResetStats();
  int64_t t4 = NowNs();
  t.total_s = 1e-9 * double(t4 - t0);
  t.deploy_s = 1e-9 * double(t1 - t0);
  t.record_s = 1e-9 * double(t2 - t1);
  t.freeze_s = 1e-9 * double(t3 - t2);
  // Bulk-load freshness: from an event's RecordTraversal to the first
  // answer served from the store that holds it.
  std::vector<double> fresh;
  for (int64_t stamp : stamps) fresh.push_back(1e-6 * double(first_answer - stamp));
  t.fresh_p50_ms = Quantile(fresh, 0.5);
  t.fresh_p99_ms = Quantile(fresh, 0.99);
  return t;
}

Result RunQueryWorkload(const Args& args, const World& world, Plan* plan,
                        size_t setup_reps) {
  Result result;
  Serving s;
  std::vector<SetupTimes> reps;
  for (size_t r = 0; r < setup_reps; ++r) {
    s.Reset();  // Release the previous repetition first.
    reps.push_back(SetUp(world, *plan, &s));
  }

  // The oracle: every expected answer through the virtual TrackingForm
  // path, computed before timing.
  {
    innet::core::SampledQueryProcessor oracle(s.dep->graph(), *s.tracking);
    RangeQuery q;
    for (const QueryOp& op : plan->ops) {
      Materialize(plan->regions, op, &q);
      plan->expected.Append(OracleAnswer(oracle, q, op));
    }
    if (args.perturb) {
      for (size_t i = 0; i < plan->ops.size(); ++i) {
        if (plan->expected.offsets[i + 1] - plan->expected.offsets[i] == 1) {
          plan->expected.values[plan->expected.offsets[i]] += 1.0;
          break;
        }
      }
    }
  }
  double peak_rss_mb = PeakRssMb();
  s.tracking.reset();

  // Measured phase: closed loop, one client, serial engine. Latency is the
  // thread's CPU time per group: nothing here blocks or does I/O, so that
  // is the wall time minus host steal (see ThreadCpuNs); wall time is kept
  // as a note.
  std::vector<double> latency_ms;
  std::vector<double> wall_ms;
  uint64_t ops = 0;
  uint64_t bad = 0;
  size_t g = plan->warmup_groups % plan->groups.size();
  double cpu0 = ProcessCpuSeconds();
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t cpu_now = ThreadCpuNs();
  for (int64_t now = start; now < deadline;) {
    const Group& group = plan->groups[g];
    bad += Execute(*plan, group, s, true);
    int64_t end = NowNs();
    int64_t cpu_end = ThreadCpuNs();
    latency_ms.push_back(1e-6 * double(cpu_end - cpu_now));
    wall_ms.push_back(1e-6 * double(end - now));
    ops += group.ops;
    now = end;
    cpu_now = cpu_end;
    g = (g + 1) % plan->groups.size();
  }
  double cpu_s = ProcessCpuSeconds() - cpu0;
  result.attempted = ops;
  result.Fail(bad, "served answers differ from the oracle");
  innet::runtime::BatchEngineSnapshot snap = s.engine->Snapshot();
  peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());

  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return Median(v);
  };
  result.Note("store_events", std::to_string(s.frozen->TotalEvents()));
  result.Note("latency_samples", std::to_string(latency_ms.size()));
  result.Note("wall_latency_ms_p50_p99",
              std::to_string(Quantile(wall_ms, 0.5)) + " " +
                  std::to_string(BlockedP99(wall_ms)));
  if (!args.trace) {
    result.Add("setup_s", median_of(&SetupTimes::total_s), "s");
    result.Add("ops_per_cpu_s", double(ops) / cpu_s, "1/s");
    result.Add("latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
    result.Add("latency_p99_ms", BlockedP99(latency_ms), "ms");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    result.Add("rel_err_median",
               RelErrMedian(world, *s.dep, plan->regions, plan->ops, 6000),
               "1");
    return result;
  }

  // Traced run: set-up layers, the cache as the measured phase saw it,
  // then the read replay and a write-path replay of the base day.
  double freeze_s = median_of(&SetupTimes::freeze_s);
  result.Add("freshness_p50_ms", median_of(&SetupTimes::fresh_p50_ms), "ms");
  result.Add("freshness_p99_ms", median_of(&SetupTimes::fresh_p99_ms), "ms");
  result.Add("setup.deploy_s", median_of(&SetupTimes::deploy_s), "s");
  result.Add("forms.record_s", median_of(&SetupTimes::record_s), "s");
  result.Add("forms.freeze_s", freeze_s, "s");
  result.Add("forms.freeze.ns_per_event",
             1e9 * freeze_s / double(std::max<size_t>(1, s.frozen->TotalEvents())),
             "ns");
  result.Add("forms.store_bytes", double(s.frozen->StorageBytes()), "B");
  result.Add("forms.index_bytes", double(s.frozen->IndexBytes()), "B");
  uint64_t lookups = snap.cache_hits + snap.cache_misses;
  result.Add("runtime.cache.hit_ratio",
             lookups ? double(snap.cache_hits) / double(lookups) : 0.0, "1");
  result.Add("runtime.cache.store_invalidations",
             double(snap.store_invalidations), "count");

  SpanLog spans;
  ReplayReads(s.dep->graph(), *s.frozen, plan->regions, plan->ops, 0,
              &plan->expected, &spans, &result);
  std::vector<CrossingEvent> day;
  AppendReplica(world, 0, &day);
  std::vector<CrossingEvent> delivery = Jittered(day, 2.0, args.seed);
  WriteReplaySpec spec;
  spec.stream = &delivery;
  spec.first_boundary = world.period / 15.0;
  spec.epoch_len = world.period / 15.0;
  spec.num_edges = world.num_edges;
  spec.wal_dir = args.work_dir + "/write_replay";
  ReplayWrites(spec, &spans, &result);
  spans.WriteJsonLines(args.work_dir + "/spans.jsonl", args.workload);
  return result;
}

}  // namespace

Result RunDashboardDram(const Args& args) {
  World world = MakeWorld(args.tiny);
  Plan plan;
  size_t target_events = args.tiny ? 40000 : 48000000;
  plan.replicas = std::max<size_t>(
      1, (target_events + world.day.size() - 1) / std::max<size_t>(1, world.day.size()));
  double history = double(plan.replicas) * world.period;

  // A 4x4 grid of tiles plus the centre quarter as the series panel.
  const innet::core::SensorNetwork& network = world.framework->network();
  innet::geometry::Rect domain = network.DomainBounds();
  double w = (domain.max_x - domain.min_x) / 4.0;
  double h = (domain.max_y - domain.min_y) / 4.0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      RangeQuery tile;
      tile.rect = innet::geometry::Rect(domain.min_x + i * w, domain.min_y + j * h,
                                        domain.min_x + (i + 1) * w,
                                        domain.min_y + (j + 1) * h);
      tile.junctions = network.JunctionsInRect(tile.rect);
      if (!tile.junctions.empty()) plan.regions.push_back(std::move(tile));
    }
  }
  size_t tiles = plan.regions.size();
  RangeQuery panel;
  panel.rect = innet::geometry::Rect(domain.min_x + w, domain.min_y + h,
                                     domain.max_x - w, domain.max_y - h);
  panel.junctions = network.JunctionsInRect(panel.rect);
  plan.regions.push_back(std::move(panel));

  // Refresh windows drawn over the whole replicated history.
  innet::util::Rng rng(args.seed ^ 0xda5bULL);
  size_t refreshes = args.tiny ? 16 : 256;
  double min_len = std::min(1800.0, world.period / 4.0);
  double max_len = std::min(4.0 * 3600.0, world.period);
  for (size_t r = 0; r < refreshes; ++r) {
    double len = rng.Uniform(min_len, max_len);
    double t2 = rng.Uniform(history / 16.0, history);
    double t1 = std::max(0.0, t2 - len);
    struct Shape {
      OpKind kind;
      BoundMode bound;
    };
    for (Shape shape : {Shape{OpKind::kStatic, BoundMode::kLower},
                        Shape{OpKind::kStatic, BoundMode::kUpper},
                        Shape{OpKind::kTransient, BoundMode::kLower}}) {
      for (size_t t = 0; t < tiles; ++t) {
        plan.ops.push_back({static_cast<uint32_t>(t), shape.kind, shape.bound,
                            t1, t2});
      }
    }
    plan.ops.push_back({static_cast<uint32_t>(tiles), OpKind::kSeries,
                        BoundMode::kLower, t1, t2});
  }
  BuildCalls(3 * tiles + 1, &plan);
  plan.warmup_groups = args.tiny ? 4 : 16;
  Result result = RunQueryWorkload(args, world, &plan, 5);
  result.Note("world_s", std::to_string(world.world_s));
  return result;
}

Result RunAdhocL2(const Args& args) {
  World world = MakeWorld(args.tiny);
  Plan plan;
  plan.replicas = 1;
  size_t count = args.tiny ? 400 : 20000;
  plan.regions = MakeRegions(world, QuerySizeSweep(), count, 0.0, world.period,
                             0.1 * world.period, 0.4 * world.period,
                             args.seed ^ 0xad0cULL);
  innet::util::Rng rng(args.seed ^ 0xb0b0ULL);
  for (size_t i = 0; i < plan.regions.size(); ++i) {
    double u = rng.Uniform();
    OpKind kind = u < 0.45   ? OpKind::kStatic
                  : u < 0.9 ? OpKind::kTransient
                            : OpKind::kSeries;
    BoundMode bound = rng.Bernoulli(0.5) ? BoundMode::kLower : BoundMode::kUpper;
    plan.ops.push_back({static_cast<uint32_t>(i), kind, bound,
                        plan.regions[i].t1, plan.regions[i].t2});
  }
  BuildCalls(1, &plan);
  plan.warmup_groups = args.tiny ? 32 : 512;
  // Set-up over the single day takes ~30 ms; repeat it more often so its
  // median is steady.
  Result result = RunQueryWorkload(args, world, &plan, 15);
  result.Note("world_s", std::to_string(world.world_s));
  return result;
}

}  // namespace perfbench
