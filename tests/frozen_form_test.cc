// Golden identity suite: FrozenTrackingForm must be bit-for-bit equal to
// the TrackingForm it was built from — per-slot counts, region evaluations,
// batch kernels, and end-to-end processor answers alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/workload.h"
#include "forms/frozen_tracking_form.h"
#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "io/serialize.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace innet::forms {
namespace {

using graph::EdgeId;

// Random store with a mix of dense, sparse, duplicate-laden, and EMPTY
// slots; timestamps drawn from [0, 1000) with repeats.
TrackingForm RandomForm(uint64_t seed, size_t num_edges, size_t max_events) {
  util::Rng rng(seed);
  TrackingForm form(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    for (int dir = 0; dir < 2; ++dir) {
      if (rng.Bernoulli(0.2)) continue;  // Leave ~20% of slots empty.
      size_t n = rng.UniformIndex(max_events + 1);
      std::vector<double> ts(n);
      for (double& t : ts) {
        t = rng.Uniform(0.0, 1000.0);
        if (rng.Bernoulli(0.1)) t = std::floor(t);  // Encourage duplicates.
      }
      std::sort(ts.begin(), ts.end());
      for (double t : ts) form.RecordTraversal(e, dir == 0, t);
    }
  }
  return form;
}

TEST(FrozenTrackingFormTest, CountUpToMatchesEverywhere) {
  TrackingForm tracking = RandomForm(7, 40, 200);
  FrozenTrackingForm frozen = tracking.Freeze();
  ASSERT_EQ(frozen.num_edges(), tracking.num_edges());
  ASSERT_EQ(frozen.TotalEvents(), tracking.TotalEvents());

  util::Rng rng(8);
  for (EdgeId e = 0; e < tracking.num_edges(); ++e) {
    for (int dir = 0; dir < 2; ++dir) {
      bool forward = dir == 0;
      ASSERT_EQ(frozen.EventCount(e, forward),
                tracking.EventCount(e, forward));
      const std::vector<double>& seq = tracking.Sequence(e, forward);
      // Out-of-range probes on both sides.
      EXPECT_EQ(frozen.CountUpTo(e, forward, -1e9),
                tracking.CountUpTo(e, forward, -1e9));
      EXPECT_EQ(frozen.CountUpTo(e, forward, 1e9),
                tracking.CountUpTo(e, forward, 1e9));
      // Every stored timestamp, plus a nudge on each side — the adversarial
      // probes for the upper bound (exact boundaries, duplicates).
      for (double t : seq) {
        for (double probe : {t, std::nextafter(t, -1e30),
                             std::nextafter(t, 1e30)}) {
          ASSERT_EQ(frozen.CountUpTo(e, forward, probe),
                    tracking.CountUpTo(e, forward, probe))
              << "edge " << e << " fwd " << forward << " t " << probe;
        }
      }
      // Random probes.
      for (int i = 0; i < 50; ++i) {
        double t = rng.Uniform(-50.0, 1050.0);
        ASSERT_EQ(frozen.CountUpTo(e, forward, t),
                  tracking.CountUpTo(e, forward, t));
      }
    }
  }
}

TEST(FrozenTrackingFormTest, CountInRangeMatches) {
  TrackingForm tracking = RandomForm(11, 25, 120);
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    EdgeId e = static_cast<EdgeId>(rng.UniformIndex(tracking.num_edges()));
    bool forward = rng.Bernoulli(0.5);
    double a = rng.Uniform(-50.0, 1050.0);
    double b = rng.Uniform(-50.0, 1050.0);
    if (a > b) std::swap(a, b);
    EXPECT_EQ(frozen.CountInRange(e, forward, a, b),
              tracking.CountInRange(e, forward, a, b));
  }
}

TEST(FrozenTrackingFormTest, ProvenanceAndStorageMirrorSource) {
  TrackingForm tracking = RandomForm(13, 10, 60);
  FrozenTrackingForm frozen = tracking.Freeze();
  StoreProvenance a = tracking.Provenance();
  StoreProvenance b = frozen.Provenance();
  EXPECT_STREQ(a.kind, b.kind);
  EXPECT_EQ(a.modeled_events, b.modeled_events);
  EXPECT_EQ(a.raw_events, b.raw_events);
  EXPECT_EQ(frozen.StorageBytes(), tracking.StorageBytes());
  for (EdgeId e = 0; e < tracking.num_edges(); ++e) {
    EXPECT_EQ(frozen.StorageBytesForEdge(e), tracking.StorageBytesForEdge(e));
  }
  // The row pointers are the only index: one uint64 per slot plus one.
  EXPECT_EQ(frozen.IndexBytes(),
            (2 * tracking.num_edges() + 1) * sizeof(uint64_t));
}

// Random boundary over the store's edges (some repeated, both senses).
std::vector<BoundaryEdge> RandomBoundary(util::Rng& rng, size_t num_edges,
                                         size_t size) {
  std::vector<BoundaryEdge> boundary;
  boundary.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    boundary.push_back({static_cast<EdgeId>(rng.UniformIndex(num_edges)),
                        rng.Bernoulli(0.5)});
  }
  return boundary;
}

TEST(FrozenTrackingFormTest, FusedRegionEvaluationsMatchVirtualPath) {
  TrackingForm tracking = RandomForm(17, 30, 150);
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(18);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<BoundaryEdge> boundary =
        RandomBoundary(rng, tracking.num_edges(), 1 + rng.UniformIndex(20));
    double t = rng.Uniform(-10.0, 1010.0);
    double t0 = rng.Uniform(-10.0, 1010.0);
    double t1 = rng.Uniform(-10.0, 1010.0);
    if (t0 > t1) std::swap(t0, t1);
    // Same arithmetic, same order: bit-identical, so EXPECT_EQ not NEAR.
    EXPECT_EQ(EvaluateStaticCount(frozen, boundary, t),
              EvaluateStaticCount(
                  static_cast<const EdgeCountStore&>(tracking), boundary, t));
    EXPECT_EQ(EvaluateTransientCount(frozen, boundary, t0, t1),
              EvaluateTransientCount(
                  static_cast<const EdgeCountStore&>(tracking), boundary, t0,
                  t1));
    // The fused overload on the frozen store itself must agree with its
    // virtual dispatch too.
    EXPECT_EQ(EvaluateStaticCount(frozen, boundary, t),
              EvaluateStaticCount(static_cast<const EdgeCountStore&>(frozen),
                                  boundary, t));
  }
}

TEST(FrozenTrackingFormTest, BatchKernelsMatchScalarLoops) {
  TrackingForm tracking = RandomForm(19, 30, 150);
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(20);
  for (size_t count :
       {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{256}}) {
    std::vector<BoundaryEdge> boundary =
        RandomBoundary(rng, tracking.num_edges(), 12);
    std::vector<double> times(count);
    for (double& t : times) t = rng.Uniform(-10.0, 1010.0);
    std::sort(times.begin(), times.end());

    std::vector<double> batch(count, -1.0);
    EvaluateStaticCountBatch(frozen, boundary, times.data(), count,
                             batch.data());
    for (size_t k = 0; k < count; ++k) {
      EXPECT_EQ(batch[k], EvaluateStaticCount(
                              static_cast<const EdgeCountStore&>(tracking),
                              boundary, times[k]))
          << "static k=" << k;
    }
  }
}

// Fused, batch, and series kernels on one store and one trial stream: each
// must equal the virtual path evaluated instant by instant.
TEST(FrozenTrackingFormTest, FusedAndSeriesKernelsMatchVirtualPath) {
  TrackingForm tracking = RandomForm(23, 30, 150);
  FrozenTrackingForm frozen = tracking.Freeze();
  const auto& virtual_store = static_cast<const EdgeCountStore&>(tracking);
  util::Rng rng(24);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<BoundaryEdge> boundary =
        RandomBoundary(rng, tracking.num_edges(), 1 + rng.UniformIndex(20));
    double t = rng.Uniform(-10.0, 1010.0);
    double t0 = rng.Uniform(-10.0, 1010.0);
    double t1 = rng.Uniform(-10.0, 1010.0);
    if (t0 > t1) std::swap(t0, t1);
    ASSERT_EQ(EvaluateStaticCount(frozen, boundary, t),
              EvaluateStaticCount(virtual_store, boundary, t));
    ASSERT_EQ(EvaluateTransientCount(frozen, boundary, t0, t1),
              EvaluateTransientCount(virtual_store, boundary, t0, t1));

    std::vector<double> times = {t0, (t0 + t1) / 2, t1};
    std::vector<double> batch(times.size(), -1.0);
    EvaluateStaticCountBatch(frozen, boundary, times.data(), times.size(),
                             batch.data());
    for (size_t k = 0; k < times.size(); ++k) {
      ASSERT_EQ(batch[k],
                EvaluateStaticCount(virtual_store, boundary, times[k]))
          << "k=" << k;
    }
  }
}

TEST(FrozenTrackingFormTest, EmptyStoreAndEmptyBoundary) {
  TrackingForm tracking(5);
  FrozenTrackingForm frozen = tracking.Freeze();
  EXPECT_EQ(frozen.TotalEvents(), 0u);
  EXPECT_EQ(frozen.CountUpTo(3, true, 10.0), 0.0);
  std::vector<BoundaryEdge> empty;
  EXPECT_EQ(EvaluateStaticCount(frozen, empty, 1.0), 0.0);
  std::vector<BoundaryEdge> boundary = {{0, true}, {4, false}};
  EXPECT_EQ(EvaluateStaticCount(frozen, boundary, 1.0), 0.0);
  double out[3] = {-1, -1, -1};
  double times[3] = {0.0, 1.0, 2.0};
  EvaluateStaticCountBatch(frozen, boundary, times, 3, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[2], 0.0);
}

// The series kernel seeks its first instant with one UpperBound over the
// whole span and gallops from there. On spans of 2^16+ timestamps the seek
// must land exactly where a per-instant lookup does: deep in the span, on a
// duplicate plateau, before the first and after the last timestamp, and
// for instants repeated back to back.
TEST(FrozenTrackingFormTest, SeriesKernelSeeksFirstInstantOnLongSpans) {
  constexpr size_t kSpan = size_t{1} << 16;
  TrackingForm tracking(3);
  for (EdgeId e = 0; e < 3; ++e) {
    for (bool forward : {true, false}) {
      // Timestamps 0, 1, 2, ... with a plateau of 500 copies of 40000.5
      // and a shorter one per edge, so spans differ in length and content.
      size_t extra = 1000 * e + (forward ? 0 : 333);
      for (size_t i = 0; i < kSpan + extra; ++i) {
        double t = static_cast<double>(i);
        tracking.RecordTraversal(e, forward, t);
        if (i == 40000) {
          for (int d = 0; d < 500; ++d) {
            tracking.RecordTraversal(e, forward, t + 0.5);
          }
        }
        if (i == 123 + extra) {
          for (int d = 0; d < 7; ++d) tracking.RecordTraversal(e, forward, t);
        }
      }
    }
  }
  FrozenTrackingForm frozen = tracking.Freeze();
  const auto& virtual_store = static_cast<const EdgeCountStore&>(tracking);
  std::vector<BoundaryEdge> boundary = {{0, true}, {1, false}, {2, true}};
  const double last = static_cast<double>(kSpan + 2333);
  const std::vector<std::vector<double>> series = {
      {50000.25, 50001.0, 50100.0, 60000.0},  // Deep in the span.
      {40000.5, 40000.5, 40001.0, 40002.0},   // On the long plateau.
      {123.0, 123.0, 1123.0, 2123.0},         // On the short plateaus.
      {-5.0, -1.0, 0.0, 3.0, 70000.0},        // Before the first.
      {last + 1.0, last + 2.0, 1e12},         // After the last.
      {777.0, 777.0, 777.0, 777.0},           // Repeated instants.
      {65535.0, 65536.0, 65537.0, last},      // Near each span's end.
  };
  for (const std::vector<double>& times : series) {
    std::vector<double> batch(times.size(), -1.0);
    EvaluateStaticCountBatch(frozen, boundary, times.data(), times.size(),
                             batch.data());
    for (size_t k = 0; k < times.size(); ++k) {
      EXPECT_EQ(batch[k],
                EvaluateStaticCount(virtual_store, boundary, times[k]))
          << "first instant " << times[0] << " k=" << k;
    }
  }
}

// Past 2 MiB of timestamps (600K events = 4.8 MB) both copying
// constructors advise the array onto huge pages. The store must stay
// bit-identical however it was built: a whole Freeze(), an incremental
// re-freeze from a partial store plus one epoch delta, or a snapshot round
// trip.
TEST(FrozenTrackingFormTest, LargeStoreIsIdenticalAcrossFreezeRefreezeAndSnapshot) {
  constexpr size_t kEdges = 500;
  constexpr size_t kEvents = 640000;
  struct Event {
    EdgeId edge;
    bool forward;
    double time;
    bool in_delta;
  };
  util::Rng rng(31);
  std::vector<Event> events(kEvents);
  for (Event& e : events) {
    e.edge = static_cast<EdgeId>(rng.UniformIndex(kEdges));
    e.forward = rng.Bernoulli(0.5);
    e.time = std::floor(rng.Uniform(0.0, 50000.0) * 4.0) / 4.0;
    // Late-epoch events mostly append; some land inside the history, so
    // the re-freeze takes both its append and its merge branch.
    e.in_delta = e.time >= 45000.0 || rng.Bernoulli(0.05);
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });

  TrackingForm whole(kEdges);
  TrackingForm history(kEdges);
  std::vector<std::vector<double>> delta_spans(2 * kEdges);
  for (const Event& e : events) {
    whole.RecordTraversal(e.edge, e.forward, e.time);
    if (e.in_delta) {
      delta_spans[FrozenTrackingForm::Slot(e.edge, e.forward)].push_back(
          e.time);
    } else {
      history.RecordTraversal(e.edge, e.forward, e.time);
    }
  }
  EpochDelta delta;
  delta.offsets.push_back(0);
  for (const std::vector<double>& span : delta_spans) {
    delta.times.insert(delta.times.end(), span.begin(), span.end());
    delta.offsets.push_back(delta.times.size());
  }

  FrozenTrackingForm frozen = whole.Freeze();
  ASSERT_GT(frozen.StorageBytes(), size_t{2} << 20);
  FrozenTrackingForm refrozen(history.Freeze(), delta);
  EXPECT_EQ(refrozen.RawTimes(), frozen.RawTimes());
  EXPECT_EQ(refrozen.RawOffsets(), frozen.RawOffsets());

  std::string path = ::testing::TempDir() + "frozen_form_large_store.snap";
  ASSERT_TRUE(io::SaveFrozenSnapshot(frozen, {}, path).ok());
  auto loaded = io::LoadFrozenSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->store.RawTimes(), frozen.RawTimes());
  EXPECT_EQ(loaded->store.RawOffsets(), frozen.RawOffsets());
}

// End-to-end: a processor over the frozen store answers every query —
// static, transient, and series — bit-identically to the tracking-form
// processor it shadows.
class FrozenDeploymentFixture : public ::testing::Test {
 protected:
  FrozenDeploymentFixture() : framework_(Options()) {}

  void SetUp() override {
    sampling::KdTreeSampler sampler;
    util::Rng rng = framework_.ForkRng();
    deployment_ = std::make_unique<core::Deployment>(
        framework_.DeployWithSampler(
            sampler, framework_.network().NumSensors() / 5,
            core::DeploymentOptions{}, rng));
    const TrackingForm* tracking = deployment_->tracking_store();
    ASSERT_NE(tracking, nullptr);
    frozen_ = std::make_unique<FrozenTrackingForm>(tracking->Freeze());

    core::WorkloadOptions wo;
    wo.area_fraction = 0.05;
    wo.horizon = framework_.Horizon();
    queries_ = core::GenerateWorkload(framework_.network(), wo, 20, rng);
  }

  static core::FrameworkOptions Options() {
    core::FrameworkOptions options;
    options.road.num_junctions = 250;
    options.traffic.num_trajectories = 300;
    options.seed = 21;
    return options;
  }

  core::Framework framework_;
  std::unique_ptr<core::Deployment> deployment_;
  std::unique_ptr<FrozenTrackingForm> frozen_;
  std::vector<core::RangeQuery> queries_;
};

TEST_F(FrozenDeploymentFixture, ProcessorAnswersAreBitIdentical) {
  core::SampledQueryProcessor reference = deployment_->processor();
  core::SampledQueryProcessor fast(deployment_->graph(), *frozen_);
  ASSERT_FALSE(queries_.empty());
  for (const core::RangeQuery& q : queries_) {
    for (core::BoundMode bound :
         {core::BoundMode::kLower, core::BoundMode::kUpper}) {
      for (core::CountKind kind :
           {core::CountKind::kStatic, core::CountKind::kTransient}) {
        core::QueryAnswer a = reference.Answer(q, kind, bound);
        core::QueryAnswer b = fast.Answer(q, kind, bound);
        EXPECT_EQ(a.estimate, b.estimate);
        EXPECT_EQ(a.missed, b.missed);
        EXPECT_EQ(a.nodes_accessed, b.nodes_accessed);
        EXPECT_EQ(a.edges_accessed, b.edges_accessed);
      }
    }
  }
}

TEST_F(FrozenDeploymentFixture, AnswerSeriesIsBitIdenticalAtAllStepCounts) {
  core::SampledQueryProcessor reference = deployment_->processor();
  core::SampledQueryProcessor fast(deployment_->graph(), *frozen_);
  for (const core::RangeQuery& q : queries_) {
    for (size_t steps : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
      std::vector<double> a =
          reference.AnswerSeries(q, core::BoundMode::kLower, steps);
      std::vector<double> b =
          fast.AnswerSeries(q, core::BoundMode::kLower, steps);
      ASSERT_EQ(a.size(), b.size()) << "steps=" << steps;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "steps=" << steps << " i=" << i;
      }
    }
  }
}

TEST_F(FrozenDeploymentFixture, ExplainRecordsAreIdentical) {
  core::SampledQueryProcessor reference = deployment_->processor();
  core::SampledQueryProcessor fast(deployment_->graph(), *frozen_);
  for (const core::RangeQuery& q : queries_) {
    obs::ExplainRecord a;
    obs::ExplainRecord b;
    reference.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower,
                     nullptr, &a);
    fast.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower, nullptr,
                &b);
    EXPECT_EQ(a.faces, b.faces);
    EXPECT_EQ(a.answer, b.answer);
    EXPECT_EQ(a.resolved_cells, b.resolved_cells);
    EXPECT_EQ(a.deadspace_fraction, b.deadspace_fraction);
    EXPECT_STREQ(a.store.c_str(), b.store.c_str());
    EXPECT_EQ(a.store_raw_events, b.store_raw_events);
    EXPECT_EQ(a.boundary_edges, b.boundary_edges);
    EXPECT_EQ(a.boundary_sensors, b.boundary_sensors);
  }
}

}  // namespace
}  // namespace innet::forms
