// QueryWorkspace: identity of the allocation-free primitives with the
// allocating overloads, stamp correctness across reuse, and the zero
// steady-state allocation guarantee of the warm query path (pinned with
// util::AllocProbe, which this binary links by referencing it).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/framework.h"
#include "core/query_processor.h"
#include "core/query_workspace.h"
#include "core/workload.h"
#include "forms/frozen_tracking_form.h"
#include "runtime/batch_query_engine.h"
#include "sampling/samplers.h"
#include "util/alloc_probe.h"

namespace innet::core {
namespace {

FrameworkOptions SmallOptions(uint64_t seed) {
  FrameworkOptions options;
  options.road.num_junctions = 250;
  options.traffic.num_trajectories = 300;
  options.seed = seed;
  return options;
}

class WorkspaceFixture : public ::testing::Test {
 protected:
  WorkspaceFixture() : framework_(SmallOptions(5)) {
    sampling::KdTreeSampler sampler;
    util::Rng rng = framework_.ForkRng();
    deployment_ = std::make_unique<Deployment>(framework_.DeployWithSampler(
        sampler, framework_.network().NumSensors() / 5, DeploymentOptions{},
        rng));
    WorkloadOptions wo;
    wo.area_fraction = 0.05;
    wo.horizon = framework_.Horizon();
    queries_ = GenerateWorkload(framework_.network(), wo, 20, rng);
  }

  Framework framework_;
  std::unique_ptr<Deployment> deployment_;
  std::vector<RangeQuery> queries_;
};

TEST_F(WorkspaceFixture, WorkspaceVariantsMatchAllocatingOverloads) {
  const SampledGraph& g = deployment_->graph();
  QueryWorkspace ws;  // Fresh, private workspace (not the thread-local one).
  for (const RangeQuery& q : queries_) {
    std::vector<uint32_t> lower = g.LowerBoundFaces(q.junctions);
    g.LowerBoundFaces(q.junctions, ws);
    EXPECT_EQ(ws.faces, lower);

    std::vector<uint32_t> upper = g.UpperBoundFaces(q.junctions);
    g.UpperBoundFaces(q.junctions, ws);
    EXPECT_EQ(ws.faces, upper);

    if (upper.empty()) continue;
    SampledGraph::RegionBoundary boundary = g.BoundaryOfFaces(upper);
    // `faces` aliasing ws.faces is part of the contract.
    g.BoundaryOfFaces(ws.faces, ws);
    ASSERT_EQ(ws.boundary_edges.size(), boundary.edges.size());
    for (size_t i = 0; i < boundary.edges.size(); ++i) {
      EXPECT_EQ(ws.boundary_edges[i].edge, boundary.edges[i].edge);
      EXPECT_EQ(ws.boundary_edges[i].inward_is_forward,
                boundary.edges[i].inward_is_forward);
    }
    EXPECT_EQ(ws.boundary_sensors, boundary.sensors);
    // Sensors are deduplicated: equal as a set to the dual endpoints of the
    // boundary edges, with no repeats.
    std::set<graph::NodeId> unique_sensors(ws.boundary_sensors.begin(),
                                           ws.boundary_sensors.end());
    EXPECT_EQ(unique_sensors.size(), ws.boundary_sensors.size());
  }
}

TEST_F(WorkspaceFixture, ReusedWorkspaceAnswersMatchFreshWorkspaces) {
  SampledQueryProcessor processor = deployment_->processor();
  QueryWorkspace reused;
  for (const RangeQuery& q : queries_) {
    QueryWorkspace fresh;
    QueryAnswer a =
        processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr,
                         nullptr, &fresh);
    QueryAnswer b =
        processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr,
                         nullptr, &reused);
    // Stamped scratch must behave as if zero-initialized every query.
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.missed, b.missed);
    EXPECT_EQ(a.nodes_accessed, b.nodes_accessed);
    EXPECT_EQ(a.edges_accessed, b.edges_accessed);
  }
}

// The satellite bugfix regression: a junction listed twice in the query
// must count ONCE toward a face's coverage. Before the fix the duplicate
// inflated the hit count past the face size, so the equality test silently
// rejected fully-covered faces.
TEST_F(WorkspaceFixture, LowerBoundFacesCountsDuplicateJunctionsOnce) {
  const SampledGraph& g = deployment_->graph();
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  // All junctions of one face: its lower bound must resolve to that face.
  for (uint32_t target = 0; target < g.NumFaces(); ++target) {
    std::vector<graph::NodeId> junctions;
    for (graph::NodeId n = 0; n < mobility.NumNodes(); ++n) {
      if (g.FaceOfJunction(n) == target) junctions.push_back(n);
    }
    if (junctions.empty()) continue;
    std::vector<uint32_t> clean = g.LowerBoundFaces(junctions);
    ASSERT_TRUE(std::count(clean.begin(), clean.end(), target) == 1)
        << "face " << target;
    // Duplicate every junction (and triple the first): same resolution.
    std::vector<graph::NodeId> dupes = junctions;
    dupes.insert(dupes.end(), junctions.begin(), junctions.end());
    dupes.push_back(junctions.front());
    EXPECT_EQ(g.LowerBoundFaces(dupes), clean);
    break;  // One face suffices; the loop only skips empty faces.
  }
}

// One resolution of `q` in both bound modes: faces, boundary edges (id and
// direction flattened) and sensors, in output order.
struct Resolution {
  std::vector<uint32_t> lower, upper;
  std::vector<uint64_t> lower_edges, upper_edges;
  std::vector<graph::NodeId> lower_sensors, upper_sensors;
  bool operator==(const Resolution&) const = default;
};

std::vector<uint64_t> FlattenEdges(const QueryWorkspace& ws) {
  std::vector<uint64_t> out;
  for (const forms::BoundaryEdge& b : ws.boundary_edges) {
    out.push_back(uint64_t{b.edge} << 1 | (b.inward_is_forward ? 1u : 0u));
  }
  return out;
}

// Runs every query's resolution through `ws`; with `out` it records them.
void Resolve(const SampledGraph& g, const std::vector<RangeQuery>& queries,
             QueryWorkspace& ws, std::vector<Resolution>* out) {
  for (const RangeQuery& q : queries) {
    g.LowerBoundFaces(q.junctions, ws);
    if (out != nullptr) out->emplace_back().lower = ws.faces;
    g.BoundaryOfFaces(ws.faces, ws);
    if (out != nullptr) {
      out->back().lower_edges = FlattenEdges(ws);
      out->back().lower_sensors = ws.boundary_sensors;
    }
    g.UpperBoundFaces(q.junctions, ws);
    if (out != nullptr) out->back().upper = ws.faces;
    g.BoundaryOfFaces(ws.faces, ws);
    if (out != nullptr) {
      out->back().upper_edges = FlattenEdges(ws);
      out->back().upper_sensors = ws.boundary_sensors;
    }
  }
}

// One workspace alternating between a small and a large graph (small,
// large, small) must resolve exactly as a fresh workspace does: the
// sweeps leave the bitmaps clean and EnsureDomains grows every domain. Once
// both graphs are warm, alternating allocates nothing.
TEST_F(WorkspaceFixture, WorkspaceAlternatesBetweenGraphSizes) {
  FrameworkOptions large_options = SmallOptions(6);
  large_options.road.num_junctions = 700;
  Framework large_world(large_options);
  sampling::KdTreeSampler sampler;
  util::Rng rng = large_world.ForkRng();
  Deployment large_dep = large_world.DeployWithSampler(
      sampler, large_world.network().NumSensors() / 3, DeploymentOptions{},
      rng);
  WorkloadOptions wo;
  wo.area_fraction = 0.1;
  wo.horizon = large_world.Horizon();
  std::vector<RangeQuery> large_queries =
      GenerateWorkload(large_world.network(), wo, 20, rng);
  const SampledGraph& small = deployment_->graph();
  const SampledGraph& large = large_dep.graph();
  ASSERT_GT(large.NumFaces(), small.NumFaces());
  ASSERT_GT(large_world.network().TotalEdgeSpace(),
            framework_.network().TotalEdgeSpace() + 64);

  std::vector<Resolution> small_expected, large_expected;
  {
    QueryWorkspace fresh;
    Resolve(small, queries_, fresh, &small_expected);
  }
  {
    QueryWorkspace fresh;
    Resolve(large, large_queries, fresh, &large_expected);
  }
  QueryWorkspace ws;
  for (int round = 0; round < 2; ++round) {
    std::vector<Resolution> got;
    Resolve(small, queries_, ws, &got);
    EXPECT_TRUE(got == small_expected) << "small graph, round " << round;
    got.clear();
    Resolve(large, large_queries, ws, &got);
    EXPECT_TRUE(got == large_expected) << "large graph, round " << round;
  }
  std::vector<Resolution> got;
  Resolve(small, queries_, ws, &got);
  EXPECT_TRUE(got == small_expected) << "small graph after large";

  util::AllocProbe probe;
  Resolve(small, queries_, ws, nullptr);
  Resolve(large, large_queries, ws, nullptr);
  Resolve(small, queries_, ws, nullptr);
  EXPECT_EQ(probe.Delta(), 0u);
}

TEST_F(WorkspaceFixture, UnsampledAnswersMatchWithAndWithoutWorkspace) {
  UnsampledQueryProcessor processor(framework_.network());
  QueryWorkspace ws;
  for (const RangeQuery& q : queries_) {
    QueryAnswer a = processor.Answer(q, CountKind::kStatic);
    QueryAnswer b = processor.Answer(q, CountKind::kStatic, nullptr, &ws);
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.nodes_accessed, b.nodes_accessed);
    EXPECT_EQ(a.edges_accessed, b.edges_accessed);
    QueryAnswer c = processor.Answer(q, CountKind::kTransient);
    QueryAnswer d = processor.Answer(q, CountKind::kTransient, nullptr, &ws);
    EXPECT_EQ(c.estimate, d.estimate);
  }
}

TEST_F(WorkspaceFixture, SampledProcessorWarmPathDoesNotAllocate) {
  SampledQueryProcessor processor = deployment_->processor();
  QueryWorkspace ws;
  // Warm-up: grows the workspace buffers and the metric registry's
  // per-thread shards.
  for (int round = 0; round < 2; ++round) {
    for (const RangeQuery& q : queries_) {
      processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr,
                       nullptr, &ws);
      processor.Answer(q, CountKind::kTransient, BoundMode::kUpper, nullptr,
                       nullptr, &ws);
    }
  }
  util::AllocProbe probe;
  for (const RangeQuery& q : queries_) {
    processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr,
                     nullptr, &ws);
    processor.Answer(q, CountKind::kTransient, BoundMode::kUpper, nullptr,
                     nullptr, &ws);
  }
  EXPECT_EQ(probe.Delta(), 0u);
}

TEST_F(WorkspaceFixture, UnsampledProcessorWarmPathDoesNotAllocate) {
  UnsampledQueryProcessor processor(framework_.network());
  QueryWorkspace ws;
  for (int round = 0; round < 2; ++round) {
    for (const RangeQuery& q : queries_) {
      processor.Answer(q, CountKind::kStatic, nullptr, &ws);
      processor.Answer(q, CountKind::kTransient, nullptr, &ws);
    }
  }
  util::AllocProbe probe;
  for (const RangeQuery& q : queries_) {
    processor.Answer(q, CountKind::kStatic, nullptr, &ws);
    processor.Answer(q, CountKind::kTransient, nullptr, &ws);
  }
  EXPECT_EQ(probe.Delta(), 0u);
}

TEST_F(WorkspaceFixture, EngineWarmCacheHitPathDoesNotAllocate) {
  forms::FrozenTrackingForm frozen = deployment_->tracking_store()->Freeze();
  runtime::BatchEngineOptions options;
  options.num_threads = 0;  // Serial: the probe window stays single-threaded.
  runtime::BatchQueryEngine engine(deployment_->graph(), frozen, options);
  // First pass resolves and caches every region (cold, allocates); the
  // second warms metric shards and the LRU touch path.
  for (int round = 0; round < 2; ++round) {
    for (const RangeQuery& q : queries_) {
      engine.Answer(q, CountKind::kStatic, BoundMode::kLower);
    }
  }
  util::AllocProbe probe;
  for (const RangeQuery& q : queries_) {
    engine.Answer(q, CountKind::kStatic, BoundMode::kLower);
  }
  EXPECT_EQ(probe.Delta(), 0u);
}

}  // namespace
}  // namespace innet::core
