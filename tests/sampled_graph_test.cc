#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/framework.h"
#include "core/query_workspace.h"
#include "core/workload.h"
#include "sampling/samplers.h"

namespace innet::core {
namespace {

core::FrameworkOptions SmallOptions(uint64_t seed) {
  FrameworkOptions options;
  options.road.num_junctions = 250;
  options.traffic.num_trajectories = 300;
  options.seed = seed;
  return options;
}

// Reference region resolution: the sort-based algorithm SampledGraph used
// before its face-incidence CSR, rebuilt from the public API. The
// differential tests below require element-for-element equality with it.
std::vector<uint32_t> ReferenceLowerFaces(
    const SampledGraph& g, const std::vector<graph::NodeId>& junctions) {
  std::set<graph::NodeId> unique(junctions.begin(), junctions.end());
  std::map<uint32_t, size_t> hits;
  for (graph::NodeId n : unique) ++hits[g.FaceOfJunction(n)];
  std::vector<uint32_t> faces;
  for (const auto& [f, count] : hits) {
    if (count == g.FaceSize(f)) faces.push_back(f);
  }
  return faces;
}

std::vector<uint32_t> ReferenceUpperFaces(
    const SampledGraph& g, const std::vector<graph::NodeId>& junctions) {
  std::set<uint32_t> faces;
  for (graph::NodeId n : junctions) faces.insert(g.FaceOfJunction(n));
  return {faces.begin(), faces.end()};
}

// Per face in the given order: its monitored edges by ascending id, then
// its gateways' virtual edges in gateways() order; sensors deduplicated in
// first-encounter order; edges finally sorted stably by id.
SampledGraph::RegionBoundary ReferenceBoundary(
    const SampledGraph& g, const std::vector<uint32_t>& faces) {
  const SensorNetwork& network = g.network();
  const graph::PlanarGraph& mobility = network.mobility();
  std::vector<bool> in_region(g.NumFaces(), false);
  for (uint32_t f : faces) in_region[f] = true;
  SampledGraph::RegionBoundary out;
  std::set<graph::NodeId> seen;
  auto add_sensor = [&](graph::NodeId s) {
    if (seen.insert(s).second) out.sensors.push_back(s);
  };
  for (uint32_t f : faces) {
    for (graph::EdgeId e : g.monitored_edges()) {
      const graph::EdgeRecord& rec = mobility.Edge(e);
      uint32_t fu = g.FaceOfJunction(rec.u);
      uint32_t fv = g.FaceOfJunction(rec.v);
      if (fu != f && fv != f) continue;
      if (in_region[fu] == in_region[fv]) continue;
      out.edges.push_back({e, /*inward_is_forward=*/in_region[fv]});
      add_sensor(rec.left);
      add_sensor(rec.right);
    }
    for (graph::NodeId gw : network.gateways()) {
      if (g.FaceOfJunction(gw) != f) continue;
      out.edges.push_back({network.VirtualEdgeOf(gw), true});
      add_sensor(network.sensing().ExtNode());
    }
  }
  std::stable_sort(
      out.edges.begin(), out.edges.end(),
      [](const forms::BoundaryEdge& a, const forms::BoundaryEdge& b) {
        return a.edge < b.edge;
      });
  return out;
}

void ExpectSameBoundary(const std::vector<forms::BoundaryEdge>& edges,
                        const std::vector<graph::NodeId>& sensors,
                        const SampledGraph::RegionBoundary& expected) {
  ASSERT_EQ(edges.size(), expected.edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i].edge, expected.edges[i].edge) << "edge slot " << i;
    EXPECT_EQ(edges[i].inward_is_forward, expected.edges[i].inward_is_forward)
        << "edge " << edges[i].edge;
  }
  EXPECT_EQ(sensors, expected.sensors);
}

// Resolves `faces` through both BoundaryOfFaces overloads and compares each
// with the reference.
void CheckBoundary(const SampledGraph& g, const std::vector<uint32_t>& faces,
                   QueryWorkspace& ws) {
  SampledGraph::RegionBoundary expected = ReferenceBoundary(g, faces);
  g.BoundaryOfFaces(faces, ws);
  ExpectSameBoundary(ws.boundary_edges, ws.boundary_sensors, expected);
  SampledGraph::RegionBoundary allocated = g.BoundaryOfFaces(faces);
  ExpectSameBoundary(allocated.edges, allocated.sensors, expected);
}

// Seeded differential trials of all three resolution primitives against
// the reference, through one reused workspace.
void CheckResolutionMatchesReference(const SampledGraph& g, uint64_t seed) {
  const SensorNetwork& network = g.network();
  const size_t num_junctions = network.mobility().NumNodes();
  const uint32_t num_faces = g.NumFaces();
  util::Rng rng(seed);
  QueryWorkspace ws;

  auto check_junctions = [&](const std::vector<graph::NodeId>& junctions) {
    std::vector<uint32_t> lower = ReferenceLowerFaces(g, junctions);
    g.LowerBoundFaces(junctions, ws);
    EXPECT_EQ(ws.faces, lower);
    EXPECT_EQ(g.LowerBoundFaces(junctions), lower);
    CheckBoundary(g, ws.faces, ws);  // Aliases ws.faces.

    std::vector<uint32_t> upper = ReferenceUpperFaces(g, junctions);
    g.UpperBoundFaces(junctions, ws);
    EXPECT_EQ(ws.faces, upper);
    EXPECT_EQ(g.UpperBoundFaces(junctions), upper);
    CheckBoundary(g, ws.faces, ws);
  };

  // Edge cases: nothing, one whole face, everything.
  check_junctions({});
  std::vector<graph::NodeId> all_junctions(num_junctions);
  for (graph::NodeId n = 0; n < num_junctions; ++n) all_junctions[n] = n;
  check_junctions(all_junctions);
  const uint32_t whole = g.FaceOfJunction(
      static_cast<graph::NodeId>(rng.UniformIndex(num_junctions)));
  std::vector<graph::NodeId> whole_face;
  for (graph::NodeId n = 0; n < num_junctions; ++n) {
    if (g.FaceOfJunction(n) == whole) whole_face.push_back(n);
  }
  check_junctions(whole_face);

  // Random junction lists with duplicates.
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("junction trial " + std::to_string(trial));
    std::vector<graph::NodeId> junctions;
    size_t k = 1 + rng.UniformIndex(num_junctions / 3);
    for (size_t i = 0; i < k; ++i) {
      junctions.push_back(
          static_cast<graph::NodeId>(rng.UniformIndex(num_junctions)));
    }
    for (size_t i = 0; i < k / 4; ++i) {
      junctions.push_back(junctions[rng.UniformIndex(junctions.size())]);
    }
    check_junctions(junctions);
  }

  // Random face subsets in random order, always including the bitmap word
  // edges 63/64/127/128, the last face id and a gateway (virtual-edge) face.
  std::vector<uint32_t> special = {63, 64, 127, 128, num_faces - 1};
  special.push_back(g.FaceOfJunction(network.gateways().front()));
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("face trial " + std::to_string(trial));
    std::set<uint32_t> subset;
    for (uint32_t f : special) {
      if (f < num_faces && rng.Bernoulli(0.7)) subset.insert(f);
    }
    double p = rng.Uniform(0.0, 0.5);
    for (uint32_t f = 0; f < num_faces; ++f) {
      if (rng.Bernoulli(p)) subset.insert(f);
    }
    std::vector<uint32_t> faces(subset.begin(), subset.end());
    rng.Shuffle(faces);
    CheckBoundary(g, faces, ws);
  }
  std::vector<uint32_t> every_face(num_faces);
  for (uint32_t f = 0; f < num_faces; ++f) every_face[f] = f;
  CheckBoundary(g, every_face, ws);
  for (uint32_t f = 0; f < num_faces; ++f) CheckBoundary(g, {f}, ws);
}

class SampledGraphFixture : public ::testing::Test {
 protected:
  SampledGraphFixture() : framework_(SmallOptions(1)) {}
  Framework framework_;
};

TEST_F(SampledGraphFixture, FacesPartitionJunctions) {
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 5, DeploymentOptions{},
      rng);
  const SampledGraph& g = dep.graph();
  std::vector<size_t> sizes(g.NumFaces(), 0);
  for (graph::NodeId n = 0; n < framework_.network().mobility().NumNodes();
       ++n) {
    uint32_t f = g.FaceOfJunction(n);
    ASSERT_LT(f, g.NumFaces());
    ++sizes[f];
  }
  size_t total = 0;
  for (uint32_t f = 0; f < g.NumFaces(); ++f) {
    EXPECT_EQ(sizes[f], g.FaceSize(f));
    total += sizes[f];
  }
  EXPECT_EQ(total, framework_.network().mobility().NumNodes());
}

TEST_F(SampledGraphFixture, MonitoredEdgesSeparateFaces) {
  sampling::UniformSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 4, DeploymentOptions{},
      rng);
  const SampledGraph& g = dep.graph();
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  // Unmonitored edges never separate faces.
  for (graph::EdgeId e = 0; e < mobility.NumEdges(); ++e) {
    const graph::EdgeRecord& rec = mobility.Edge(e);
    if (!g.IsMonitored(e)) {
      EXPECT_EQ(g.FaceOfJunction(rec.u), g.FaceOfJunction(rec.v));
    }
  }
  // Virtual edges are always monitored.
  EXPECT_TRUE(g.IsMonitored(
      static_cast<graph::EdgeId>(mobility.NumEdges())));
}

TEST_F(SampledGraphFixture, LowerFacesAreSubsetOfUpperFaces) {
  sampling::QuadTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 4, DeploymentOptions{},
      rng);
  WorkloadOptions wo;
  wo.area_fraction = 0.08;
  wo.horizon = framework_.Horizon();
  util::Rng qrng = framework_.ForkRng();
  std::vector<RangeQuery> queries =
      GenerateWorkload(framework_.network(), wo, 15, qrng);
  for (const RangeQuery& q : queries) {
    std::vector<uint32_t> lower = dep.graph().LowerBoundFaces(q.junctions);
    std::vector<uint32_t> upper = dep.graph().UpperBoundFaces(q.junctions);
    std::set<uint32_t> upper_set(upper.begin(), upper.end());
    for (uint32_t f : lower) EXPECT_EQ(upper_set.count(f), 1u);
    // Lower faces fully inside; upper faces intersect.
    std::set<graph::NodeId> qset(q.junctions.begin(), q.junctions.end());
    for (uint32_t f : lower) {
      for (graph::NodeId n = 0;
           n < framework_.network().mobility().NumNodes(); ++n) {
        if (dep.graph().FaceOfJunction(n) == f) {
          EXPECT_EQ(qset.count(n), 1u);
        }
      }
    }
  }
}

TEST_F(SampledGraphFixture, BoundaryEdgesAreMonitoredAndSeparating) {
  sampling::SystematicSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 4, DeploymentOptions{},
      rng);
  WorkloadOptions wo;
  wo.area_fraction = 0.1;
  wo.horizon = framework_.Horizon();
  util::Rng qrng = framework_.ForkRng();
  std::vector<RangeQuery> queries =
      GenerateWorkload(framework_.network(), wo, 10, qrng);
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  for (const RangeQuery& q : queries) {
    std::vector<uint32_t> faces = dep.graph().UpperBoundFaces(q.junctions);
    SampledGraph::RegionBoundary boundary =
        dep.graph().BoundaryOfFaces(faces);
    std::set<uint32_t> region(faces.begin(), faces.end());
    for (const forms::BoundaryEdge& b : boundary.edges) {
      EXPECT_TRUE(dep.graph().IsMonitored(b.edge));
      if (b.edge < mobility.NumEdges()) {
        const graph::EdgeRecord& rec = mobility.Edge(b.edge);
        bool u_in = region.count(dep.graph().FaceOfJunction(rec.u)) > 0;
        bool v_in = region.count(dep.graph().FaceOfJunction(rec.v)) > 0;
        EXPECT_NE(u_in, v_in);
        EXPECT_EQ(b.inward_is_forward, v_in);
      }
    }
    if (!boundary.edges.empty()) {
      EXPECT_FALSE(boundary.sensors.empty());
    }
  }
}

TEST_F(SampledGraphFixture, StatsAreConsistent) {
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  size_t m = framework_.network().NumSensors() / 4;
  Deployment dep =
      framework_.DeployWithSampler(sampler, m, DeploymentOptions{}, rng);
  const SampledGraphStats& stats = dep.graph().stats();
  EXPECT_EQ(stats.num_comm_sensors, m);
  EXPECT_EQ(stats.num_monitored_edges, dep.graph().monitored_edges().size());
  EXPECT_EQ(stats.num_faces, dep.graph().NumFaces());
  EXPECT_GT(stats.num_faces, 1u);
  EXPECT_LE(stats.simplified_edges, stats.num_monitored_edges);
  EXPECT_GT(stats.simplified_nodes, 0u);
}

TEST_F(SampledGraphFixture, KnnProducesMoreFacesThanSparseTriangulation) {
  // §4.5/Fig. 14: k-NN with larger k yields more, smaller faces.
  util::Rng rng1 = framework_.ForkRng();
  sampling::KdTreeSampler sampler;
  size_t m = framework_.network().NumSensors() / 4;
  std::vector<graph::NodeId> sensors =
      sampler.Select(framework_.network().sensing(), m, rng1);

  DeploymentOptions knn3;
  knn3.graph.connectivity = Connectivity::kKnn;
  knn3.graph.knn_k = 3;
  DeploymentOptions knn8 = knn3;
  knn8.graph.knn_k = 8;
  Deployment d3 = framework_.DeployFromSensors(sensors, knn3);
  Deployment d8 = framework_.DeployFromSensors(sensors, knn8);
  EXPECT_GE(d8.graph().NumFaces(), d3.graph().NumFaces());
  EXPECT_GE(d8.graph().monitored_edges().size(),
            d3.graph().monitored_edges().size());
}

TEST_F(SampledGraphFixture, FromMonitoredEdgesAllEdges) {
  // Monitoring every edge: each junction becomes its own face.
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  std::vector<graph::EdgeId> all;
  for (graph::EdgeId e = 0; e < mobility.NumEdges(); ++e) all.push_back(e);
  SampledGraph g =
      SampledGraph::FromMonitoredEdges(framework_.network(), all, {});
  EXPECT_EQ(g.NumFaces(), mobility.NumNodes());
}

TEST_F(SampledGraphFixture, MoreSensorsMeansMoreFaces) {
  sampling::UniformSampler sampler;
  size_t prev_faces = 0;
  for (size_t m : {10, 40, 120}) {
    util::Rng rng(7);  // Same stream for nested-ish samples.
    Deployment dep =
        framework_.DeployWithSampler(sampler, m, DeploymentOptions{}, rng);
    EXPECT_GE(dep.graph().NumFaces(), prev_faces);
    prev_faces = dep.graph().NumFaces();
  }
}

TEST_F(SampledGraphFixture, DelaunayResolutionMatchesReference) {
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 3, DeploymentOptions{},
      rng);
  for (uint64_t seed : {1u, 2u, 3u}) {
    CheckResolutionMatchesReference(dep.graph(), seed);
  }
}

TEST_F(SampledGraphFixture, KnnResolutionMatchesReference) {
  sampling::UniformSampler sampler;
  util::Rng rng = framework_.ForkRng();
  DeploymentOptions options;
  options.graph.connectivity = Connectivity::kKnn;
  options.graph.knn_k = 4;
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 3, options, rng);
  for (uint64_t seed : {4u, 5u, 6u}) {
    CheckResolutionMatchesReference(dep.graph(), seed);
  }
}

TEST_F(SampledGraphFixture, MonitoredEdgeResolutionMatchesReference) {
  // Most roads monitored: many small faces, so face ids
  // and edge ids both span several bitmap words.
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  util::Rng rng(17);
  std::vector<graph::EdgeId> monitored;
  for (graph::EdgeId e = 0; e < mobility.NumEdges(); ++e) {
    if (rng.Bernoulli(0.85)) monitored.push_back(e);
  }
  SampledGraph g =
      SampledGraph::FromMonitoredEdges(framework_.network(), monitored, {});
  ASSERT_GT(g.NumFaces(), 129u);
  for (uint64_t seed : {7u, 8u, 9u}) CheckResolutionMatchesReference(g, seed);
}

}  // namespace
}  // namespace innet::core
