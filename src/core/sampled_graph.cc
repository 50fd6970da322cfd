#include "core/sampled_graph.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <set>

#include "geometry/delaunay.h"
#include "graph/connectivity.h"
#include "graph/shortest_path.h"
#include "spatial/kdtree.h"
#include "util/logging.h"

namespace innet::core {

namespace {

// Logical sensor-to-sensor links before path materialization.
std::vector<std::pair<size_t, size_t>> ConnectSensors(
    const std::vector<geometry::Point>& positions,
    const SampledGraphOptions& options) {
  std::vector<std::pair<size_t, size_t>> links;
  if (positions.size() < 2) return links;
  if (options.connectivity == Connectivity::kTriangulation &&
      positions.size() >= 3) {
    geometry::Triangulation tri = geometry::DelaunayTriangulate(positions);
    for (const auto& [a, b] : tri.Edges()) links.emplace_back(a, b);
    if (!links.empty()) return links;
    // Fall through to k-NN for degenerate (collinear) inputs.
  }
  spatial::KdTree index(positions);
  std::set<std::pair<size_t, size_t>> unique;
  size_t k = std::max<size_t>(1, options.knn_k);
  for (size_t i = 0; i < positions.size(); ++i) {
    // k+1 because the query point itself is its own nearest neighbor.
    std::vector<size_t> nearest = index.KNearest(positions[i], k + 1);
    for (size_t j : nearest) {
      if (j == i) continue;
      unique.insert(std::minmax(i, j));
    }
  }
  links.assign(unique.begin(), unique.end());
  return links;
}

// Set bits in words [lo, hi]; 0 for an empty range (lo > hi).
size_t CountBits(const uint64_t* words, size_t lo, size_t hi) {
  size_t count = 0;
  for (size_t w = lo; w <= hi; ++w) count += std::popcount(words[w]);
  return count;
}

// Calls emit(id) for every set bit of words [lo, hi] in ascending id order,
// zeroing each word as it is read. An empty range (lo > hi) emits nothing.
template <typename Emit>
void DrainBits(uint64_t* words, size_t lo, size_t hi, const Emit& emit) {
  for (size_t w = lo; w <= hi; ++w) {
    uint64_t word = words[w];
    words[w] = 0;
    while (word != 0) {
      emit(static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

}  // namespace

SampledGraph SampledGraph::FromSensors(const SensorNetwork& network,
                                       std::vector<graph::NodeId> sensors,
                                       const SampledGraphOptions& options) {
  const graph::DualGraph& dual = network.sensing();
  std::vector<geometry::Point> positions;
  positions.reserve(sensors.size());
  for (graph::NodeId s : sensors) {
    INNET_CHECK(s < dual.NumNodes() && s != dual.ExtNode());
    positions.push_back(dual.Position(s));
  }

  std::vector<std::pair<size_t, size_t>> links =
      ConnectSensors(positions, options);

  // Materialize each logical link as the shortest sensing-graph path
  // between the two sensors, never routing through the ext node.
  std::vector<bool> blocked(dual.NumNodes(), false);
  blocked[dual.ExtNode()] = true;
  std::vector<bool> monitored(network.mobility().NumEdges(), false);
  for (const auto& [ai, bi] : links) {
    std::optional<graph::Path> path = graph::ShortestPath(
        dual.adjacency(), sensors[ai], sensors[bi], &blocked);
    if (!path.has_value()) continue;  // Sensing graph split by blocking ext.
    for (graph::EdgeId via : path->edges) monitored[via] = true;
  }
  return SampledGraph(network, std::move(sensors), std::move(monitored));
}

SampledGraph SampledGraph::FromMonitoredEdges(
    const SensorNetwork& network, const std::vector<graph::EdgeId>& monitored,
    std::vector<graph::NodeId> comm_sensors) {
  std::vector<bool> mask(network.mobility().NumEdges(), false);
  for (graph::EdgeId e : monitored) {
    INNET_CHECK(e < mask.size());
    mask[e] = true;
  }
  return SampledGraph(network, std::move(comm_sensors), std::move(mask));
}

SampledGraph::SampledGraph(const SensorNetwork& network,
                           std::vector<graph::NodeId> comm_sensors,
                           std::vector<bool> monitored_mask)
    : network_(&network),
      comm_sensors_(std::move(comm_sensors)),
      monitored_mask_(std::move(monitored_mask)) {
  for (graph::EdgeId e = 0; e < monitored_mask_.size(); ++e) {
    if (monitored_mask_[e]) monitored_edges_.push_back(e);
  }
  ComputeFaces();
  ComputeStats();
}

void SampledGraph::ComputeFaces() {
  graph::ComponentLabels labels = graph::ComponentsWithRemovedEdges(
      network_->mobility(), monitored_mask_);
  face_of_junction_ = std::move(labels.label);
  face_sizes_.assign(labels.count, 0);
  for (uint32_t f : face_of_junction_) ++face_sizes_[f];

  // Face-incidence CSR for region-local boundary extraction: count, prefix
  // sum, then fill real edges (ascending, since monitored_edges_ is) before
  // any gateway record, so every face lists its edges first.
  const graph::PlanarGraph& mobility = network_->mobility();
  INNET_CHECK(network_->TotalEdgeSpace() <=
              std::numeric_limits<uint32_t>::max() >> 1);
  const uint32_t virtual_side = labels.count;
  std::vector<uint32_t> cursor(labels.count + 1, 0);
  for (graph::EdgeId e : monitored_edges_) {
    uint32_t fu = face_of_junction_[mobility.Edge(e).u];
    uint32_t fv = face_of_junction_[mobility.Edge(e).v];
    if (fu == fv) continue;
    ++cursor[fu + 1];
    ++cursor[fv + 1];
  }
  for (graph::NodeId g : network_->gateways()) {
    ++cursor[face_of_junction_[g] + 1];
  }
  for (uint32_t f = 0; f < labels.count; ++f) cursor[f + 1] += cursor[f];
  incidence_offsets_ = cursor;
  incidences_.resize(cursor.back());
  for (graph::EdgeId e : monitored_edges_) {
    uint32_t fu = face_of_junction_[mobility.Edge(e).u];
    uint32_t fv = face_of_junction_[mobility.Edge(e).v];
    if (fu == fv) continue;
    incidences_[cursor[fu]++] = {fv, e << 1};
    incidences_[cursor[fv]++] = {fu, e << 1 | 1u};
  }
  for (graph::NodeId g : network_->gateways()) {
    incidences_[cursor[face_of_junction_[g]]++] = {
        virtual_side, network_->VirtualEdgeOf(g) << 1 | 1u};
  }
}

void SampledGraph::ComputeStats() {
  const graph::PlanarGraph& mobility = network_->mobility();
  const graph::DualGraph& dual = network_->sensing();
  stats_.num_comm_sensors = comm_sensors_.size();
  stats_.num_monitored_edges = monitored_edges_.size();
  stats_.num_faces = face_sizes_.size();

  // Sensors participating in G̃: dual endpoints of monitored edges. Relays
  // are participants that were not selected as communication sensors.
  std::vector<bool> participant(dual.NumNodes(), false);
  std::vector<uint32_t> degree(dual.NumNodes(), 0);
  for (graph::EdgeId e : monitored_edges_) {
    graph::NodeId a = mobility.Edge(e).left;
    graph::NodeId b = mobility.Edge(e).right;
    participant[a] = true;
    participant[b] = true;
    ++degree[a];
    ++degree[b];
  }
  std::vector<bool> is_comm(dual.NumNodes(), false);
  for (graph::NodeId s : comm_sensors_) is_comm[s] = true;
  for (graph::NodeId n = 0; n < dual.NumNodes(); ++n) {
    if (participant[n] && !is_comm[n]) ++stats_.num_relay_sensors;
  }

  // Simplified G̃ (Fig. 6c/f): contract relay chains — every participant of
  // degree != 2 stays a node; edges equal monitored edges minus contracted
  // interior relays.
  size_t junction_nodes = 0;  // Degree != 2 participants.
  size_t chain_nodes = 0;     // Degree == 2 participants (contracted).
  for (graph::NodeId n = 0; n < dual.NumNodes(); ++n) {
    if (!participant[n]) continue;
    if (degree[n] == 2 && !is_comm[n]) {
      ++chain_nodes;
    } else {
      ++junction_nodes;
    }
  }
  stats_.simplified_nodes = junction_nodes;
  stats_.simplified_edges =
      monitored_edges_.size() >= chain_nodes
          ? monitored_edges_.size() - chain_nodes
          : 0;
}

void SampledGraph::LowerBoundFaces(
    const std::vector<graph::NodeId>& qr_junctions, QueryWorkspace& ws) const {
  ws.EnsureDomains(NumFaces() + 1, face_of_junction_.size(),
                   network_->sensing().NumNodes(),
                   network_->TotalEdgeSpace());
  uint32_t gen = ws.NextGeneration();
  uint32_t* junction_stamp = ws.junction_stamp().data();
  uint32_t* face_stamp = ws.face_stamp().data();
  uint32_t* face_count = ws.face_count().data();
  uint64_t* face_bits = ws.face_bits().data();
  size_t lo = ws.face_bits().size();
  size_t hi = 0;
  // Count UNIQUE junctions per face: a duplicated junction in the query
  // must not inflate a face's hit count past its size (which would make the
  // full-coverage equality below silently reject the face).
  for (graph::NodeId n : qr_junctions) {
    if (junction_stamp[n] == gen) continue;
    junction_stamp[n] = gen;
    uint32_t f = face_of_junction_[n];
    if (face_stamp[f] != gen) {
      face_stamp[f] = gen;
      face_count[f] = 0;
      face_bits[f >> 6] |= uint64_t{1} << (f & 63);
      lo = std::min<size_t>(lo, f >> 6);
      hi = std::max<size_t>(hi, f >> 6);
    }
    ++face_count[f];
  }
  // Candidate faces in ascending id order (the allocating overload's output
  // order), keeping those the query covers completely.
  ws.faces.resize(CountBits(face_bits, lo, hi));
  uint32_t* out = ws.faces.data();
  size_t kept = 0;
  DrainBits(face_bits, lo, hi, [&](uint32_t f) {
    out[kept] = f;
    kept += face_count[f] == face_sizes_[f];
  });
  ws.faces.resize(kept);
}

std::vector<uint32_t> SampledGraph::LowerBoundFaces(
    const std::vector<graph::NodeId>& qr_junctions) const {
  QueryWorkspace& ws = LocalWorkspace();
  LowerBoundFaces(qr_junctions, ws);
  return ws.faces;
}

void SampledGraph::UpperBoundFaces(
    const std::vector<graph::NodeId>& qr_junctions, QueryWorkspace& ws) const {
  ws.EnsureDomains(NumFaces() + 1, face_of_junction_.size(),
                   network_->sensing().NumNodes(),
                   network_->TotalEdgeSpace());
  uint64_t* face_bits = ws.face_bits().data();
  size_t lo = ws.face_bits().size();
  size_t hi = 0;
  for (graph::NodeId n : qr_junctions) {
    uint32_t f = face_of_junction_[n];
    face_bits[f >> 6] |= uint64_t{1} << (f & 63);
    lo = std::min<size_t>(lo, f >> 6);
    hi = std::max<size_t>(hi, f >> 6);
  }
  ws.faces.resize(CountBits(face_bits, lo, hi));
  uint32_t* out = ws.faces.data();
  DrainBits(face_bits, lo, hi, [&](uint32_t f) { *out++ = f; });
}

std::vector<uint32_t> SampledGraph::UpperBoundFaces(
    const std::vector<graph::NodeId>& qr_junctions) const {
  QueryWorkspace& ws = LocalWorkspace();
  UpperBoundFaces(qr_junctions, ws);
  return ws.faces;
}

void SampledGraph::BoundaryOfFaces(const std::vector<uint32_t>& faces,
                                   QueryWorkspace& ws) const {
  const graph::EdgeRecord* edge_records = network_->mobility().edges().data();
  const graph::NodeId ext = network_->sensing().ExtNode();
  ws.EnsureDomains(NumFaces() + 1, face_of_junction_.size(),
                   network_->sensing().NumNodes(),
                   network_->TotalEdgeSpace());
  uint32_t gen = ws.NextGeneration();
  uint32_t* face_stamp = ws.face_stamp().data();
  uint32_t* sensor_stamp = ws.sensor_stamp().data();
  uint64_t* edge_bits = ws.edge_bits().data();
  uint64_t* inward_bits = ws.inward_bits().data();
  for (uint32_t f : faces) {
    // A repeated face would gather its edges twice and overrun the
    // edge-domain scratch below.
    INNET_CHECK(face_stamp[f] != gen);
    face_stamp[f] = gen;
  }

  // Gather the kept records. A boundary edge has exactly one side in the
  // region, so it is kept from exactly one in-region face's records;
  // interior edges are skipped from both sides, and virtual records face
  // the never-stamped sentinel. The store is unconditional and the cursor
  // advances by the keep bit, so the scan has no data-dependent branch.
  // Kept records are distinct edges, so the gather stays within the edge
  // domain.
  uint32_t* kept = ws.edge_scratch().data();
  size_t num_kept = 0;
  for (uint32_t f : faces) {
    const Incidence* rec = incidences_.data() + incidence_offsets_[f];
    const Incidence* end = incidences_.data() + incidence_offsets_[f + 1];
    for (; rec != end; ++rec) {
      kept[num_kept] = rec->edge_inward;
      num_kept += face_stamp[rec->other_face] != gen;
    }
  }

  // The sensors holding the kept edges' tracking forms (an edge's dual
  // endpoints, or the ext node for a ⋆v_ext virtual edge), deduplicated by
  // stamp in first-encounter order; and the edge and inward bits.
  ws.boundary_sensors.resize(2 * num_kept);
  graph::NodeId* sensors = ws.boundary_sensors.data();
  size_t num_sensors = 0;
  auto add_sensor = [&](graph::NodeId s) {
    sensors[num_sensors] = s;
    num_sensors += sensor_stamp[s] != gen;
    sensor_stamp[s] = gen;
  };
  size_t lo = ws.edge_bits().size();
  size_t hi = 0;
  for (size_t i = 0; i < num_kept; ++i) {
    graph::EdgeId e = kept[i] >> 1;
    if (network_->IsVirtualEdge(e)) {
      add_sensor(ext);
    } else {
      add_sensor(edge_records[e].left);
      add_sensor(edge_records[e].right);
    }
    edge_bits[e >> 6] |= uint64_t{1} << (e & 63);
    inward_bits[e >> 6] |= uint64_t{kept[i] & 1u} << (e & 63);
    lo = std::min<size_t>(lo, e >> 6);
    hi = std::max<size_t>(hi, e >> 6);
  }
  ws.boundary_sensors.resize(num_sensors);

  // Edge-id order == CSR slot order in the frozen store, so the batched
  // boundary kernels walk times_/offsets_ monotonically and their software
  // prefetches aim at ascending addresses.
  ws.boundary_edges.resize(num_kept);
  forms::BoundaryEdge* out = ws.boundary_edges.data();
  DrainBits(edge_bits, lo, hi, [&](uint32_t e) {
    bool inward = (inward_bits[e >> 6] >> (e & 63)) & 1u;
    *out++ = {e, /*inward_is_forward=*/inward};
  });
  for (size_t w = lo; w <= hi; ++w) inward_bits[w] = 0;
}

SampledGraph::RegionBoundary SampledGraph::BoundaryOfFaces(
    const std::vector<uint32_t>& faces) const {
  QueryWorkspace& ws = LocalWorkspace();
  BoundaryOfFaces(faces, ws);
  RegionBoundary boundary;
  boundary.edges = ws.boundary_edges;
  boundary.sensors = ws.boundary_sensors;
  return boundary;
}

}  // namespace innet::core
