// The sampled sensing graph G̃ (§4.5).
//
// Construction. Selected communication sensors are connected by Delaunay
// triangulation or k-NN; each logical edge is materialized as the shortest
// path between the two sensors in the sensing graph G (never routing through
// the ext node). The union of the traversed sensing edges is the MONITORED
// edge set; shared path nodes are the "intersection" relay sensors of
// Fig. 6b/e. For the query-adaptive mode (§4.4) the monitored set is given
// directly as the boundaries of the selected regions.
//
// Faces. A face of G̃ is a maximal set of junctions mutually reachable
// through roads whose sensing edge is NOT monitored — computed by flood
// fill. Every face of G̃ is therefore a union of faces of G (junction
// cells), and the boundary of any union of G̃ faces consists purely of
// monitored edges, so queries touch monitored sensors only.
#ifndef INNET_CORE_SAMPLED_GRAPH_H_
#define INNET_CORE_SAMPLED_GRAPH_H_

#include <vector>

#include "core/query_workspace.h"
#include "core/sensor_network.h"
#include "forms/region_count.h"
#include "graph/planar_graph.h"

namespace innet::core {

/// How sampled sensors are connected into G̃ (§4.5, Fig. 6).
enum class Connectivity {
  kTriangulation,
  kKnn,
};

/// Construction knobs for the query-oblivious mode.
struct SampledGraphOptions {
  Connectivity connectivity = Connectivity::kTriangulation;
  /// Neighbors per sensor for Connectivity::kKnn.
  size_t knn_k = 3;
};

/// Size/shape statistics of a sampled graph.
struct SampledGraphStats {
  size_t num_comm_sensors = 0;     // Selected communication sensors.
  size_t num_relay_sensors = 0;    // Path-interior (relay) sensors.
  size_t num_monitored_edges = 0;  // Sensing edges carrying tracking forms.
  size_t num_faces = 0;            // Faces of G̃ (junction components).
  size_t simplified_nodes = 0;     // G̃ nodes after degree-2 contraction.
  size_t simplified_edges = 0;     // G̃ edges after degree-2 contraction.
};

/// Immutable sampled graph over a SensorNetwork. Every face/boundary table
/// is precomputed at construction and all query methods are pure const
/// reads, so a frozen SampledGraph is safe to share across query threads.
class SampledGraph {
 public:
  /// Query-oblivious construction from selected sensors (§4.3 + §4.5).
  static SampledGraph FromSensors(const SensorNetwork& network,
                                  std::vector<graph::NodeId> sensors,
                                  const SampledGraphOptions& options);

  /// Query-adaptive construction from an explicit monitored edge set (§4.4).
  static SampledGraph FromMonitoredEdges(
      const SensorNetwork& network,
      const std::vector<graph::EdgeId>& monitored,
      std::vector<graph::NodeId> comm_sensors);

  const SensorNetwork& network() const { return *network_; }

  const std::vector<graph::EdgeId>& monitored_edges() const {
    return monitored_edges_;
  }
  /// Virtual ⋆v_ext edges are monitored by every deployment; real edges per
  /// the sampled construction.
  bool IsMonitored(graph::EdgeId e) const {
    return e >= monitored_mask_.size() || monitored_mask_[e];
  }
  const std::vector<bool>& monitored_mask() const { return monitored_mask_; }

  const std::vector<graph::NodeId>& comm_sensors() const {
    return comm_sensors_;
  }

  /// Face of G̃ containing the given junction's cell.
  uint32_t FaceOfJunction(graph::NodeId junction) const {
    return face_of_junction_[junction];
  }
  uint32_t NumFaces() const { return static_cast<uint32_t>(face_sizes_.size()); }
  size_t FaceSize(uint32_t face) const { return face_sizes_[face]; }

  /// Lower-bound region: faces of G̃ whose junctions all lie in Q_R
  /// (the maximal enclosed region R2 of Fig. 7). Duplicate junctions in
  /// `qr_junctions` are counted once.
  std::vector<uint32_t> LowerBoundFaces(
      const std::vector<graph::NodeId>& qr_junctions) const;

  /// Upper-bound region: faces of G̃ intersecting Q_R (the minimal
  /// containing region R1 of Fig. 7).
  std::vector<uint32_t> UpperBoundFaces(
      const std::vector<graph::NodeId>& qr_junctions) const;

  /// Allocation-free variants: the resolved faces land in `ws.faces`
  /// (ascending face ids, identical to the allocating overloads). Each
  /// candidate face sets one bit of the workspace face bitmap; a sweep of
  /// the touched words emits them in id order and leaves the bitmap zero,
  /// so no per-query sort runs and a warm workspace never touches the heap.
  void LowerBoundFaces(const std::vector<graph::NodeId>& qr_junctions,
                       QueryWorkspace& ws) const;
  void UpperBoundFaces(const std::vector<graph::NodeId>& qr_junctions,
                       QueryWorkspace& ws) const;

  /// Boundary of a union of G̃ faces: the monitored edges to integrate over
  /// plus the distinct sensors (dual nodes) that must be contacted. The
  /// computation is region-local — it touches only the listed faces'
  /// incident monitored edges, mirroring the in-network dispatch that never
  /// leaves the query region's perimeter.
  struct RegionBoundary {
    std::vector<forms::BoundaryEdge> edges;
    std::vector<graph::NodeId> sensors;
  };
  RegionBoundary BoundaryOfFaces(const std::vector<uint32_t>& faces) const;

  /// Allocation-free variant: fills `ws.boundary_edges` and
  /// `ws.boundary_sensors`. `faces` must be distinct and may alias
  /// `ws.faces`. Order contract, shared with the allocating overload:
  ///   - edges ascend by edge id (CSR slot order in the frozen store, so the
  ///     batched boundary kernels stream it monotonically), produced by a
  ///     sweep of the workspace edge bitmap rather than a sort;
  ///   - sensors are deduplicated with stamped marks in first-encounter
  ///     order: `faces` in the given order, and within a face its real
  ///     edges by ascending id (left then right dual endpoint), then its
  ///     gateways' ⋆v_ext edges (the ext node).
  void BoundaryOfFaces(const std::vector<uint32_t>& faces,
                       QueryWorkspace& ws) const;

  const SampledGraphStats& stats() const { return stats_; }

 private:
  SampledGraph(const SensorNetwork& network,
               std::vector<graph::NodeId> comm_sensors,
               std::vector<bool> monitored_mask);

  void ComputeFaces();
  void ComputeStats();

  const SensorNetwork* network_;
  std::vector<graph::NodeId> comm_sensors_;
  std::vector<bool> monitored_mask_;
  std::vector<graph::EdgeId> monitored_edges_;
  std::vector<uint32_t> face_of_junction_;
  std::vector<size_t> face_sizes_;
  // Face-incidence CSR: the records of face f are
  // incidences_[incidence_offsets_[f] .. incidence_offsets_[f + 1]). One
  // record per (face, monitored edge whose two ends lie in different
  // faces) in ascending edge order, then one per gateway of the face for
  // its ⋆v_ext virtual edge. Edges inside one face are never boundary
  // edges and get no record.
  struct Incidence {
    // Face on the edge's other side; NumFaces() for virtual edges, a face
    // id BoundaryOfFaces never stamps, so those records are always kept.
    uint32_t other_face;
    // edge << 1 | inward, inward = this face holds the edge's v end
    // (always 1 for virtual edges).
    uint32_t edge_inward;
  };
  std::vector<uint32_t> incidence_offsets_;
  std::vector<Incidence> incidences_;
  SampledGraphStats stats_;
};

}  // namespace innet::core

#endif  // INNET_CORE_SAMPLED_GRAPH_H_
