#include "mobility/map_matching.h"

#include <algorithm>
#include <cmath>

#include "graph/shortest_path.h"
#include "util/logging.h"

namespace innet::mobility {

Trajectory MapMatch(const graph::PlanarGraph& graph,
                    const graph::WeightedAdjacency& adjacency,
                    const spatial::KdTree& junction_index,
                    const GpsTrace& trace) {
  Trajectory result;
  INNET_CHECK(trace.points.size() == trace.times.size());
  if (trace.points.empty()) return result;

  // Snap samples and drop consecutive duplicates.
  std::vector<graph::NodeId> anchors;
  std::vector<double> anchor_times;
  for (size_t i = 0; i < trace.points.size(); ++i) {
    graph::NodeId snapped = static_cast<graph::NodeId>(
        junction_index.NearestNeighbor(trace.points[i]));
    if (!anchors.empty() && anchors.back() == snapped) continue;
    anchors.push_back(snapped);
    anchor_times.push_back(trace.times[i]);
  }
  if (anchors.size() < 2) return result;

  result.nodes.push_back(anchors[0]);
  result.times.push_back(anchor_times[0]);
  for (size_t i = 0; i + 1 < anchors.size(); ++i) {
    std::optional<graph::Path> path =
        graph::ShortestPath(adjacency, anchors[i], anchors[i + 1]);
    if (!path.has_value()) return Trajectory{};  // Disconnected graph.
    // Interpolate arrival times along the path proportionally to length.
    double total = std::max(path->cost, 1e-9);
    double t0 = result.times.back();
    double span = std::max(anchor_times[i + 1] - t0, 1e-6);
    double walked = 0.0;
    for (size_t leg = 0; leg + 1 < path->nodes.size(); ++leg) {
      walked += graph.EdgeLength(path->edges[leg]);
      double t = t0 + span * (walked / total);
      // Guard against non-increasing times from degenerate geometry.
      t = std::max(t, result.times.back() + 1e-6);
      result.nodes.push_back(path->nodes[leg + 1]);
      result.times.push_back(t);
    }
  }
  return result;
}

GpsTrace SynthesizeGpsTrace(const graph::PlanarGraph& graph,
                            const Trajectory& trajectory,
                            double sample_interval, double noise_stddev,
                            util::Rng& rng) {
  GpsTrace trace;
  INNET_CHECK(sample_interval > 0.0);
  if (trajectory.nodes.size() < 2) return trace;
  double start = trajectory.times.front();
  double end = trajectory.times.back();
  size_t leg = 0;
  for (double t = start; t <= end; t += sample_interval) {
    while (leg + 1 < trajectory.times.size() - 1 &&
           trajectory.times[leg + 1] < t) {
      ++leg;
    }
    const geometry::Point& a = graph.Position(trajectory.nodes[leg]);
    const geometry::Point& b = graph.Position(trajectory.nodes[leg + 1]);
    double t0 = trajectory.times[leg];
    double t1 = trajectory.times[leg + 1];
    double frac = std::clamp((t - t0) / std::max(t1 - t0, 1e-9), 0.0, 1.0);
    geometry::Point p = a + (b - a) * frac;
    // std::normal_distribution requires stddev > 0: a noiseless trace
    // takes no draws.
    if (noise_stddev > 0.0) {
      p.x += rng.Normal(0.0, noise_stddev);
      p.y += rng.Normal(0.0, noise_stddev);
    }
    trace.points.push_back(p);
    trace.times.push_back(t);
  }
  return trace;
}

}  // namespace innet::mobility
