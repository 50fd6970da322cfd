#include "core/query_processor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/degraded.h"
#include "forms/region_count.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "util/logging.h"
#include "util/timer.h"

namespace innet::core {

namespace {

// Cost-profile store classification: 0 = exact tracking forms, 1 =
// anything modeled ("learned", private, ...). Resolved once at
// construction; the warm path never calls Provenance().
uint8_t StoreKindOf(const forms::EdgeCountStore& store) {
  return std::strcmp(store.Provenance().kind, "exact") == 0 ? 0 : 1;
}

uint64_t Nanos(const util::Timer& timer) {
  return static_cast<uint64_t>(timer.ElapsedMicros() * 1000.0);
}

// Stored CSR timestamps under a boundary: both directions of every
// boundary edge. O(#edges) loads against the frozen form's row pointers.
uint64_t StoredTimestamps(const forms::FrozenTrackingForm& frozen,
                          const std::vector<forms::BoundaryEdge>& edges) {
  uint64_t timestamps = 0;
  for (const forms::BoundaryEdge& e : edges) {
    timestamps += frozen.EventCount(e.edge, true);
    timestamps += frozen.EventCount(e.edge, false);
  }
  return timestamps;
}

// Processor-level metrics live in the global registry; the reference is
// resolved once (thread-safe local static) and incremented lock-free.
obs::Counter& ProcessorQueries() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_processor_queries",
      "Queries answered by SampledQueryProcessor");
  return counter;
}

obs::Counter& ProcessorMissed() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_processor_missed",
      "SampledQueryProcessor queries with no satisfying sampled face");
  return counter;
}

obs::Counter& ProcessorDegraded() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_processor_degraded_answers",
      "SampledQueryProcessor queries answered in degraded mode");
  return counter;
}

obs::Counter& UnsampledQueries() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_unsampled_queries",
      "Queries answered by UnsampledQueryProcessor");
  return counter;
}

}  // namespace

void FillExplainResolution(const SampledGraph& sampled,
                           const RangeQuery& query, CountKind kind,
                           BoundMode bound,
                           const std::vector<uint32_t>& faces,
                           const forms::EdgeCountStore& store,
                           obs::ExplainRecord* explain) {
  explain->kind = CountKindName(kind);
  explain->bound = BoundModeName(bound);
  explain->path = "sampled";
  explain->faces = faces;
  std::sort(explain->faces.begin(), explain->faces.end());
  explain->region_cells = query.junctions.size();
  explain->resolved_cells = 0;
  for (uint32_t face : faces) {
    explain->resolved_cells += sampled.FaceSize(face);
  }
  // Lower bounds cover a subset of Q_R's cells, upper bounds a superset;
  // either way the symmetric difference is |resolved - region|.
  explain->deadspace_fraction =
      explain->region_cells == 0
          ? 0.0
          : std::abs(static_cast<double>(explain->resolved_cells) -
                     static_cast<double>(explain->region_cells)) /
                static_cast<double>(explain->region_cells);
  forms::StoreProvenance provenance = store.Provenance();
  explain->store = provenance.kind;
  explain->store_modeled_events = provenance.modeled_events;
  explain->store_raw_events = provenance.raw_events;
}

void FillExplainAnswer(const QueryAnswer& answer,
                       obs::ExplainRecord* explain) {
  explain->missed = answer.missed;
  explain->degraded = answer.degraded;
  explain->answer = answer.estimate;
  explain->interval_lo = answer.interval.lo;
  explain->interval_hi = answer.interval.hi;
  explain->interval_width = answer.interval.Width();
  explain->boundary_edges = answer.edges_accessed;
  explain->boundary_sensors = answer.nodes_accessed;
  explain->dead_boundary_edges = answer.dead_boundary_edges;
  explain->rerouted_faces = answer.rerouted_faces;
}

SampledQueryProcessor::SampledQueryProcessor(
    const SampledGraph& sampled, const forms::EdgeCountStore& store)
    : sampled_(&sampled),
      store_(&store),
      frozen_(dynamic_cast<const forms::FrozenTrackingForm*>(&store)),
      store_kind_(StoreKindOf(store)),
      total_cells_(sampled.network().mobility().NumNodes()) {}

SampledQueryProcessor::SampledQueryProcessor(
    const SampledGraph& sampled, const forms::FrozenStoreHandle& handle)
    : sampled_(&sampled),
      handle_(&handle),
      total_cells_(sampled.network().mobility().NumNodes()) {
  snapshot_ = handle.Acquire();
  INNET_CHECK(snapshot_.store != nullptr);
  frozen_ = snapshot_.store.get();
  store_ = frozen_;
  store_kind_ = StoreKindOf(*store_);
}

void SampledQueryProcessor::RefreshStore() const {
  if (handle_ == nullptr) return;
  if (handle_->Generation() == snapshot_.generation) return;
  snapshot_ = handle_->Acquire();
  frozen_ = snapshot_.store.get();
  store_ = frozen_;
}

QueryAnswer SampledQueryProcessor::Answer(const RangeQuery& query,
                                          CountKind kind, BoundMode bound,
                                          obs::QueryTrace* trace,
                                          obs::ExplainRecord* explain,
                                          QueryWorkspace* workspace) const {
  RefreshStore();
  util::Timer timer;
  QueryAnswer answer;
  ProcessorQueries().Increment();
  QueryWorkspace& ws = workspace != nullptr ? *workspace : LocalWorkspace();
  obs::QueryCostProfile& cost = ws.cost;
  cost = obs::QueryCostProfile{};
  cost.kind = kind == CountKind::kStatic ? 0 : 1;
  cost.bound = bound == BoundMode::kLower ? 0 : 1;
  cost.store_kind = store_kind_;
  cost.region_junctions = query.junctions.size();
  cost.region_decile =
      static_cast<uint8_t>(obs::RegionSizeDecile(query.junctions.size(),
                                                 total_cells_));
  cost.store_generation = snapshot_.generation;

  {
    obs::Span span(trace, "boundary_resolution");
    if (bound == BoundMode::kLower) {
      sampled_->LowerBoundFaces(query.junctions, ws);
    } else {
      sampled_->UpperBoundFaces(query.junctions, ws);
    }
    if (explain != nullptr) {
      FillExplainResolution(*sampled_, query, kind, bound, ws.faces, *store_,
                            explain);
    }
    if (ws.faces.empty()) {
      answer.missed = true;
      answer.exec_micros = timer.ElapsedMicros();
      cost.missed = true;
      cost.resolve_nanos = Nanos(timer);
      cost.total_nanos = cost.resolve_nanos;
      ProcessorMissed().Increment();
      if (trace != nullptr) trace->Annotate("missed", 1.0);
      if (explain != nullptr) FillExplainAnswer(answer, explain);
      return answer;
    }
    sampled_->BoundaryOfFaces(ws.faces, ws);
  }
  cost.resolve_nanos = Nanos(timer);

  {
    obs::Span span(trace, "form_integration");
    // Devirtualized fused kernels when the store is frozen; the virtual
    // per-edge path otherwise. Identical arithmetic either way.
    if (kind == CountKind::kStatic) {
      answer.estimate =
          frozen_ != nullptr
              ? forms::EvaluateStaticCount(*frozen_, ws.boundary_edges,
                                           query.t2)
              : forms::EvaluateStaticCount(*store_, ws.boundary_edges,
                                           query.t2);
    } else {
      answer.estimate =
          frozen_ != nullptr
              ? forms::EvaluateTransientCount(*frozen_, ws.boundary_edges,
                                              query.t1, query.t2)
              : forms::EvaluateTransientCount(*store_, ws.boundary_edges,
                                              query.t1, query.t2);
    }
  }
  answer.interval = forms::CountInterval::Point(answer.estimate);
  answer.nodes_accessed = ws.boundary_sensors.size();
  answer.edges_accessed = ws.boundary_edges.size();
  answer.exec_micros = timer.ElapsedMicros();
  cost.faces_resolved = static_cast<uint32_t>(ws.faces.size());
  cost.boundary_edges = ws.boundary_edges.size();
  cost.boundary_sensors = ws.boundary_sensors.size();
  if (frozen_ != nullptr) {
    cost.csr_timestamps = StoredTimestamps(*frozen_, ws.boundary_edges);
    // Two directed slots per boundary edge, probed once per evaluation
    // instant (static: t2; transient: t1 and t2).
    cost.bucket_probes = ws.boundary_edges.size() * 2 *
                         (kind == CountKind::kTransient ? 2 : 1);
  }
  cost.total_nanos = Nanos(timer);
  cost.integrate_nanos = cost.total_nanos - cost.resolve_nanos;
  if (trace != nullptr) trace->Annotate("estimate", answer.estimate);
  if (explain != nullptr) FillExplainAnswer(answer, explain);
  return answer;
}

QueryAnswer SampledQueryProcessor::AnswerDegraded(
    const RangeQuery& query, CountKind kind, BoundMode bound,
    const SensorHealthView& health, const DegradedOptions& options,
    obs::QueryTrace* trace, obs::ExplainRecord* explain) const {
  RefreshStore();
  util::Timer timer;
  ProcessorQueries().Increment();
  QueryWorkspace& ws = LocalWorkspace();
  obs::QueryCostProfile& cost = ws.cost;
  cost = obs::QueryCostProfile{};
  cost.kind = kind == CountKind::kStatic ? 0 : 1;
  cost.bound = bound == BoundMode::kLower ? 0 : 1;
  cost.store_kind = store_kind_;
  cost.region_junctions = query.junctions.size();
  cost.region_decile =
      static_cast<uint8_t>(obs::RegionSizeDecile(query.junctions.size(),
                                                 total_cells_));
  cost.store_generation = snapshot_.generation;
  DegradedBoundary resolved;
  {
    obs::Span span(trace, "degraded_reroute");
    if (bound == BoundMode::kLower) {
      sampled_->LowerBoundFaces(query.junctions, ws);
    } else {
      sampled_->UpperBoundFaces(query.junctions, ws);
    }
    if (explain != nullptr) {
      FillExplainResolution(*sampled_, query, kind, bound, ws.faces, *store_,
                            explain);
    }
    resolved = ResolveDegradedBoundary(*sampled_, ws.faces, health, options);
  }
  cost.resolve_nanos = Nanos(timer);
  QueryAnswer answer;
  {
    obs::Span span(trace, "degraded_answer");
    answer =
        AnswerFromDegradedBoundary(*store_, resolved, query, kind, options);
  }
  if (answer.missed) ProcessorMissed().Increment();
  if (answer.degraded) ProcessorDegraded().Increment();
  answer.exec_micros = timer.ElapsedMicros();
  cost.missed = answer.missed;
  cost.degraded = answer.degraded;
  cost.path = answer.degraded ? obs::QueryPathKind::kDegraded
                              : obs::QueryPathKind::kUncached;
  cost.faces_resolved = static_cast<uint32_t>(ws.faces.size());
  cost.boundary_edges = resolved.boundary.edges.size();
  cost.boundary_sensors = resolved.boundary.sensors.size();
  if (frozen_ != nullptr) {
    cost.csr_timestamps = StoredTimestamps(*frozen_, resolved.boundary.edges);
    cost.bucket_probes = resolved.boundary.edges.size() * 2 *
                         (kind == CountKind::kTransient ? 2 : 1);
  }
  cost.total_nanos = Nanos(timer);
  cost.integrate_nanos = cost.total_nanos - cost.resolve_nanos;
  if (explain != nullptr) {
    FillExplainAnswer(answer, explain);
    if (answer.degraded) explain->path = "degraded";
  }
  return answer;
}

std::vector<double> SampledQueryProcessor::AnswerSeries(
    const RangeQuery& query, BoundMode bound, size_t steps) const {
  RefreshStore();
  INNET_CHECK(query.t2 >= query.t1);
  if (steps == 0) return {};
  util::Timer timer;
  QueryWorkspace& ws = LocalWorkspace();
  obs::QueryCostProfile& cost = ws.cost;
  cost = obs::QueryCostProfile{};
  cost.bound = bound == BoundMode::kLower ? 0 : 1;
  cost.store_kind = store_kind_;
  cost.region_junctions = query.junctions.size();
  cost.region_decile =
      static_cast<uint8_t>(obs::RegionSizeDecile(query.junctions.size(),
                                                 total_cells_));
  cost.store_generation = snapshot_.generation;
  if (bound == BoundMode::kLower) {
    sampled_->LowerBoundFaces(query.junctions, ws);
  } else {
    sampled_->UpperBoundFaces(query.junctions, ws);
  }
  if (ws.faces.empty()) {
    cost.missed = true;
    cost.resolve_nanos = Nanos(timer);
    cost.total_nanos = cost.resolve_nanos;
    return {};
  }
  sampled_->BoundaryOfFaces(ws.faces, ws);
  cost.resolve_nanos = Nanos(timer);

  // Evaluation instants (ascending): steps == 1 degenerates to the
  // interval start; otherwise endpoints inclusive.
  ws.series.resize(steps);
  if (steps == 1) {
    ws.series[0] = query.t1;
  } else {
    double span = query.t2 - query.t1;
    for (size_t i = 0; i < steps; ++i) {
      ws.series[i] = query.t1 + span * static_cast<double>(i) /
                                    static_cast<double>(steps - 1);
    }
  }

  std::vector<double> series(steps, 0.0);
  if (frozen_ != nullptr) {
    // One merge pass per boundary edge over the whole instant batch.
    forms::EvaluateStaticCountBatch(*frozen_, ws.boundary_edges,
                                    ws.series.data(), steps, series.data());
  } else {
    for (size_t i = 0; i < steps; ++i) {
      series[i] =
          forms::EvaluateStaticCount(*store_, ws.boundary_edges, ws.series[i]);
    }
  }
  cost.faces_resolved = static_cast<uint32_t>(ws.faces.size());
  cost.boundary_edges = ws.boundary_edges.size();
  cost.boundary_sensors = ws.boundary_sensors.size();
  if (frozen_ != nullptr) {
    cost.csr_timestamps = StoredTimestamps(*frozen_, ws.boundary_edges);
    // The batch kernel probes each boundary slot once per instant.
    cost.bucket_probes = ws.boundary_edges.size() * 2 * steps;
  }
  cost.total_nanos = Nanos(timer);
  cost.integrate_nanos = cost.total_nanos - cost.resolve_nanos;
  return series;
}

QueryAnswer UnsampledQueryProcessor::Answer(const RangeQuery& query,
                                            CountKind kind,
                                            obs::ExplainRecord* explain,
                                            QueryWorkspace* workspace) const {
  util::Timer timer;
  QueryAnswer answer;
  UnsampledQueries().Increment();
  const graph::PlanarGraph& mobility = network_->mobility();
  QueryWorkspace& ws = workspace != nullptr ? *workspace : LocalWorkspace();
  ws.EnsureDomains(0, mobility.NumNodes(), network_->sensing().NumNodes(), 0);
  uint32_t gen = ws.NextGeneration();
  obs::QueryCostProfile& cost = ws.cost;
  cost = obs::QueryCostProfile{};
  cost.kind = kind == CountKind::kStatic ? 0 : 1;
  cost.bound = 2;  // exact
  cost.store_kind = StoreKindOf(network_->reference_store());
  cost.region_junctions = query.junctions.size();
  cost.region_decile = static_cast<uint8_t>(
      obs::RegionSizeDecile(query.junctions.size(), mobility.NumNodes()));

  // Region-local boundary extraction: walk the in-region junctions'
  // adjacency only (the work an in-network dispatch actually performs).
  // Every boundary edge is found exactly once, from its inside endpoint.
  // The membership mask is a generation-stamped scratch array, not a fresh
  // per-query vector<bool>.
  std::vector<uint32_t>& junction_stamp = ws.junction_stamp();
  for (graph::NodeId u : query.junctions) junction_stamp[u] = gen;
  ws.boundary_edges.clear();
  for (graph::NodeId u : query.junctions) {
    for (const graph::Neighbor& nb : mobility.NeighborsOf(u)) {
      if (junction_stamp[nb.node] == gen) continue;
      ws.boundary_edges.push_back(
          {nb.edge, /*inward_is_forward=*/mobility.Edge(nb.edge).v == u});
    }
    if (network_->gateway_mask()[u]) {
      ws.boundary_edges.push_back(
          {network_->VirtualEdgeOf(u), /*inward_is_forward=*/true});
    }
  }
  cost.resolve_nanos = Nanos(timer);
  answer.estimate =
      kind == CountKind::kStatic
          ? forms::EvaluateStaticCount(network_->reference_store(),
                                       ws.boundary_edges, query.t2)
          : forms::EvaluateTransientCount(network_->reference_store(),
                                          ws.boundary_edges, query.t1,
                                          query.t2);
  answer.interval = forms::CountInterval::Point(answer.estimate);
  answer.edges_accessed = ws.boundary_edges.size();
  cost.integrate_nanos = Nanos(timer) - cost.resolve_nanos;

  // Flooding cost: every sensor whose face touches a junction of the region
  // participates in the in-network aggregation. Stamped dedup — the same
  // generation works because sensor marks live in their own array.
  std::vector<uint32_t>& sensor_stamp = ws.sensor_stamp();
  size_t sensors = 0;
  for (graph::NodeId n : query.junctions) {
    // Inline FacesAroundNode: the face left of each half-edge leaving n
    // (that call materializes a vector per junction; this walk does not).
    for (const graph::Neighbor& nb : mobility.NeighborsOf(n)) {
      uint32_t h = mobility.Edge(nb.edge).u == n
                       ? (nb.edge << 1)
                       : ((nb.edge << 1) | 1);
      graph::FaceId f = mobility.FaceOfHalfEdge(h);
      if (sensor_stamp[f] != gen) {
        sensor_stamp[f] = gen;
        ++sensors;
      }
    }
  }
  answer.nodes_accessed = sensors;
  answer.exec_micros = timer.ElapsedMicros();
  cost.boundary_edges = ws.boundary_edges.size();
  cost.boundary_sensors = sensors;
  cost.total_nanos = Nanos(timer);
  if (explain != nullptr) {
    explain->kind = CountKindName(kind);
    explain->bound = "exact";
    explain->path = "unsampled";
    explain->region_cells = query.junctions.size();
    explain->resolved_cells = query.junctions.size();
    explain->deadspace_fraction = 0.0;
    forms::StoreProvenance provenance =
        network_->reference_store().Provenance();
    explain->store = provenance.kind;
    explain->store_modeled_events = provenance.modeled_events;
    explain->store_raw_events = provenance.raw_events;
    FillExplainAnswer(answer, explain);
  }
  return answer;
}

}  // namespace innet::core
