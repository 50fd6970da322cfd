#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <utility>

#include "obs/export.h"
#include "util/logging.h"

namespace innet::bench {

core::FrameworkOptions DefaultWorld(uint64_t seed) {
  core::FrameworkOptions options;
  options.road.num_junctions = 2500;
  options.road.world_size = 30000.0;
  options.traffic.num_trajectories = 8000;
  options.traffic.horizon = 6.0 * 3600.0;
  options.seed = seed;
  return options;
}

std::vector<double> GraphSizeSweep() {
  return {0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512};
}

std::vector<double> QuerySizeSweep() {
  return {0.01, 0.02, 0.04, 0.08, 0.16};
}

std::vector<core::RangeQuery> MakeQueries(const core::Framework& framework,
                                          double area_fraction, size_t count,
                                          uint64_t seed) {
  core::WorkloadOptions options;
  options.area_fraction = area_fraction;
  options.horizon = framework.Horizon();
  options.min_duration_fraction = 0.1;
  options.max_duration_fraction = 0.4;
  util::Rng rng(seed);
  return core::GenerateWorkload(framework.network(), options, count, rng);
}

namespace {

struct RawAccumulators {
  util::Accumulator err;
  util::Accumulator nodes;
  util::Accumulator edges;
  util::Accumulator micros;
  util::Accumulator sim_micros;
  util::Accumulator ratio;
  size_t missed = 0;
  size_t total = 0;

  void Add(double truth, const core::QueryAnswer& answer) {
    ++total;
    if (answer.missed) ++missed;
    err.Add(util::RelativeError(truth, answer.estimate));
    nodes.Add(static_cast<double>(answer.nodes_accessed));
    edges.Add(static_cast<double>(answer.edges_accessed));
    micros.Add(answer.exec_micros);
    sim_micros.Add(answer.SimulatedMicros());
    if (truth > 0.0) ratio.Add(answer.estimate / truth);
  }

  EvalResult Finish() const {
    EvalResult result;
    if (!err.empty()) {
      util::Summary s = err.Summarize();
      result.err_median = s.median;
      result.err_p25 = s.p25;
      result.err_p75 = s.p75;
    }
    result.missed_fraction =
        total == 0 ? 0.0
                   : static_cast<double>(missed) / static_cast<double>(total);
    if (!nodes.empty()) result.mean_nodes_accessed = nodes.Summarize().mean;
    if (!edges.empty()) result.mean_edges_accessed = edges.Summarize().mean;
    if (!micros.empty()) result.mean_exec_micros = micros.Summarize().mean;
    if (!sim_micros.empty()) {
      result.mean_sim_micros = sim_micros.Summarize().mean;
    }
    if (!ratio.empty()) result.ratio_mean = ratio.Summarize().mean;
    return result;
  }
};

double Truth(const core::SensorNetwork& network, const core::RangeQuery& q,
             core::CountKind kind) {
  return kind == core::CountKind::kStatic
             ? network.GroundTruthStatic(q.junctions, q.t2)
             : network.GroundTruthTransient(q.junctions, q.t1, q.t2);
}

}  // namespace

EvalResult EvaluateDeployment(const core::SensorNetwork& network,
                              const core::Deployment& deployment,
                              const std::vector<core::RangeQuery>& queries,
                              core::CountKind kind, core::BoundMode bound) {
  core::SampledQueryProcessor processor = deployment.processor();
  RawAccumulators acc;
  for (const core::RangeQuery& q : queries) {
    acc.Add(Truth(network, q, kind), processor.Answer(q, kind, bound));
  }
  return acc.Finish();
}

EvalResult EvaluateUnsampled(const core::SensorNetwork& network,
                             const std::vector<core::RangeQuery>& queries,
                             core::CountKind kind) {
  core::UnsampledQueryProcessor processor(network);
  RawAccumulators acc;
  for (const core::RangeQuery& q : queries) {
    acc.Add(Truth(network, q, kind), processor.Answer(q, kind));
  }
  return acc.Finish();
}

EvalResult EvaluateBaseline(const core::SensorNetwork& network,
                            const baseline::FaceSamplingBaseline& baseline,
                            const std::vector<core::RangeQuery>& queries,
                            core::CountKind kind) {
  RawAccumulators acc;
  for (const core::RangeQuery& q : queries) {
    acc.Add(Truth(network, q, kind), baseline.Answer(q, kind));
  }
  return acc.Finish();
}

std::vector<Method> AllMethods(
    std::shared_ptr<const std::vector<core::RangeQuery>> history) {
  std::vector<Method> methods;
  auto add_sampler = [&methods](std::shared_ptr<sampling::SensorSampler> s) {
    Method m;
    m.name = std::string(s->Name());
    m.deploy = [s](const core::Framework& fw, size_t budget,
                   const core::DeploymentOptions& options, uint64_t rep) {
      util::Rng rng(0x5eed0000 + rep);
      return fw.DeployWithSampler(*s, budget, options, rng);
    };
    methods.push_back(std::move(m));
  };
  add_sampler(std::make_shared<sampling::UniformSampler>());
  add_sampler(std::make_shared<sampling::SystematicSampler>());
  add_sampler(std::make_shared<sampling::StratifiedSampler>());
  add_sampler(std::make_shared<sampling::KdTreeSampler>());
  add_sampler(std::make_shared<sampling::QuadTreeSampler>());

  Method submodular;
  submodular.name = "submodular";
  submodular.deploy = [history](const core::Framework& fw, size_t budget,
                                const core::DeploymentOptions& options,
                                uint64_t rep) {
    (void)rep;  // Deterministic given the history.
    INNET_CHECK(history != nullptr);
    return fw.DeployAdaptive(*history, budget, options);
  };
  methods.push_back(std::move(submodular));
  return methods;
}

EvalResult EvaluateMethod(const core::Framework& framework,
                          const Method& method, size_t m,
                          const core::DeploymentOptions& options,
                          const std::vector<core::RangeQuery>& queries,
                          core::CountKind kind, core::BoundMode bound,
                          size_t reps) {
  RawAccumulators acc;
  const core::SensorNetwork& network = framework.network();
  for (size_t rep = 0; rep < reps; ++rep) {
    core::Deployment deployment = method.deploy(framework, m, options, rep);
    core::SampledQueryProcessor processor = deployment.processor();
    for (const core::RangeQuery& q : queries) {
      acc.Add(Truth(network, q, kind), processor.Answer(q, kind, bound));
    }
  }
  return acc.Finish();
}

std::string Percent(double fraction, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

JsonReport::JsonReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

void JsonReport::Upsert(
    std::vector<std::pair<std::string, std::string>>* entries,
    const std::string& key, std::string value) {
  for (auto& [existing, stored] : *entries) {
    if (existing == key) {
      stored = std::move(value);
      return;
    }
  }
  entries->emplace_back(key, std::move(value));
}

void JsonReport::Note(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += obs::JsonEscape(value);
  quoted += '"';
  Upsert(&notes_, key, std::move(quoted));
}

void JsonReport::Metric(const std::string& key, double value) {
  std::string rendered;
  if (std::isfinite(value)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    rendered = buf;
  } else {
    rendered = "null";
  }
  Upsert(&metrics_, key, std::move(rendered));
}

void JsonReport::MetricResult(const std::string& prefix,
                              const EvalResult& result) {
  Metric(prefix + "_err_median", result.err_median);
  Metric(prefix + "_err_p25", result.err_p25);
  Metric(prefix + "_err_p75", result.err_p75);
  Metric(prefix + "_missed_fraction", result.missed_fraction);
  Metric(prefix + "_mean_nodes_accessed", result.mean_nodes_accessed);
  Metric(prefix + "_mean_edges_accessed", result.mean_edges_accessed);
  Metric(prefix + "_mean_exec_micros", result.mean_exec_micros);
  Metric(prefix + "_mean_sim_micros", result.mean_sim_micros);
  Metric(prefix + "_ratio_mean", result.ratio_mean);
}

std::string JsonReport::ToJson() const {
  std::string out = "{\"bench\":\"";
  out += obs::JsonEscape(name_);
  out += '"';
  auto append_section =
      [&out](const char* section,
             const std::vector<std::pair<std::string, std::string>>& entries) {
        out += ",\"";
        out += section;
        out += "\":{";
        bool first = true;
        for (const auto& [key, value] : entries) {
          if (!first) out += ",";
          first = false;
          out += '"';
          out += obs::JsonEscape(key);
          out += "\":";
          out += value;
        }
        out += "}";
      };
  append_section("notes", notes_);
  append_section("metrics", metrics_);
  out += "}\n";
  return out;
}

bool JsonReport::WriteTo(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    INNET_LOG(ERROR) << "cannot write " << path;
    return false;
  }
  out << ToJson();
  return static_cast<bool>(out);
}

bool JsonReport::WriteFlagged(const util::FlagParser& flags) const {
  std::string json_path = flags.GetString("json");
  if (flags.Has("json") && json_path.empty()) {
    json_path = "BENCH_" + name_ + ".json";
  }
  return WriteTo(json_path);
}

}  // namespace innet::bench
