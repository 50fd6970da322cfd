#include "obs/explain.h"

#include <cmath>
#include <cstdio>

#include "obs/export.h"

namespace innet::obs {

namespace {

void AppendNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

// Appends `value` as a JSON string literal, piece by piece (no temporaries).
void AppendString(std::string* out, const std::string& value) {
  out->push_back('"');
  out->append(JsonEscape(value));
  out->push_back('"');
}

void AppendKey(std::string* out, const char* key) {
  out->append(",\"");
  out->append(key);
  out->append("\":");
}

}  // namespace

std::string ExplainRecord::ToJson() const {
  std::string out = "{\"kind\":";
  AppendString(&out, kind);
  AppendKey(&out, "bound");
  AppendString(&out, bound);
  AppendKey(&out, "path");
  AppendString(&out, path);

  AppendKey(&out, "faces");
  out += "[";
  for (size_t i = 0; i < faces.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(faces[i]);
  }
  out += "]";

  AppendKey(&out, "region_cells");
  out += std::to_string(region_cells);
  AppendKey(&out, "resolved_cells");
  out += std::to_string(resolved_cells);
  AppendKey(&out, "deadspace_fraction");
  AppendNumber(&out, deadspace_fraction);

  AppendKey(&out, "boundary_edges");
  out += std::to_string(boundary_edges);
  AppendKey(&out, "boundary_sensors");
  out += std::to_string(boundary_sensors);

  AppendKey(&out, "store");
  AppendString(&out, store);
  AppendKey(&out, "store_modeled_events");
  out += std::to_string(store_modeled_events);
  AppendKey(&out, "store_raw_events");
  out += std::to_string(store_raw_events);

  AppendKey(&out, "cache_used");
  out += cache_used ? "true" : "false";
  AppendKey(&out, "cache_hit");
  out += cache_hit ? "true" : "false";

  AppendKey(&out, "missed");
  out += missed ? "true" : "false";
  AppendKey(&out, "degraded");
  out += degraded ? "true" : "false";
  AppendKey(&out, "answer");
  AppendNumber(&out, answer);
  AppendKey(&out, "interval");
  out += "[";
  AppendNumber(&out, interval_lo);
  out += ",";
  AppendNumber(&out, interval_hi);
  out += "]";
  AppendKey(&out, "interval_width");
  AppendNumber(&out, interval_width);
  AppendKey(&out, "dead_boundary_edges");
  out += std::to_string(dead_boundary_edges);
  AppendKey(&out, "rerouted_faces");
  out += std::to_string(rerouted_faces);
  out += "}";
  return out;
}

}  // namespace innet::obs
