// Build identity and process uptime as metrics (docs/OBSERVABILITY.md).
//
// `innet_build_info` is the conventional Prometheus info-style gauge: a
// constant 1 whose labels carry version / git sha / compiler, so dashboards
// can join any other series against the build that produced it.
// `innet_uptime_seconds` is set by whoever drives the registry (the
// telemetry collector tick, or once before a file export) — it is NOT
// auto-updated on read, which keeps scrape-vs-export byte equality
// deterministic in tests.
#ifndef INNET_OBS_BUILD_INFO_H_
#define INNET_OBS_BUILD_INFO_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace innet::obs {

/// Semantic version of this library/binary.
const char* BuildVersion();

/// Short git sha the binary was configured from, or "unknown" outside a
/// git checkout.
const char* BuildGitSha();

/// Compiler id + version string (e.g. "gcc-13.2.0").
const char* BuildCompiler();

/// Vector ISA the build targets ("avx2" / "neon" / "scalar"), fixed at
/// compile time (util/simd.h).
const char* BuildSimd();

/// Registers
/// `innet_build_info{version=...,git_sha=...,compiler=...,simd=...} 1`
/// and `innet_uptime_seconds` in `registry`; idempotent. Returns the
/// uptime gauge so callers can refresh it.
Gauge& RegisterBuildInfo(MetricsRegistry& registry);

/// Monotonic seconds since this process first called UptimeSeconds()
/// (anchored at static-init time in practice — the first call wins).
double UptimeSeconds();

}  // namespace innet::obs

#endif  // INNET_OBS_BUILD_INFO_H_
