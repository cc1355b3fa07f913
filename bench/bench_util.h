// Shared helpers for the per-table/per-figure bench binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_memprobe.h"
#include "metrics/report.h"
#include "sim/gdisim.h"

namespace gdisim::bench {

/// Wall-clock stopwatch for reporting bench runtimes.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "==============================================================\n";
}

inline void footnote(const std::string& note) {
  std::cout << "\nNOTE: " << note << "\n\n";
}

/// Environment knob: GDISIM_BENCH_FAST=1 shrinks simulated horizons so the
/// whole bench suite finishes quickly in CI; default runs the full windows.
inline bool fast_mode() {
  const char* v = std::getenv("GDISIM_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

/// Machine-readable bench results: an ordered flat map of string/number
/// fields written to BENCH_<name>.json (in $GDISIM_BENCH_JSON_DIR, or the
/// working directory) — the raw material for the perf trajectory. Typical
/// fields: scenario, wall_seconds, sim_ticks, ticks_per_second,
/// active_set_occupancy.
class JsonResult {
 public:
  explicit JsonResult(std::string bench_name)
      : name_(std::move(bench_name)), alloc_base_(alloc_count()) {
    set("bench", name_);
    set("fast_mode", fast_mode() ? 1.0 : 0.0);
  }

  void set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, quote(value));
  }
  void set(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, std::string(buf));
  }

  /// Convenience: wall time + derived rate + scheduler occupancy in one go.
  void set_run(const std::string& scenario, double wall_seconds, double sim_ticks,
               const SchedulerStats& sched) {
    set("scenario", scenario);
    set("wall_seconds", wall_seconds);
    set("sim_ticks", sim_ticks);
    set("ticks_per_second", wall_seconds > 0.0 ? sim_ticks / wall_seconds : 0.0);
    set("mean_active_agents", sched.mean_active());
    set("active_set_occupancy", sched.occupancy());
    set("agents", static_cast<double>(sched.agents));
  }

  /// Writes BENCH_<name>.json; returns false (with a note on stderr) if the
  /// file cannot be opened. Every bench JSON automatically carries the
  /// process peak RSS and the heap-allocation count since this JsonResult
  /// was constructed, so memory regressions show up in the perf trajectory
  /// without per-bench plumbing.
  bool write() {
    set("peak_rss_mb", peak_rss_mb());
    set("alloc_delta", static_cast<double>(alloc_count() - alloc_base_));
    return write_file();
  }

 private:
  bool write_file() const {
    const char* dir = std::getenv("GDISIM_BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : std::string()) +
        "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench: cannot write " << path << "\n";
      return false;
    }
    out << "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << "  " << quote(fields_[i].first) << ": " << fields_[i].second
          << (i + 1 < fields_.size() ? "," : "") << "\n";
    }
    out << "}\n";
    std::cout << "wrote " << path << "\n";
    return true;
  }

  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return q;
  }

  std::string name_;
  std::uint64_t alloc_base_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace gdisim::bench
