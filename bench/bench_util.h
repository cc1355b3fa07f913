// Shared helpers for the Ch. 4 scalability and warm-start bench binaries.
#pragma once

#include <chrono>
#include <iostream>
#include <string>

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

}  // namespace gdisim::bench
