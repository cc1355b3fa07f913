// Strict command-line arguments for the examples: a bad, out-of-range or
// extra argument exits 2 with a message that names it, before anything runs.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

namespace gdisim::examples {

/// Exits 2 if the example got any argument.
inline void no_arguments(int argc, char** argv, const char* program) {
  if (argc > 1) {
    std::cerr << program << ": takes no arguments, got '" << argv[1] << "'\n";
    std::exit(2);
  }
}

/// The example's one optional argument: a whole-string finite number in
/// (0, max], or `fallback` when it is absent.
inline double optional_number(int argc, char** argv, const char* program, const char* name,
                              double fallback, double max) {
  if (argc > 2) {
    std::cerr << program << ": unexpected argument '" << argv[2] << "'\n"
              << "usage: " << program << " [" << name << "]\n";
    std::exit(2);
  }
  if (argc < 2) return fallback;
  const std::string text = argv[1];
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v <= 0.0 || v > max) {
    std::cerr << program << ": " << name << ": bad value '" << text << "' (want a number in (0, "
              << max << "])\n";
    std::exit(2);
  }
  return v;
}

}  // namespace gdisim::examples
