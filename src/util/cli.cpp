#include "util/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace libra::util {

bool looks_numeric(std::string_view token) {
  if (token.empty()) return false;
  const std::string copy(token);
  char* end = nullptr;
  std::strtod(copy.c_str(), &end);
  return end != copy.c_str() && *end == '\0';
}

CliArgs CliArgs::parse(int argc, const char* const* argv, int first) {
  CliArgs args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      if (i + 1 < argc &&
          (argv[i + 1][0] != '-' || looks_numeric(argv[i + 1]))) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "";
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

double CliArgs::number(const std::string& key, double fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  // strtod also accepts "nan", "inf" and overflowing literals (ERANGE);
  // none of those is a usable count, seed or port, and a caller's cast of
  // them to an integer type would be undefined behaviour.
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    throw std::invalid_argument("--" + key +
                                " expects a finite number, got '" + text +
                                "'");
  }
  return value;
}

std::int64_t CliArgs::integer(const std::string& key, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) const {
  if (!flag(key)) return fallback;
  const double value = number(key, 0.0);
  // Range-check in double first: only a value in [-2^63, 2^63) converts to
  // int64 with defined behaviour.
  if (value == std::trunc(value) && value >= -0x1p63 && value < 0x1p63) {
    const auto n = static_cast<std::int64_t>(value);
    if (n >= lo && n <= hi) return n;
  }
  throw std::invalid_argument("--" + key + " expects an integer in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "], got '" + str(key) + "'");
}

void CliArgs::require_known(
    std::initializer_list<std::string_view> known) const {
  std::string unknown;
  for (const auto& [key, value] : options) {
    bool found = false;
    for (const std::string_view k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + key;
    }
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("unrecognized option(s): " + unknown);
  }
}

std::string CliArgs::str(const std::string& key,
                         const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

}  // namespace libra::util
