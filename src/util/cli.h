// Minimal command-line parsing shared by tools/libra_cli.cpp and the
// examples: `--key value` options, `--flag` switches, positionals.
//
// A token after `--key` is consumed as the value when it does not start
// with '-' OR when it parses as a number -- so `--fat -1` and
// `--offset -2.5e3` bind the negative value instead of spawning a bogus
// flag plus a stray positional (the historical bug this fixes).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace libra::util {

// True when the whole token parses as a (possibly signed) number.
bool looks_numeric(std::string_view token);

struct CliArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --key [value]

  // Parse argv[first..argc). The CLI passes first = 2 (argv[1] is the
  // subcommand); standalone tools pass the default 1.
  static CliArgs parse(int argc, const char* const* argv, int first = 1);

  // Option value as a number, or `fallback` when absent. Throws
  // std::invalid_argument when present but not a finite number in double
  // range: garbage, "nan", "inf" or an overflowing literal like "1e999" (a
  // flag given a bad value should fail loudly, not silently become the
  // fallback or reach an integer cast).
  double number(const std::string& key, double fallback) const;
  // Option value as an integer in [lo, hi], or `fallback` when absent.
  // Throws std::invalid_argument when present but not a number() with an
  // integral value in that range: "2.5", "-1" where lo = 0, or "1e300" for
  // a port (casting such a value to an integer type is undefined
  // behaviour). "1e3" is 1000.
  std::int64_t integer(const std::string& key, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) const;
  // Option value as a string, or `fallback` when absent.
  std::string str(const std::string& key,
                  const std::string& fallback = "") const;
  bool flag(const std::string& key) const { return options.count(key) > 0; }

  // Reject typos: throws std::invalid_argument naming every parsed option
  // not in `known` (keys without the leading "--"). A misspelled
  // `--sokcet` must fail the command, not silently fall back to a default.
  void require_known(std::initializer_list<std::string_view> known) const;
};

}  // namespace libra::util
