// The one command-line parser every driver uses: tracemod, sweep, the
// figure and ablation benches, campus_scale, corpus_distill and
// perf_gate.  Each driver declares a table of flags; parse() checks argv
// against it and typed getters check each value.
//
// Syntax, the same in every driver:
//   --name            a switch;
//   --name VALUE      a value flag, also spelled --name=VALUE;
//   --audit[=FILE]    the optional-value form: a value only after '='.
// A token that does not start with "--" is a positional argument.
//
// Strictness: an undeclared flag, a missing value, a value on a switch,
// a wrong positional count, a number that is not one finite number for
// the whole token, and an integer that is fractional or out of range
// each print one diagnostic to stderr and mark the parse failed.  The
// caller then exits kExitUsage before doing any work.
#pragma once

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tracemod::cli {

/// Exit codes shared by every binary in the repo; README.md carries the
/// table and tests/tools/tracemod_cli_test.cpp pins it.  Never renumber.
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 1;
inline constexpr int kExitIo = 2;
inline constexpr int kExitSalvage = 3;
inline constexpr int kExitAudit = 4;
inline constexpr int kExitDegraded = 5;
/// Bench-only (bench/build_guard.hpp defines the authoritative constant);
/// mirrored here so the whole 0-6 contract is pinned in one place.
inline constexpr int kExitNonReleaseBuild = 6;

/// One declared flag.
struct Flag {
  enum Arity : std::uint8_t { kSwitch, kValue, kOptional };
  const char* name;
  Arity arity = kSwitch;
  const char* metavar = "";  ///< usage placeholder: "N", "FILE", ...
};

/// The largest thread count any driver accepts.  A typo such as
/// `--threads -1` or `--threads 1e12` is a usage error, never a request
/// for billions of threads.
inline constexpr unsigned kMaxThreads = 256;

/// Every benchmark binary declares it; bench/build_guard.hpp acts on it.
inline constexpr Flag kAllowDebug{"--allow-debug"};

/// Parses all of `text` as a finite number.
bool parse_number(std::string_view text, double* out);

/// Parses all of `text` as a base-10 integer in [lo, hi].
template <typename T>
bool parse_integer(std::string_view text, T lo, T hi, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

/// Splits "a,b,c" at `sep`; an empty string yields one empty field.
std::vector<std::string> split(const std::string& s, char sep);

/// A checked command line: positionals in order, flags as given.
class Args {
 public:
  explicit Args(std::string prog) : prog_(std::move(prog)) {}

  bool ok() const { return !failed_; }
  const std::vector<std::string>& pos() const { return pos_; }
  bool has(std::string_view name) const { return value(name) != nullptr; }

  /// The last value given for `name` ("" for a switch or a bare
  /// optional-value flag); null when the flag is absent.
  const std::string* value(std::string_view name) const;
  bool str(std::string_view name, std::string* out) const;
  /// Every value given for a repeatable flag, in order.
  std::vector<std::string> values(std::string_view name) const;

  /// Typed getters: false when the flag is absent; a malformed value
  /// also fails the parse (with a diagnostic) and leaves *out untouched.
  bool number(std::string_view name, double* out);
  template <typename T>
  bool integer(std::string_view name, T* out,
               T lo = std::numeric_limits<T>::min(),
               T hi = std::numeric_limits<T>::max()) {
    const std::string* v = value(name);
    if (v == nullptr) return false;
    if (parse_integer(*v, lo, hi, out)) return true;
    fail("flag '" + std::string(name) + "' needs an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "], got '" + *v +
         "'");
    return false;
  }
  bool threads(std::string_view name, unsigned* out) {
    return integer(name, out, 0u, kMaxThreads);
  }

  /// Prints "<prog>: <message>" to stderr and fails the parse.
  void fail(const std::string& message);

 private:
  friend Args parse(std::string, const std::vector<std::string>&,
                    std::initializer_list<Flag>, std::size_t, std::size_t);
  std::string prog_;
  std::vector<std::string> pos_;
  std::vector<std::pair<std::string, std::string>> flags_;
  bool failed_ = false;
};

/// Checks `args` (argv without argv[0]) against `spec`; the positional
/// count must lie in [min_pos, max_pos].  Diagnostics name `prog`.
Args parse(std::string prog, const std::vector<std::string>& args,
           std::initializer_list<Flag> spec, std::size_t min_pos = 0,
           std::size_t max_pos = 0);

/// "usage: prog [--a N] [--b] [--audit[=FILE]]", wrapped, from `spec`.
std::string usage_line(const std::string& prog,
                       std::initializer_list<Flag> spec);

/// A benchmark main's parse: no positionals, and on failure the
/// generated usage line follows the diagnostic.
Args parse_main(int argc, char** argv, std::initializer_list<Flag> spec);

}  // namespace tracemod::cli
