// The two JSON primitives every hand-written emitter in the repo shares:
// string escaping and round-trippable double formatting.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace tracemod::sim {

/// Escapes a string for embedding in a JSON string literal: quote and
/// backslash are escaped, \n \r \t use their short forms, and every other
/// control character becomes \u00XX.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Formats a double with %.17g, which reads back to the same value.
inline std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace tracemod::sim
