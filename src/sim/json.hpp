// The one JSON writer every document the tools emit goes through, and the
// escaping and number formatting it is built on (DESIGN.md section 15,
// "JSON documents").  Callers only choose each container's JsonLayout.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/assert.hpp"
#include "version.hpp"

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

/// Formats one double with a printf format ("%.3f", "%.6g", ...): the one
/// number-format helper shared by the JSON writer and the text reports.
inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// How a container spaces its items: the text after the opening bracket,
/// between items, and before the closing bracket; what an empty container
/// holds; and what separates a member name from its value.
struct JsonLayout {
  std::string_view first, sep, last, empty, colon = ": ";
};

namespace json {

/// {"a":1,"b":[2,3]}: Chrome trace events.
inline constexpr JsonLayout kCompact{"", ",", "", "", ":"};
/// {"a": 1, "b": [2, 3]}
inline constexpr JsonLayout kInline{"", ", ", "", ""};
/// One item per line at 2*N spaces, the closing bracket on a line of its
/// own one level out; an empty container is "[\n]" at that indent.
inline constexpr JsonLayout kLines0{"\n", ",\n", "\n", "\n"};
inline constexpr JsonLayout kLines1{"\n  ", ",\n  ", "\n", "\n"};
inline constexpr JsonLayout kLines2{"\n    ", ",\n    ", "\n  ", "\n  "};
/// kLinesN, except that an empty container keeps a blank line: the Chrome
/// traceEvents array and the fidelity series.
inline constexpr JsonLayout kBlock0{"\n", ",\n", "\n", "\n\n"};
inline constexpr JsonLayout kBlock2{"\n    ", ",\n    ", "\n  ", "\n\n  "};
/// {"a": 1,\n "b": 2}: the status document, and the middle of a sweep cell.
inline constexpr JsonLayout kHanging{"", ",\n ", "", ""};
/// Whole documents as elements, each keeping its trailing newline: the
/// fidelity trajectory's reports.
inline constexpr JsonLayout kDocuments{"\n", "\n,\n", "\n\n", "\n"};

}  // namespace json

/// Streams one JSON document to an ostream.  Every item goes after a
/// member name inside an object, or straight into an array; the document
/// ends with a newline when its outermost container closes.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object(const JsonLayout& layout = json::kInline) {
    return open('{', layout);
  }
  JsonWriter& begin_array(const JsonLayout& layout = json::kInline) {
    return open('[', layout);
  }
  /// key(name) followed by begin_object / begin_array.
  JsonWriter& begin_object(std::string_view name,
                           const JsonLayout& layout = json::kInline) {
    return key(name).open('{', layout);
  }
  JsonWriter& begin_array(std::string_view name,
                          const JsonLayout& layout = json::kInline) {
    return key(name).open('[', layout);
  }
  /// An object headed by the "schema" and "tool_version" members.
  JsonWriter& begin_document(std::string_view schema,
                             const JsonLayout& layout) {
    begin_object(layout).member("schema", schema);
    return member("tool_version", kToolVersion);
  }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& end_array() { return close(']'); }
  /// Switches the innermost container to `layout` for the items after this.
  JsonWriter& relayout(const JsonLayout& layout) {
    stack_.back().layout = layout;
    return *this;
  }

  JsonWriter& key(std::string_view name) {
    TM_ASSERT(!stack_.empty() && stack_.back().close == '}');
    separate();
    out_ << '"' << json_escape(name) << '"' << stack_.back().layout.colon;
    return *this;
  }
  JsonWriter& value(std::string_view s) {
    return literal('"' + json_escape(s) + '"');
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return literal(b ? "true" : "false"); }
  JsonWriter& value(std::integral auto v) { return literal(std::to_string(v)); }
  /// A double in a printf `format`; NaN and +-inf are written as null.
  JsonWriter& value(double v, const char* format = "%.17g") {
    return std::isfinite(v) ? literal(fmt(format, v)) : null();
  }
  /// v / 1000 exactly, to three decimals: thousandths(1234567) is 1234.567.
  JsonWriter& thousandths(std::int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", v < 0 ? "-" : "",
                  std::llabs(v / 1000), std::llabs(v % 1000));
    return literal(buf);
  }
  JsonWriter& null() { return literal("null"); }
  template <typename... V>
  JsonWriter& member(std::string_view name, const V&... v) {
    return key(name).value(v...);
  }

 private:
  struct Frame {
    JsonLayout layout;
    char close;
    bool empty = true;
  };

  /// Writes what precedes a new item of the innermost container.
  void separate() {
    Frame& f = stack_.back();
    out_ << (f.empty ? f.layout.first : f.layout.sep);
    f.empty = false;
  }
  /// An array element is an item of its own; an object member's value
  /// follows its key, which was the item.
  void before_value() {
    if (!stack_.empty() && stack_.back().close == ']') separate();
  }
  JsonWriter& literal(std::string_view text) {
    before_value();
    out_ << text;
    return *this;
  }
  JsonWriter& open(char bracket, const JsonLayout& layout) {
    before_value();
    out_ << bracket;
    stack_.push_back({layout, bracket == '{' ? '}' : ']'});
    return *this;
  }
  JsonWriter& close(char bracket) {
    TM_ASSERT(!stack_.empty() && stack_.back().close == bracket);
    const Frame f = stack_.back();
    stack_.pop_back();
    out_ << (f.empty ? f.layout.empty : f.layout.last) << bracket;
    if (stack_.empty()) out_ << '\n';
    return *this;
  }

  std::ostream& out_;
  std::vector<Frame> stack_;
};

}  // namespace tracemod::sim
