// A strict RFC 8259 JSON validator for tests: one value, then only
// whitespace.  Numbers must match the JSON grammar (so nan, inf, a leading
// '+' or a bare '.5' fail), strings may hold no raw control character and
// only the eight short escapes or \uXXXX, and a trailing comma fails.
// Returns an empty string for a valid document, else the byte offset and
// what was expected there.
#pragma once

#include <cctype>
#include <string>
#include <string_view>

namespace tracemod::testing_json {

class StrictJson {
 public:
  explicit StrictJson(std::string_view s) : s_(s) {}

  std::string check() {
    skip_ws();
    if (!value()) return error_;
    skip_ws();
    if (at_ != s_.size()) fail("end of document");
    return error_;
  }

 private:
  bool fail(const char* expected) {
    if (error_.empty()) {
      error_ = "offset " + std::to_string(at_) + ": expected " + expected;
    }
    return false;
  }
  bool eof() const { return at_ >= s_.size(); }
  char peek() const { return eof() ? '\0' : s_[at_]; }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++at_;
    }
  }
  bool literal(std::string_view word) {
    if (s_.substr(at_, word.size()) != word) return fail("a literal");
    at_ += word.size();
    return true;
  }
  bool digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("a digit");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++at_;
    return true;
  }
  bool number() {
    if (peek() == '-') ++at_;
    if (peek() == '0') {
      ++at_;
    } else if (!digits()) {
      return false;
    }
    if (peek() == '.') {
      ++at_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++at_;
      if (peek() == '+' || peek() == '-') ++at_;
      if (!digits()) return false;
    }
    return true;
  }
  bool string() {
    ++at_;  // opening quote
    while (!eof()) {
      const char c = s_[at_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --at_;
        return fail("no raw control character in a string");
      }
      if (c != '\\') continue;
      const char e = peek();
      ++at_;
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++at_) {
          if (!std::isxdigit(static_cast<unsigned char>(peek()))) {
            return fail("four hex digits after \\u");
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        --at_;
        return fail("a valid escape");
      }
    }
    return fail("a closing quote");
  }
  bool container(char close, bool object) {
    ++at_;  // opening bracket
    skip_ws();
    if (peek() == close) {
      ++at_;
      return true;
    }
    for (;;) {
      if (object) {
        if (peek() != '"') return fail("a member name");
        if (!string()) return false;
        skip_ws();
        if (peek() != ':') return fail("':'");
        ++at_;
        skip_ws();
      }
      if (!value()) return false;
      skip_ws();
      if (peek() == close) {
        ++at_;
        return true;
      }
      if (peek() != ',') return fail("',' or a closing bracket");
      ++at_;
      skip_ws();
    }
  }
  bool value() {
    switch (peek()) {
      case '{': return container('}', true);
      case '[': return container(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default:
        if (peek() == '-' || std::isdigit(static_cast<unsigned char>(peek()))) {
          return number();
        }
        return fail("a value");
    }
  }

  std::string_view s_;
  std::size_t at_ = 0;
  std::string error_;
};

/// Empty when `doc` is one strictly valid JSON value, else where and why
/// it is not.
inline std::string strict_json_error(std::string_view doc) {
  return StrictJson(doc).check();
}

}  // namespace tracemod::testing_json
