// sim::JsonWriter on its own: the non-finite rule, number formats,
// escaping, and each layout's bytes, including empty containers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "formats/json_strict.hpp"
#include "sim/json.hpp"

namespace tracemod::sim {
namespace {

template <typename Fn>
std::string written(Fn&& fn) {
  std::ostringstream out;
  JsonWriter w(out);
  fn(w);
  return out.str();
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::string doc = written([&](JsonWriter& w) {
    w.begin_object()
        .member("nan", std::nan(""))
        .member("neg_nan", -std::nan(""), "%g")
        .member("inf", kInf, "%.6f")
        .member("neg_inf", -kInf)
        .member("finite", 0.1)
        .end_object();
  });
  EXPECT_EQ(doc,
            "{\"nan\": null, \"neg_nan\": null, \"inf\": null, "
            "\"neg_inf\": null, \"finite\": 0.10000000000000001}\n");
  EXPECT_EQ(testing_json::strict_json_error(doc), "");
}

TEST(JsonWriter, ScalarsUseTheirJsonForms) {
  const std::string doc = written([](JsonWriter& w) {
    w.begin_array(json::kCompact)
        .value(true)
        .value(false)
        .null()
        .value(std::uint64_t{18446744073709551615ull})
        .value(-42)
        .value(1.5, "%.3f")
        .value(2.0 / 3.0, "%.6g")
        .thousandths(1'234'567)
        .thousandths(-5)
        .value("q\"\\\n\x01")
        .end_array();
  });
  EXPECT_EQ(doc,
            "[true,false,null,18446744073709551615,-42,1.500,0.666667,"
            "1234.567,-0.005,\"q\\\"\\\\\\n\\u0001\"]\n");
  EXPECT_EQ(testing_json::strict_json_error(doc), "");
}

TEST(JsonWriter, LayoutsPlaceEverySeparator) {
  auto two = [](const JsonLayout& layout) {
    return written([&](JsonWriter& w) {
      w.begin_object(layout).member("a", 1).begin_array("b", layout);
      w.value(2).value(3).end_array().end_object();
    });
  };
  EXPECT_EQ(two(json::kCompact), "{\"a\":1,\"b\":[2,3]}\n");
  EXPECT_EQ(two(json::kInline), "{\"a\": 1, \"b\": [2, 3]}\n");
  EXPECT_EQ(two(json::kHanging), "{\"a\": 1,\n \"b\": [2,\n 3]}\n");
  EXPECT_EQ(two(json::kLines1),
            "{\n  \"a\": 1,\n  \"b\": [\n  2,\n  3\n]\n}\n");
  EXPECT_EQ(two(json::kBlock2),
            "{\n    \"a\": 1,\n    \"b\": [\n    2,\n    3\n  ]\n  }\n");
}

TEST(JsonWriter, EmptyContainers) {
  auto empty = [](const JsonLayout& layout) {
    return written([&](JsonWriter& w) { w.begin_array(layout).end_array(); });
  };
  EXPECT_EQ(empty(json::kInline), "[]\n");
  EXPECT_EQ(empty(json::kLines0), "[\n]\n");
  EXPECT_EQ(empty(json::kLines2), "[\n  ]\n");
  EXPECT_EQ(empty(json::kBlock0), "[\n\n]\n");
  EXPECT_EQ(empty(json::kBlock2), "[\n\n  ]\n");
  EXPECT_EQ(empty(json::kDocuments), "[\n]\n");
}

TEST(JsonWriter, RelayoutChangesTheSeparatorsThatFollow) {
  const std::string doc = written([](JsonWriter& w) {
    w.begin_object().member("a", 1).relayout(json::kHanging).member("b", 2);
    w.relayout(json::kInline).member("c", 3).end_object();
  });
  EXPECT_EQ(doc, "{\"a\": 1,\n \"b\": 2, \"c\": 3}\n");
}

TEST(JsonWriter, DocumentsStartWithSchemaAndToolVersion) {
  const std::string doc = written([](JsonWriter& w) {
    w.begin_document("tracemod-test-v1", json::kLines1).end_object();
  });
  EXPECT_EQ(doc, std::string("{\n  \"schema\": \"tracemod-test-v1\",\n"
                             "  \"tool_version\": \"") +
                     kToolVersion + "\"\n}\n");
}

}  // namespace
}  // namespace tracemod::sim
