#include "cli/flags.hpp"

#include <cmath>
#include <cstdio>

namespace tracemod::cli {

bool parse_number(std::string_view text, double* out) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t at = s.find(sep); at != std::string::npos;
       at = s.find(sep, start)) {
    out.push_back(s.substr(start, at - start));
    start = at + 1;
  }
  out.push_back(s.substr(start));
  return out;
}

const std::string* Args::value(std::string_view name) const {
  for (auto it = flags_.rbegin(); it != flags_.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

bool Args::str(std::string_view name, std::string* out) const {
  const std::string* v = value(name);
  if (v != nullptr) *out = *v;
  return v != nullptr;
}

std::vector<std::string> Args::values(std::string_view name) const {
  std::vector<std::string> out;
  for (const auto& [flag, v] : flags_) {
    if (flag == name) out.push_back(v);
  }
  return out;
}

bool Args::number(std::string_view name, double* out) {
  const std::string* v = value(name);
  if (v == nullptr) return false;
  if (parse_number(*v, out)) return true;
  fail("flag '" + std::string(name) + "' needs a finite number, got '" + *v +
       "'");
  return false;
}

void Args::fail(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", prog_.c_str(), message.c_str());
  failed_ = true;
}

Args parse(std::string prog, const std::vector<std::string>& args,
           std::initializer_list<Flag> spec, std::size_t min_pos,
           std::size_t max_pos) {
  Args p(std::move(prog));
  for (std::size_t i = 0; i < args.size() && p.ok(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      p.pos_.push_back(a);
      continue;
    }
    const std::size_t eq = a.find('=');
    const std::string name = a.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : spec) {
      if (name == f.name) flag = &f;
    }
    if (flag == nullptr) {
      p.fail("unknown flag '" + name + "'");
    } else if (eq != std::string::npos) {
      if (flag->arity == Flag::kSwitch) {
        p.fail("flag '" + name + "' takes no value");
      } else if (eq + 1 == a.size()) {
        p.fail("flag '" + name + "' needs a value after '='");
      } else {
        p.flags_.emplace_back(name, a.substr(eq + 1));
      }
    } else if (flag->arity != Flag::kValue) {
      p.flags_.emplace_back(name, "");
    } else if (i + 1 >= args.size()) {
      p.fail("flag '" + name + "' requires a value");
    } else {
      p.flags_.emplace_back(name, args[++i]);
    }
  }
  if (p.ok() && (p.pos_.size() < min_pos || p.pos_.size() > max_pos)) {
    p.fail("expected " + std::to_string(min_pos) +
           (max_pos > min_pos ? "+" : "") + " argument" +
           (min_pos == 1 && max_pos == 1 ? "" : "s") + ", got " +
           std::to_string(p.pos_.size()));
  }
  return p;
}

std::string usage_line(const std::string& prog,
                       std::initializer_list<Flag> spec) {
  std::string out = "usage: " + prog;
  std::size_t col = out.size();
  const std::string indent(prog.size() + 8, ' ');
  for (const Flag& f : spec) {
    std::string item = std::string("[") + f.name;
    if (f.arity == Flag::kValue) item += std::string(" ") + f.metavar;
    if (f.arity == Flag::kOptional) item += std::string("[=") + f.metavar + "]";
    item += "]";
    if (col + 1 + item.size() > 78) {
      out += "\n" + indent;
      col = indent.size();
    } else {
      out += " ";
      ++col;
    }
    out += item;
    col += item.size();
  }
  return out + "\n";
}

Args parse_main(int argc, char** argv, std::initializer_list<Flag> spec) {
  std::string prog = argc > 0 ? argv[0] : "bench";
  prog = prog.substr(prog.rfind('/') + 1);
  Args p = parse(prog, std::vector<std::string>(argv + 1, argv + argc), spec);
  if (!p.ok()) std::fputs(usage_line(prog, spec).c_str(), stderr);
  return p;
}

}  // namespace tracemod::cli
