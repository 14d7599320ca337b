#include "drbw/util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "drbw/util/error.hpp"
#include "drbw/util/strings.hpp"

namespace drbw {

namespace {

template <typename T>
[[noreturn]] void throw_out_of_range(const std::string& name, T lo, T hi,
                                     const std::string& raw) {
  std::ostringstream os;
  os << "--" << name << " must be between " << lo << " and " << hi
     << ", got '" << raw << "'";
  throw UsageError(os.str());
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& help) {
  DRBW_CHECK_MSG(find_spec(name) == nullptr, "duplicate option --" << name);
  specs_.emplace_back(name, Spec{help, true, ""});
  flags_[name] = false;
  return *this;
}

ArgParser& ArgParser::add_option(const std::string& name, const std::string& help,
                                 const std::string& default_value) {
  DRBW_CHECK_MSG(find_spec(name) == nullptr, "duplicate option --" << name);
  specs_.emplace_back(name, Spec{help, false, default_value});
  values_[name] = default_value;
  return *this;
}

ArgParser& ArgParser::add_positional(const std::string& name,
                                     const std::string& help,
                                     std::size_t min_count,
                                     std::size_t max_count) {
  DRBW_CHECK_MSG(min_count <= max_count && max_count > 0 &&
                     (positional_specs_.empty() ||
                      positional_specs_.back().max_count != kUnbounded),
                 "positional <" << name << ">: bad counts, or follows an "
                                   "unbounded positional");
  positional_specs_.push_back(Positional{name, help, min_count, max_count});
  return *this;
}

const ArgParser::Spec* ArgParser::find_spec(const std::string& name) const {
  for (const auto& [n, spec] : specs_) {
    if (n == name) return &spec;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (!starts_with(arg, "--")) {
      if (positional_specs_.empty()) {
        throw UsageError("unexpected positional argument '" + arg + "'");
      }
      positionals_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const Spec* spec = find_spec(name);
    if (spec == nullptr) throw UsageError("unknown option --" + name);
    if (spec->is_flag) {
      if (has_inline) throw UsageError("flag --" + name + " takes no value");
      flags_[name] = true;
    } else if (has_inline) {
      values_[name] = inline_value;
    } else {
      if (i + 1 >= argc) throw UsageError("option --" + name + " expects a value");
      values_[name] = argv[++i];
    }
  }
  // Declared positionals fill in order; only the last may be unbounded.
  std::size_t min_total = 0, max_total = 0;
  std::string required;
  for (const Positional& p : positional_specs_) {
    min_total += p.min_count;
    max_total =
        p.max_count == kUnbounded ? kUnbounded : max_total + p.max_count;
    if (p.min_count > 0) required += " <" + p.name + ">";
  }
  if (positionals_.size() > max_total) {
    throw UsageError(program_ + ": unexpected extra argument '" +
                     positionals_[max_total] + "'");
  }
  if (positionals_.size() < min_total) {
    throw UsageError(program_ + " expects" + required + " (see --help)");
  }
  return true;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  DRBW_CHECK_MSG(it != flags_.end(), "flag --" << name << " not declared");
  return it->second;
}

const std::string& ArgParser::option(const std::string& name) const {
  const auto it = values_.find(name);
  DRBW_CHECK_MSG(it != values_.end(), "option --" << name << " not declared");
  return it->second;
}

std::int64_t ArgParser::option_int(const std::string& name, std::int64_t lo,
                                   std::int64_t hi) const {
  const std::string& raw = option(name);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || *end != '\0') {
    throw UsageError("option --" + name + " expects an integer, got '" + raw + "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    throw_out_of_range(name, lo, hi, raw);
  }
  return v;
}

double ArgParser::option_double(const std::string& name, double lo,
                                 double hi) const {
  const std::string& raw = option(name);
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (raw.empty() || *end != '\0') {
    throw UsageError("option --" + name + " expects a number, got '" + raw + "'");
  }
  if (!std::isfinite(v) || v < lo || v > hi) {
    throw_out_of_range(name, lo, hi, raw);
  }
  return v;
}

std::vector<std::pair<std::string, std::string>> ArgParser::resolved_options()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, spec] : specs_) {
    if (spec.is_flag) {
      out.emplace_back(name, flags_.at(name) ? "true" : "false");
    } else {
      out.emplace_back(name, values_.at(name));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\n";
  if (!positional_specs_.empty()) {
    os << "Usage: " << program_ << " [options]";
    for (const Positional& p : positional_specs_) {
      const std::string name =
          "<" + p.name + ">" + (p.max_count > 1 ? "..." : "");
      os << ' ' << (p.min_count == 0 ? "[" + name + "]" : name);
    }
    os << "\n\nArguments:\n";
    for (const Positional& p : positional_specs_) {
      os << "  <" << p.name << ">\n      " << p.help << '\n';
    }
    os << '\n';
  }
  os << "Options:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_flag) os << " <value>";
    os << "\n      " << spec.help;
    if (!spec.is_flag && !spec.default_value.empty()) {
      os << " (default: " << spec.default_value << ")";
    }
    os << '\n';
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace drbw
