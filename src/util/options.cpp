#include "util/options.hpp"

#include <algorithm>

#include "util/parse.hpp"

namespace km {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      name = std::move(arg);
      value = argv[++i];
    } else {
      name = std::move(arg);
    }
    if (name.empty()) {
      throw OptionsError("empty flag name ('--' or '--=value')");
    }
    if (!values_.emplace(name, std::move(value)).second) {
      throw OptionsError("duplicate flag --" + name + " (given more than once)");
    }
  }
}

bool Options::has(const std::string& name) const {
  return values_.count(name) > 0;
}

void Options::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string msg = "unknown flag --" + name + " (accepted:";
    for (const auto& k : known) msg += " --" + k;
    msg += ")";
    throw OptionsError(msg);
  }
}

std::string Options::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

const std::string* Options::find_required_value(const std::string& name,
                                                const char* type_name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  if (it->second.empty()) {
    throw OptionsError("flag --" + name + " is missing its " + type_name +
                       " value");
  }
  return &it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const std::string* value = find_required_value(name, "integer");
  if (!value) return fallback;
  std::int64_t parsed = 0;
  if (!parse_strict_int(*value, parsed)) {
    throw OptionsError("flag --" + name + " expects an integer, got '" +
                       *value + "'");
  }
  return parsed;
}

std::uint64_t Options::get_uint(const std::string& name,
                                std::uint64_t fallback) const {
  const std::string* value = find_required_value(name, "unsigned integer");
  if (!value) return fallback;
  std::uint64_t parsed = 0;
  if (!parse_strict_uint(*value, parsed)) {
    throw OptionsError("flag --" + name +
                       " expects a non-negative integer, got '" + *value +
                       "'");
  }
  return parsed;
}

std::uint64_t Options::get_uint_or(const std::string& name,
                                   const std::string& keyword,
                                   std::uint64_t keyword_value,
                                   std::uint64_t fallback) const {
  const std::string* value = find_required_value(name, "unsigned integer");
  if (value && *value == keyword) return keyword_value;
  return get_uint(name, fallback);
}

double Options::get_double(const std::string& name, double fallback) const {
  const std::string* value = find_required_value(name, "number");
  if (!value) return fallback;
  double parsed = 0.0;
  if (!parse_strict_double(*value, parsed)) {
    throw OptionsError("flag --" + name + " expects a number, got '" + *value +
                       "'");
  }
  return parsed;
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "no") return false;
  throw OptionsError("flag --" + name + " expects a boolean, got '" + v + "'");
}

}  // namespace km
