#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/error.hpp"

namespace idg {

namespace {
std::string env_name(const std::string& option) {
  std::string out = "IDG_BENCH_";
  for (char c : option) {
    out += c == '-' ? '_' : static_cast<char>(std::toupper(
                                static_cast<unsigned char>(c)));
  }
  return out;
}
}  // namespace

Options::Options(int argc, const char* const* argv,
                 const std::vector<std::string>& flag_names) {
  parse(argc, argv, flag_names, nullptr);
}

Options::Options(int argc, const char* const* argv,
                 const std::vector<std::string>& flag_names,
                 const std::vector<std::string>& known_options) {
  parse(argc, argv, flag_names, &known_options);
}

void Options::parse(int argc, const char* const* argv,
                    const std::vector<std::string>& flag_names,
                    const std::vector<std::string>* known_options) {
  program_ = argc > 0 ? argv[0] : "";
  // Every problem is collected; one Error reports them all at the end.
  std::vector<std::string> problems;
  const auto contains = [](const std::vector<std::string>& names,
                           const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const bool is_flag = contains(flag_names, name);
    // An unknown name is reported as such (before it could swallow the
    // next token as its value or be misreported as missing one).
    if (known_options != nullptr && !is_flag &&
        !contains(*known_options, name)) {
      problems.push_back("unknown option --" + name);
      continue;
    }
    if (eq == std::string::npos) {
      if (is_flag) {
        value = "1";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        problems.push_back("option --" + name + " expects a value");
        continue;
      }
    }
    if (values_.count(name) != 0) {
      problems.push_back("duplicate option --" + name);
      continue;
    }
    values_[name] = std::move(value);
  }
  if (!problems.empty()) {
    std::string message = "invalid command line";
    if (!program_.empty()) message += " for " + program_;
    message += ":";
    for (const std::string& p : problems) message += "\n  " + p;
    throw Error(message);
  }
}

std::optional<std::string> Options::lookup(const std::string& name) const {
  auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  if (const char* env = std::getenv(env_name(name).c_str())) {
    return std::string(env);
  }
  return std::nullopt;
}

bool Options::has(const std::string& name) const {
  return lookup(name).has_value();
}

std::string Options::get(const std::string& name,
                         const std::string& fallback) const {
  return lookup(name).value_or(fallback);
}

long Options::get(const std::string& name, long fallback) const {
  auto v = lookup(name);
  if (!v) return fallback;
  try {
    return std::stol(*v);
  } catch (const std::exception&) {
    throw Error("option --" + name + " expects an integer, got '" + *v + "'");
  }
}

double Options::get(const std::string& name, double fallback) const {
  auto v = lookup(name);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw Error("option --" + name + " expects a number, got '" + *v + "'");
  }
}

const std::vector<std::string>& standard_option_catalogue() {
  static const std::vector<std::string> options = {
      "aterm-interval", "backend",    "bad-policy",    "channels",
      "checkpoint",     "csv",        "cycles",        "deadline-ms",
      "epsilon",        "flag-fraction", "grid",       "heartbeat-ms",
      "json",           "kernel-set", "kernel-size",   "kernels",
      "max-nw",         "max-timesteps", "phase-rms",  "resume",
      "retries",        "save-pgm",   "seconds-per-point", "shards",
      "stations",       "subgrid",    "support",       "tile-size",
      "time",           "trace",      "w-planes",      "w-scale",
      "workers",
  };
  return options;
}

const std::vector<std::string>& standard_flag_names() {
  static const std::vector<std::string> flags = {
      "paper", "help", "verbose", "sorted", "unsorted", "sweep", "hw",
  };
  return flags;
}

Options parse_standard_options(int argc, const char* const* argv) {
  return Options(argc, argv, standard_flag_names(),
                 standard_option_catalogue());
}

}  // namespace idg
