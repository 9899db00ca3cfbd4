#include "check/counterexample.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <type_traits>

#include "check/explorer.h"
#include "check/minimizer.h"
#include "check/protocol_harness.h"

namespace dmasim::check {

namespace {

constexpr const char* kHeader = "dmasim-counterexample v1";

std::string OneLine(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

std::string LineError(int line, const std::string& what) {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer), "line %d: %s", line, what.c_str());
  return std::string(buffer);
}

void AppendConfig(const CheckerConfig& config, std::ostringstream* out) {
  *out << "chips " << config.chips << '\n'
       << "buses " << config.buses << '\n'
       << "k " << config.k << '\n'
       << "gather_depth_factor " << config.gather_depth_factor << '\n'
       << "max_arrivals " << config.max_arrivals << '\n'
       << "max_cpu_accesses " << config.max_cpu_accesses << '\n'
       << "max_epochs " << config.max_epochs << '\n'
       << "max_depth " << config.max_depth << '\n'
       << "mu " << config.mu << '\n'
       << "t_request " << config.t_request << '\n'
       << "transfer_requests " << config.transfer_requests << '\n'
       << "epoch_length " << config.epoch_length << '\n'
       << "slack_cap_requests " << config.slack_cap_requests << '\n'
       << "min_gating_budget " << config.min_gating_budget << '\n'
       << "cpu_access_bytes " << config.cpu_access_bytes << '\n'
       << "policy " << CheckPolicyName(config.policy) << '\n'
       << "fault " << CheckFaultName(config.fault) << '\n'
       << "chip_model " << ChipModelKindName(config.chip_model) << '\n';
}

// Parses a numeric key's value over the whole string, inside the range
// its flag uses (check_config.h).
template <typename T>
bool ApplyNumber(const std::string& key, const std::string& value,
                 NumericRange<T> range, T* field, std::string* what) {
  bool ok = false;
  if constexpr (std::is_integral_v<T>) {
    ok = ParseInteger(value, range, field);
  } else {
    ok = ParseReal(value, range, field);
  }
  if (!ok) {
    *what = "malformed value \"" + value + "\" for key \"" + key +
            "\": expected " +
            (std::is_integral_v<T> ? "an integer" : "a finite number") +
            " in [" + FormatBound(range.lo) + ", " + FormatBound(range.hi) +
            "]";
  }
  return ok;
}

// Applies one "key value" configuration line; returns false with a
// message when the key is unknown or the value malformed or out of its
// range.
bool ApplyConfigLine(const std::string& key, const std::string& value,
                     CheckerConfig* config, std::string* what) {
  namespace range = check_range;
  if (key == "chips") {
    return ApplyNumber(key, value, range::kChips, &config->chips, what);
  } else if (key == "buses") {
    return ApplyNumber(key, value, range::kBuses, &config->buses, what);
  } else if (key == "k") {
    return ApplyNumber(key, value, range::kK, &config->k, what);
  } else if (key == "gather_depth_factor") {
    return ApplyNumber(key, value, range::kGatherDepthFactor,
                       &config->gather_depth_factor, what);
  } else if (key == "max_arrivals") {
    return ApplyNumber(key, value, range::kArrivals, &config->max_arrivals,
                       what);
  } else if (key == "max_cpu_accesses") {
    return ApplyNumber(key, value, range::kCpuAccesses,
                       &config->max_cpu_accesses, what);
  } else if (key == "max_epochs") {
    return ApplyNumber(key, value, range::kEpochs, &config->max_epochs, what);
  } else if (key == "max_depth") {
    return ApplyNumber(key, value, range::kDepth, &config->max_depth, what);
  } else if (key == "mu") {
    return ApplyNumber(key, value, range::kMu, &config->mu, what);
  } else if (key == "t_request") {
    return ApplyNumber(key, value, range::kTicks, &config->t_request, what);
  } else if (key == "transfer_requests") {
    return ApplyNumber(key, value, range::kTransferRequests,
                       &config->transfer_requests, what);
  } else if (key == "epoch_length") {
    return ApplyNumber(key, value, range::kTicks, &config->epoch_length,
                       what);
  } else if (key == "slack_cap_requests") {
    return ApplyNumber(key, value, range::kSlackCapRequests,
                       &config->slack_cap_requests, what);
  } else if (key == "min_gating_budget") {
    return ApplyNumber(key, value, range::kMinGatingBudget,
                       &config->min_gating_budget, what);
  } else if (key == "cpu_access_bytes") {
    return ApplyNumber(key, value, range::kCpuAccessBytes,
                       &config->cpu_access_bytes, what);
  } else if (key == "policy") {
    if (!ParseCheckPolicy(value, &config->policy)) {
      *what = "unknown policy \"" + value + "\"";
      return false;
    }
  } else if (key == "fault") {
    if (!ParseCheckFault(value, &config->fault)) {
      *what = "unknown fault \"" + value + "\"";
      return false;
    }
  } else if (key == "chip_model") {
    const std::optional<ChipModelKind> kind = ParseChipModelKind(value);
    if (!kind.has_value()) {
      *what = "unknown chip_model \"" + value + "\"";
      return false;
    }
    config->chip_model = *kind;
  } else {
    *what = "unknown key \"" + key + "\"";
    return false;
  }
  return true;
}

// Splits "key rest-of-line" at the first space run.
void SplitKeyValue(const std::string& line, std::string* key,
                   std::string* value) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) {
    *key = line;
    value->clear();
    return;
  }
  *key = line.substr(0, space);
  std::size_t begin = space;
  while (begin < line.size() && line[begin] == ' ') ++begin;
  *value = line.substr(begin);
}

}  // namespace

std::string FormatCounterexample(const Counterexample& ce) {
  std::ostringstream out;
  out << kHeader << '\n';
  AppendConfig(ce.config, &out);
  out << "property " << OneLine(ce.property) << '\n'
      << "message " << OneLine(ce.message) << '\n'
      << "actions " << ce.actions.size() << '\n';
  for (const Action& action : ce.actions) {
    out << FormatAction(action) << '\n';
  }
  out << "end\n";
  return out.str();
}

bool ParseCounterexampleText(const std::string& text, Counterexample* out,
                             std::string* error) {
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  const auto next_line = [&](std::string* into) {
    while (std::getline(stream, *into)) {
      ++line_number;
      if (!into->empty() && into->back() == '\r') into->pop_back();
      return true;
    }
    return false;
  };

  if (!next_line(&line) || line != kHeader) {
    *error = LineError(line_number == 0 ? 1 : line_number,
                       std::string("expected header \"") + kHeader + "\"");
    return false;
  }

  Counterexample ce;
  bool saw_property = false;
  long action_count = -1;
  while (next_line(&line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string key;
    std::string value;
    SplitKeyValue(line, &key, &value);
    if (key == "property") {
      ce.property = value;
      saw_property = true;
    } else if (key == "message") {
      ce.message = value;
    } else if (key == "actions") {
      std::istringstream count_stream(value);
      if (!(count_stream >> action_count) || action_count < 0) {
        *error = LineError(line_number, "malformed action count \"" + value +
                                            "\"");
        return false;
      }
      break;  // Action lines follow.
    } else {
      std::string what;
      if (!ApplyConfigLine(key, value, &ce.config, &what)) {
        *error = LineError(line_number, what);
        return false;
      }
    }
  }
  if (action_count < 0) {
    *error = LineError(line_number, "missing \"actions <count>\" line");
    return false;
  }
  if (!saw_property) {
    *error = LineError(line_number, "missing \"property\" line");
    return false;
  }
  for (long i = 0; i < action_count; ++i) {
    if (!next_line(&line)) {
      *error = LineError(line_number, "unexpected end of input inside the "
                                      "action list");
      return false;
    }
    Action action;
    if (!ParseAction(line, &action)) {
      *error = LineError(line_number, "malformed action \"" + line + "\"");
      return false;
    }
    ce.actions.push_back(action);
  }
  if (!next_line(&line) || line != "end") {
    *error = LineError(line_number, "expected \"end\" after the action list");
    return false;
  }
  *out = ce;
  return true;
}

bool WriteCounterexampleFile(const Counterexample& ce, const std::string& path,
                             std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open \"" + path + "\" for writing";
    return false;
  }
  out << FormatCounterexample(ce);
  out.flush();
  if (!out) {
    *error = "write to \"" + path + "\" failed";
    return false;
  }
  return true;
}

bool ReadCounterexampleFile(const std::string& path, Counterexample* out,
                            std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open \"" + path + "\"";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseCounterexampleText(text.str(), out, error);
}

bool ReadConfigFile(const std::string& path, CheckerConfig* out,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open \"" + path + "\"";
    return false;
  }
  CheckerConfig config = *out;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::string key;
    std::string value;
    SplitKeyValue(line, &key, &value);
    std::string what;
    if (!ApplyConfigLine(key, value, &config, &what)) {
      *error = LineError(line_number, what);
      return false;
    }
  }
  *out = config;
  return true;
}

bool ReplayCounterexample(const Counterexample& ce, std::string* observed) {
  ProtocolHarness harness(ce.config);
  ReplayActions(ce.actions, &harness, nullptr);
  if (!harness.violation().has_value()) {
    // Terminal-phase properties (full drain) only judge genuinely
    // terminal states; a truncated replay must not fail them spuriously.
    std::vector<Action> enabled;
    harness.EnabledActions(&enabled);
    if (harness.Quiescent() || enabled.empty()) harness.CheckTerminal();
  }
  if (!harness.violation().has_value()) {
    if (observed != nullptr) *observed = "no violation reproduced";
    return false;
  }
  if (observed != nullptr) {
    *observed = harness.violation()->property + ": " +
                harness.violation()->message;
  }
  return harness.violation()->property == ce.property;
}

}  // namespace dmasim::check
