#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "psk/common/json_writer.h"

namespace perfbench {

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

void Outcome::Record(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  if (failures.size() < 5) failures.push_back(failure);
}

void PrintOutcome(const Outcome& outcome, std::ostream& out) {
  for (const std::string& line : outcome.inputs) out << line << "\n";
  auto print = [&out](const Metric& m, const char* tag) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-6s %-32s %14.4f %-6s (n=%zu)",
                  tag, m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    out << line << "\n";
  };
  for (const Metric& m : outcome.metrics) print(m, "metric");
  for (const Metric& m : outcome.extra) print(m, "info");
  out << "ops " << outcome.attempted << " attempted, " << outcome.failed
      << " failed\n";
  for (const std::string& failure : outcome.failures) {
    std::cerr << "failed op: " << failure << "\n";
  }

  psk::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(outcome.failed == 0 && outcome.attempted > 0);
  json.Key("attempted").Uint(outcome.attempted);
  json.Key("failed").Uint(outcome.failed);
  json.Key("metrics").BeginObject();
  for (const Metric& m : outcome.metrics) {
    json.Key(m.name).BeginObject();
    json.Key("value").Double(m.value);
    json.Key("unit").String(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  out << json.TakeString() << std::endl;
}

double Ledger::MedianMs(const std::string& layer) const {
  auto it = samples_.find(layer);
  return it == samples_.end() ? 0.0 : Median(it->second);
}

size_t Ledger::Samples(const std::string& layer) const {
  auto it = samples_.find(layer);
  return it == samples_.end() ? 0 : it->second.size();
}

double Ledger::LastCount(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::string CompareStats(const psk::SearchStats& expected,
                         const psk::SearchStats& actual) {
  struct Field {
    const char* name;
    size_t psk::SearchStats::*member;
  };
  static constexpr Field kFields[] = {
      {"nodes_generalized", &psk::SearchStats::nodes_generalized},
      {"nodes_pruned_condition2", &psk::SearchStats::nodes_pruned_condition2},
      {"nodes_rejected_kanonymity",
       &psk::SearchStats::nodes_rejected_kanonymity},
      {"nodes_rejected_detail", &psk::SearchStats::nodes_rejected_detail},
      {"nodes_satisfied", &psk::SearchStats::nodes_satisfied},
      {"nodes_skipped", &psk::SearchStats::nodes_skipped},
      {"nodes_cache_hits", &psk::SearchStats::nodes_cache_hits},
      {"nodes_cache_misses", &psk::SearchStats::nodes_cache_misses},
      {"nodes_evaluated_encoded", &psk::SearchStats::nodes_evaluated_encoded},
      {"nodes_evaluated_legacy", &psk::SearchStats::nodes_evaluated_legacy},
      {"replay_ticks", &psk::SearchStats::replay_ticks},
      {"heights_probed", &psk::SearchStats::heights_probed},
      {"subset_nodes_evaluated", &psk::SearchStats::subset_nodes_evaluated},
  };
  for (const Field& field : kFields) {
    if (expected.*field.member != actual.*field.member) {
      return std::string("SearchStats.") + field.name + " " +
             std::to_string(actual.*field.member) + " != reference " +
             std::to_string(expected.*field.member);
    }
  }
  if (expected.partial != actual.partial ||
      expected.stop_reason != actual.stop_reason) {
    return "SearchStats partial/stop_reason differ from the reference";
  }
  return "";
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

void WriteTrace(Ledger& ledger, const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  std::string path = args.work_dir + "/" + args.workload + ".trace.json";
  psk::Status written = ledger.trace().WriteJsonFile(path);
  if (written.ok()) {
    std::cout << "trace written to " << path << "\n";
  } else {
    std::cerr << "trace not written: " << written.ToString() << "\n";
  }
}

}  // namespace perfbench
