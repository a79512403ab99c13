#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Shared pieces of the perfbench binary: the command line, order
// statistics, the per-layer ledger of the traced pass, and the result the
// binary prints as the last line of its standard output.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "psk/algorithms/search_common.h"
#include "psk/common/result.h"
#include "psk/trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: timed ops, end-to-end metrics. true: the traced pass,
  /// per-layer metrics.
  bool trace = false;
  /// Working directory for job dirs and the written trace.
  std::string work_dir = ".bench_build/work";
};

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
double Median(std::vector<double> samples);

/// Nearest-rank percentile, q in (0, 1]; the sample must be non-empty.
double Percentile(std::vector<double> samples, double q);

/// One reported figure and the number of samples it summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 1;
};

/// Everything one workload run reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failure reasons, printed to stderr.
  std::vector<std::string> failures;
  /// The contract's metric set for the mode: end-to-end with tracing
  /// off, per-layer with it on.
  std::vector<Metric> metrics;
  /// Figures printed for readers only, outside the result object.
  std::vector<Metric> extra;
  /// Provenance lines (seed, input rows and CSV hash).
  std::vector<std::string> inputs;

  /// Counts one checked op; a non-empty `failure` marks it failed.
  void Record(const std::string& failure);
};

/// Prints the provenance and metric lines, then the result object
/// {"correct", "attempted", "failed", "metrics"} as the last line.
void PrintOutcome(const Outcome& outcome, std::ostream& out);

/// Per-layer ledger of the traced pass. Each Scope opens a span named
/// after the layer on an in-memory psk::RunTrace and, when it closes,
/// adds the wall time of the wrapped public calls to that layer's
/// samples. The trace is written out once, at the end of the run.
class Ledger {
 public:
  Ledger() : trace_("ledger") {}

  class Scope {
   public:
    Scope(Ledger* ledger, const char* layer)
        : ledger_(ledger), layer_(layer) {
      ledger_->trace_.Begin(layer);
      start_ = Clock::now();
    }
    ~Scope() {
      ledger_->samples_[layer_].push_back(MsBetween(start_, Clock::now()));
      ledger_->trace_.End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Records a size or count on the layer's span; the ledger keeps
    /// the latest value under `name`.
    void Count(const std::string& name, double value) {
      ledger_->trace_.Counter(name, static_cast<uint64_t>(value));
      ledger_->counts_[name] = value;
    }

   private:
    Ledger* ledger_;
    const char* layer_;
    Clock::time_point start_;
  };

  /// Groups one pass's layer spans under a parent span.
  void BeginPass(const char* name) { trace_.Begin(name); }
  void EndPass() { trace_.End(); }

  /// Median wall time of a layer in ms (0 when it never ran).
  double MedianMs(const std::string& layer) const;
  size_t Samples(const std::string& layer) const;
  /// Latest value recorded by Scope::Count (0 when never recorded).
  double LastCount(const std::string& name) const;

  psk::RunTrace& trace() { return trace_; }

 private:
  psk::RunTrace trace_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
};

/// The value of `result`, or throws std::runtime_error naming `what`: for
/// set-up steps the run cannot continue without.
template <typename T>
T Require(psk::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

/// Empty when `actual` equals `expected` field for field, else a
/// description of the first difference.
std::string CompareStats(const psk::SearchStats& expected,
                         const psk::SearchStats& actual);

/// Creates `dir` (and parents) empty: removes whatever was there.
void ResetDir(const std::string& dir);

/// Writes the ledger's trace to `<work_dir>/<workload>.trace.json`; a
/// failed write is reported on stderr and does not fail the run.
void WriteTrace(Ledger& ledger, const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
