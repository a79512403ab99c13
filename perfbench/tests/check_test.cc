// Tests of the benchmark's output checks: a clean release passes, and a
// release that differs from the reference in any checked respect counts
// as a failed op. Run with:
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests

#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "pipeline.h"
#include "psk/api/anonymizer.h"
#include "psk/datagen/synthetic.h"
#include "psk/jobs/job.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

std::string LastLine(const std::string& text) {
  size_t end = text.find_last_not_of('\n');
  size_t begin = text.rfind('\n', end);
  return text.substr(begin == std::string::npos ? 0 : begin + 1,
                     end - (begin == std::string::npos ? 0 : begin + 1) + 1);
}

void TestReleaseChecks() {
  Input input = Require(
      MakeSyntheticInput(psk::MakeUniformSpec(3000, 3, 8, 1, 10, 0.5), 7),
      "input");
  Requirements req = {/*k=*/3, /*p=*/2, /*max_suppression=*/60,
                      /*threads=*/2};
  Reference ref = Require(MakeReference(input, req), "reference");

  OpResult op = Require(RunOp(input, req), "op");
  Expect(CheckRelease(ref, op.release).empty(),
         "a clean op passes: " + CheckRelease(ref, op.release));
  Expect(op.peak_tracked_bytes > 0, "the op's tracked peak is recorded");

  Ledger ledger;
  Release pass = Require(RunLedgerPass(input, req, &ledger), "ledger pass");
  Expect(CheckRelease(ref, pass).empty(), "a clean ledger pass passes");
  Expect(ledger.Samples("table.export") == 1, "the pass times every layer");

  Release tampered = op.release;
  tampered.csv[tampered.csv.size() / 2] ^= 1;
  Expect(!CheckRelease(ref, tampered).empty(), "a flipped byte fails");

  tampered = op.release;
  tampered.guard_passed = false;
  Expect(!CheckRelease(ref, tampered).empty(), "a guard refusal fails");

  tampered = op.release;
  tampered.node->levels[0] += 1;
  Expect(!CheckRelease(ref, tampered).empty(), "another node fails");

  tampered = op.release;
  tampered.stats.nodes_generalized += 1;
  Expect(!CheckRelease(ref, tampered).empty(), "other SearchStats fail");

  // A tampered release is counted as failed and makes the run incorrect.
  Outcome outcome;
  outcome.Record(CheckRelease(ref, op.release));
  outcome.Record(CheckRelease(ref, tampered));
  outcome.metrics.push_back({"op_p50_ms", 1.5, "ms", 2});
  Expect(outcome.attempted == 2 && outcome.failed == 1,
         "one of two ops failed");
  std::ostringstream printed;
  PrintOutcome(outcome, printed);
  Expect(LastLine(printed.str()) ==
             "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":"
             "{\"op_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}",
         "the result object reports the failure: " + LastLine(printed.str()));
}

void TestJobChecks() {
  Input input = Require(
      MakeSyntheticInput(psk::MakeUniformSpec(2000, 3, 8, 1, 10, 0.5), 11),
      "input");
  psk::Anonymizer anonymizer(input.table);
  Configure(anonymizer, input,
            {/*k=*/3, /*p=*/2, /*max_suppression=*/40, /*threads=*/1});
  psk::SchedulerJobResult job;
  job.report = Require(anonymizer.Run(), "direct run");
  job.state = psk::JobState::kCompleted;
  uint64_t digest = psk::TableDigest(job.report.masked);

  Expect(CheckJobResult(digest, job).empty(), "a clean job passes");
  Expect(!CheckJobResult(digest + 1, job).empty(), "another digest fails");

  psk::SchedulerJobResult tampered = job;
  tampered.report.masked = psk::Table(job.report.masked.schema());
  Expect(!CheckJobResult(digest, tampered).empty(), "an emptied release fails");

  tampered = job;
  tampered.status = psk::Status::ResourceExhausted("shed");
  tampered.state = psk::JobState::kFailed;
  Expect(!CheckJobResult(digest, tampered).empty(), "a failed job fails");

  Expect(!CheckJobResult(digest, psk::Status::NotFound("no job")).empty(),
         "a failed Wait fails");
}

void TestOrderStatistics() {
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.9) == 90, "nearest-rank p90 of 1..100");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestOrderStatistics();
  perfbench::TestReleaseChecks();
  perfbench::TestJobChecks();
  if (perfbench::failures != 0) {
    std::cerr << perfbench::failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_tests: all checks passed\n";
  return 0;
}
