// release_1m and search_wide: one release at a time, each op the whole
// user-visible pipeline from CSV text to exported release.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "pipeline.h"
#include "psk/datagen/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct ReleaseWorkload {
  std::string name;
  psk::SyntheticSpec spec;
  Requirements req;
};

Outcome RunReleaseWorkload(const ReleaseWorkload& workload,
                           const Args& args) {
  Outcome outcome;
  std::vector<double> setup_s;
  std::optional<Input> input;
  auto set_up = [&] {
    input.reset();
    Clock::time_point start = Clock::now();
    psk::Result<Input> made = MakeSyntheticInput(workload.spec, args.seed);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    input = Require(std::move(made), "set-up");
  };
  set_up();
  Reference ref = Require(MakeReference(*input, workload.req),
                          "reference run");
  outcome.inputs.push_back(InputLine(workload.name, args.seed, *input));

  // Each iteration makes one timed op (tracing off) and then, in the
  // traced run, one ledger pass, otherwise one more set-up: the host's
  // speed drifts within seconds, so set-up repeated across the whole run
  // samples the same drift op_p50_ms does. Ops and passes are checked
  // against the reference outside their timed regions.
  std::vector<double> op_ms;
  uint64_t peak_bytes = 0;
  Ledger ledger;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    psk::Result<OpResult> op = RunOp(*input, workload.req);
    if (op.ok()) {
      op_ms.push_back(op->ms);
      peak_bytes = std::max(peak_bytes, op->peak_tracked_bytes);
      outcome.Record(CheckRelease(ref, op->release));
    } else {
      outcome.Record("op: " + op.status().ToString());
    }
    if (args.trace) {
      ledger.BeginPass("pass");
      psk::Result<Release> pass = RunLedgerPass(*input, workload.req, &ledger);
      ledger.EndPass();
      outcome.Record(pass.ok() ? CheckRelease(ref, *pass)
                               : "ledger pass: " + pass.status().ToString());
    } else {
      set_up();
    }
  } while (Clock::now() < deadline);

  double op_p50 = op_ms.empty() ? 0.0 : Median(op_ms);
  if (args.trace) {
    outcome.metrics = LayerMetrics(ledger, op_p50, op_ms.size(), {});
    WriteTrace(ledger, args);
  } else {
    outcome.metrics = {
        {"setup_s", Median(setup_s), "s", setup_s.size()},
        {"op_p50_ms", op_p50, "ms", op_ms.size()},
        {"peak_tracked_mb", static_cast<double>(peak_bytes) / 1e6, "MB",
         op_ms.size()},
    };
  }
  return outcome;
}

}  // namespace

Outcome RunRelease1m(const Args& args) {
  ReleaseWorkload workload;
  workload.name = "release_1m";
  workload.spec = psk::MakeUniformSpec(1000000, /*num_key=*/3,
                                       /*key_card=*/20, /*num_conf=*/1,
                                       /*conf_card=*/50, /*conf_theta=*/0.5);
  workload.req = {/*k=*/3, /*p=*/2, /*max_suppression=*/10000,
                  /*threads=*/4};
  return RunReleaseWorkload(workload, args);
}

Outcome RunSearchWide(const Args& args) {
  ReleaseWorkload workload;
  workload.name = "search_wide";
  workload.spec = psk::MakeUniformSpec(100000, /*num_key=*/7,
                                       /*key_card=*/16, /*num_conf=*/1,
                                       /*conf_card=*/50, /*conf_theta=*/0.5);
  for (psk::SyntheticAttribute& attribute : workload.spec.attributes) {
    if (attribute.role == psk::AttributeRole::kKey) {
      attribute.hierarchy_levels = 4;
    }
  }
  workload.req = {/*k=*/3, /*p=*/2, /*max_suppression=*/1000,
                  /*threads=*/4};
  return RunReleaseWorkload(workload, args);
}

}  // namespace perfbench
