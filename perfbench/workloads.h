#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each makes its input from the seed,
// checks every release it produces, and reports end-to-end metrics
// (args.trace false) or per-layer metrics from a traced pass (true). See
// README.md in this directory for why each workload exists.

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "psk/common/result.h"
#include "psk/service/scheduler.h"

namespace perfbench {

/// 1,000,000 synthetic_3qi rows (3 QIs of cardinality 20 with 3-level
/// hierarchies, one confidential attribute of cardinality 50, Zipf 0.5);
/// Samarati k=3, p=2, TS=10,000 at 4 threads. The data path dominates.
Outcome RunRelease1m(const Args& args);

/// 100,000 rows, 7 QIs of cardinality 16 with 4-level hierarchies (a
/// 16,384-node lattice), the same confidential attribute; Samarati k=3,
/// p=2, TS=1,000 at 4 threads. The lattice search dominates.
Outcome RunSearchWide(const Args& args);

/// A closed loop of 4 clients on a JobScheduler (max_running=2,
/// threads_per_job=1), each repeating Submit -> Wait of an in-memory job
/// that streams a 35,000-row Adult CSV through JobSpec::input_source;
/// Samarati k=3, p=2, TS=200. The loop runs in rounds, each on a new
/// scheduler. Per-run fixed costs dominate.
Outcome RunJobsMix(const Args& args);

/// Output check of one job: empty when Wait succeeded, the job completed,
/// its release passed the guard and TableDigest(release) equals
/// `expected_digest`; otherwise why not.
std::string CheckJobResult(
    uint64_t expected_digest,
    const psk::Result<psk::SchedulerJobResult>& waited);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
