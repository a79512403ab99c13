#ifndef PSK_JOBS_JOB_H_
#define PSK_JOBS_JOB_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/common/result.h"
#include "psk/common/run_budget.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/table/table.h"

namespace psk {

/// Pull-based source of input rows for streaming ingest: fills the chunk
/// with up to max_rows rows and returns the count, 0 at end-of-input.
/// CsvChunkReader::NextChunk and SyntheticChunkGenerator::NextChunk both
/// bind directly; a hand-written source can Reset the chunk for the
/// schema and Append one Value per cell. A malformed chunk fails the
/// job's ingest with InvalidArgument (see Table::AppendChunk).
using IngestChunkSource =
    std::function<Result<size_t>(size_t max_rows, IngestChunk* chunk)>;

/// Everything one anonymization job needs: the input microdata, the
/// privacy requirements, and the execution knobs. A JobSpec is the unit
/// the journal fingerprints — Resume() refuses to continue a job whose
/// spec or input no longer matches what the journal recorded.
struct JobSpec {
  Table input;
  /// Optional streaming input (see IngestChunkSource). When set, `input`
  /// must be an empty table carrying the schema; MaterializeJobInput
  /// drains the source into it in ingest_chunk_rows batches,
  /// chunk-metering the growth against the job's MemoryBudget so an
  /// over-quota input fails during ingest, not after the whole table
  /// landed. One-shot: the scheduler drains it on
  /// the job's first attempt and clears it, so retries and the journal's
  /// input digest see an ordinary materialized input. Excluded from
  /// JobSpecHash (like trace_path): chunk sizing never changes the
  /// ingested table, so it cannot shape the search.
  IngestChunkSource input_source;
  /// Rows per ingest batch for input_source (0 = the 64Ki default).
  size_t ingest_chunk_rows = 0;
  std::vector<std::shared_ptr<const AttributeHierarchy>> hierarchies;
  size_t k = 2;
  size_t p = 1;
  size_t max_suppression = 0;
  AnonymizationAlgorithm algorithm = AnonymizationAlgorithm::kSamarati;
  std::vector<AnonymizationAlgorithm> fallback_chain;
  /// Resource limits for the run. The wall-clock deadline is excluded from
  /// the spec fingerprint: elapsed time does not survive a crash, so a
  /// resumed run re-arms the full deadline. The node/row caps are
  /// fingerprinted — they shape which nodes a budgeted search visits.
  RunBudget budget;
  /// Recorded in the journal for provenance. The engines are fully
  /// deterministic today; the seed exists so future randomized stages
  /// (sampling, perturbation) stay replayable from the journal alone.
  uint64_t seed = 0;
  /// Fresh verdicts and subset facts between durable checkpoints.
  uint64_t checkpoint_interval = 64;
  bool guard_enabled = true;
  /// When non-empty, the run is traced (see psk/trace) and the trace JSON
  /// is written atomically to this path after the commit protocol, with
  /// the commit steps recorded as spans. Pure observability: deliberately
  /// excluded from JobSpecHash, so a resumed job may add or drop tracing
  /// without invalidating the journal.
  std::string trace_path;
  /// Worker threads for the lattice engines' node sweeps. The determinism
  /// contract guarantees byte-identical releases and checkpoints for
  /// every value, so this is a runtime knob excluded from JobSpecHash
  /// (like trace_path): a job checkpointed at one thread count resumes at
  /// any other, and a scheduler may narrow a running job to one lane
  /// (MemoryBudget::LimitToOneLane) without changing its checkpoints.
  size_t threads = 1;
};

/// Fingerprint of the requirements half of a spec (k, p, TS, algorithm,
/// fallback chain, guard, seed, node/row caps, schema, and each
/// hierarchy's actual generalization mapping over the input's observed
/// values — not just its name and depth). Stable across processes; stored
/// in the journal and in every checkpoint.
uint64_t JobSpecHash(const JobSpec& spec);

/// An Anonymizer configured from `spec`: its input, hierarchies, k, p, TS,
/// algorithm, fallback chain, budget, threads and guard switch.
/// Checkpointing, tracing and progress hooks are left to the caller.
Anonymizer MakeJobAnonymizer(const JobSpec& spec);

/// Drains spec->input_source (if any) into spec->input in
/// spec->ingest_chunk_rows batches, then clears the source. Each batch
/// re-charges the table's footprint against `memory` (null = unmetered),
/// so ingest of an over-quota input fails with kResourceExhausted after
/// at most one extra chunk instead of after the whole table. The charge
/// is released on return — Anonymizer::Run re-reserves the footprint for
/// the run itself.
Status MaterializeJobInput(JobSpec* spec,
                           const std::shared_ptr<MemoryBudget>& memory);

/// Content digest of a table (FNV-1a over its canonical CSV rendering).
/// Stored in the journal so Resume() can prove it is looking at the same
/// input the interrupted run was anonymizing.
uint64_t TableDigest(const Table& table);

/// The write-ahead record of one job, persisted to job.journal before any
/// search work starts and atomically rewritten with committed=true only
/// after the release and report are durable. Scalar requirement fields are
/// duplicated in clear text for auditability; the hashes are what Resume()
/// validates.
struct JobJournal {
  bool committed = false;
  uint64_t spec_hash = 0;
  uint64_t input_digest = 0;
  uint64_t input_rows = 0;
  uint64_t seed = 0;
  size_t k = 2;
  size_t p = 1;
  size_t max_suppression = 0;
  std::string algorithm;
  /// Comma-joined fallback algorithm names; empty when no chain is set.
  std::string fallback;
  std::optional<uint64_t> max_nodes_expanded;
  std::optional<uint64_t> max_rows_materialized;
  std::optional<uint64_t> deadline_ms;
};

/// Journal (de)serialization — text, `key = value` per line, always
/// written through AtomicWriteFile so a reader never sees a torn journal.
std::string SerializeJobJournal(const JobJournal& journal);
Result<JobJournal> ParseJobJournal(std::string_view text);

/// What a completed (or resumed-to-completion) job hands back.
struct JobOutcome {
  AnonymizationReport report;
  std::string release_path;
  std::string report_path;
  /// True when Resume() fast-forwarded through a checkpoint rather than
  /// recomputing from scratch.
  bool resumed_from_checkpoint = false;
  /// True when Resume() found the job already committed and only
  /// re-verified the released artifact.
  bool already_committed = false;
};

/// Crash-safe execution of one anonymization job inside a job directory:
///
///   job_dir/.lock         advisory exclusive lock held for the whole
///                         Run/Resume (see below)
///   job_dir/job.journal   write-ahead record (spec hash, input digest,
///                         seed, budget, state)
///   job_dir/checkpoint    latest search snapshot (atomically replaced)
///   job_dir/progress      partition/cluster heartbeat (local recoding)
///   job_dir/release.csv   the release — only ever appears atomically
///   job_dir/report.json   scorecard + provenance, committed with it
///
/// Run() journals the spec, executes Anonymizer::Run under periodic
/// durable checkpoints, and commits the release atomically (temp file,
/// fsync, rename, directory fsync): a reader — or a process that crashed
/// and restarted — never observes a torn release at the final path.
///
/// Resume() validates the journal against the caller's spec and input
/// (refusing mismatches with kFailedPrecondition), replays the search
/// from the last checkpoint, and produces a release byte-identical to an
/// uninterrupted run; if the job had already committed, it independently
/// re-verifies the released artifact (guard re-check on the file's own
/// bytes) instead of recomputing. SIGKILL at any point between — or in
/// the middle of — any of the durable writes is recoverable.
///
/// Both entry points hold an advisory exclusive flock on job_dir/.lock
/// for their whole duration, so a second JobRunner racing on the same
/// directory can never interleave journal/checkpoint writes with the
/// incumbent. Contention is retried with bounded exponential backoff for
/// up to lock_wait() (short incumbents — a Resume verifying a committed
/// release — finish within it); when the wait budget is exhausted the
/// runner refuses with the retryable kUnavailable. set_lock_wait(0) opts
/// out, restoring the historical fail-fast probe (the torture harness
/// races runners deliberately and wants the refusal, not the wait). The
/// kernel drops the lock when the holder dies, so a crashed runner never
/// wedges the directory — the next Run/Resume simply takes the lock over.
class JobRunner {
 public:
  explicit JobRunner(std::string job_dir) : job_dir_(std::move(job_dir)) {}

  /// How long Run/Resume may spend retrying a contended directory lock
  /// before refusing with kUnavailable. 0 disables the retry loop (one
  /// fail-fast probe).
  JobRunner& set_lock_wait(std::chrono::milliseconds lock_wait) {
    lock_wait_ = lock_wait;
    return *this;
  }
  std::chrono::milliseconds lock_wait() const { return lock_wait_; }

  /// Starts (or restarts from scratch) the job in job_dir, creating the
  /// directory if needed. Any previous checkpoint/progress file is
  /// durably removed *before* the new journal is written, so a crash at
  /// any point can never pair this run's journal with a stale snapshot
  /// from an earlier occupant of the directory; the journal itself is
  /// then overwritten.
  Result<JobOutcome> Run(const JobSpec& spec);

  /// Continues an interrupted job. Fails with kNotFound when job_dir holds
  /// no journal and kFailedPrecondition when the journal was written for a
  /// different spec or input.
  Result<JobOutcome> Resume(const JobSpec& spec);

  const std::string& job_dir() const { return job_dir_; }
  std::string lock_path() const { return job_dir_ + "/.lock"; }
  std::string journal_path() const { return job_dir_ + "/job.journal"; }
  std::string checkpoint_path() const { return job_dir_ + "/checkpoint"; }
  std::string progress_path() const { return job_dir_ + "/progress"; }
  std::string release_path() const { return job_dir_ + "/release.csv"; }
  std::string report_path() const { return job_dir_ + "/report.json"; }

 private:
  // `spec_hash` and `input_digest` are JobSpecHash(spec) and
  // TableDigest(spec.input), computed once per Run or Resume: the digest
  // renders the whole input.
  Result<JobOutcome> Execute(const JobSpec& spec,
                             const SearchSnapshot* restore,
                             uint64_t spec_hash, uint64_t input_digest);
  Result<JobOutcome> VerifyCommitted(const JobSpec& spec);
  Status WriteJournal(const JobSpec& spec, uint64_t spec_hash,
                      uint64_t input_digest, bool committed);

  std::string job_dir_;
  std::chrono::milliseconds lock_wait_{250};
};

}  // namespace psk

#endif  // PSK_JOBS_JOB_H_
