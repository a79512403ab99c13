#include "psk/jobs/job.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "psk/api/spec_parser.h"
#include "psk/common/durable_file.h"
#include "psk/common/failpoint.h"
#include "psk/common/string_util.h"
#include "psk/guard/guard.h"
#include "psk/jobs/checkpoint_io.h"
#include "psk/jobs/report_io.h"
#include "psk/table/csv.h"
#include "psk/table/schema.h"

namespace psk {
namespace {

// Advisory exclusive lock on the job directory, held for the whole
// Run/Resume. Closing the fd (destructor) releases the flock, and the
// kernel releases it automatically when the holder dies — a crashed
// runner can never wedge its directory.
class JobDirLock {
 public:
  JobDirLock() = default;
  JobDirLock(JobDirLock&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  JobDirLock& operator=(JobDirLock&& other) noexcept {
    if (this != &other) {
      Release();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  JobDirLock(const JobDirLock&) = delete;
  JobDirLock& operator=(const JobDirLock&) = delete;
  ~JobDirLock() { Release(); }

  static Result<JobDirLock> Acquire(const std::string& path,
                                    std::chrono::milliseconds lock_wait) {
    int fd = PSK_FAIL_POINT_SYSCALL("jobs.lock.open")
                 ? -1
                 : open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0) {
      if (errno == ENOENT) {
        // The job directory itself is missing — surface the same code a
        // missing journal would, so Resume callers keep one retry path.
        return Status::NotFound("no such job directory for lock file '" +
                                path + "'");
      }
      return Status::IOError("cannot open lock file '" + path +
                             "': " + std::strerror(errno));
    }
    // Non-blocking probe, retried on the shared backoff curve until the
    // wait budget is spent. Never LOCK_EX without LOCK_NB: an uninterrupted
    // blocking flock could wedge behind a hung incumbent forever, and the
    // whole point of the wait budget is a bounded verdict.
    std::chrono::milliseconds waited{0};
    int attempt = 0;
    for (;;) {
      if (!PSK_FAIL_POINT_SYSCALL("jobs.lock.flock") &&
          flock(fd, LOCK_EX | LOCK_NB) == 0) {
        JobDirLock lock;
        lock.fd_ = fd;
        return lock;
      }
      if (waited >= lock_wait) break;
      std::chrono::milliseconds delay = RetryBackoffDelay(
          attempt++, std::chrono::milliseconds(1),
          std::chrono::milliseconds(50));
      if (waited + delay > lock_wait) delay = lock_wait - waited;
      std::this_thread::sleep_for(delay);
      waited += delay;
    }
    close(fd);
    // Retryable by contract: the incumbent finishes (or dies, releasing
    // the flock), so a later attempt can succeed — unlike a spec mismatch,
    // which is a real precondition failure.
    return Status::Unavailable(
        "another JobRunner holds the lock on '" + path + "' (waited " +
        std::to_string(waited.count()) +
        "ms); concurrent runners on one job directory are refused so they "
        "cannot interleave journal writes");
  }

 private:
  void Release() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  int fd_ = -1;
};

std::string JoinAlgorithmNames(
    const std::vector<AnonymizationAlgorithm>& chain) {
  std::string out;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i > 0) out += ",";
    out += std::string(AlgorithmName(chain[i]));
  }
  return out;
}

Result<uint64_t> ParseJournalUint(std::string_view value, size_t line_no) {
  // Full-range unsigned parse: fields like seed are uint64 and must round-
  // trip even at values >= 2^63, or the journal becomes unresumable.
  Result<uint64_t> parsed = ParseUint64(value);
  if (!parsed.ok()) {
    return Status::InvalidArgument("journal line " + std::to_string(line_no) +
                                   ": " + parsed.status().message());
  }
  return parsed;
}

// Digest of one hierarchy's observed generalization mapping: every
// distinct ground value of its input column, generalized at every level.
// Checkpointed node verdicts are functions of these mappings, so two
// hierarchies that agree on attribute name and depth but group values
// differently must fingerprint apart — name and num_levels alone would
// let Resume() replay verdicts computed under a different grouping.
uint64_t HierarchyMappingDigest(const Table& input,
                                const AttributeHierarchy& hierarchy) {
  Result<size_t> col = input.schema().IndexOf(hierarchy.attribute_name());
  if (!col.ok()) return Fnv1aHash("no-such-column");
  // Keyed by rendering so emission order is deterministic across runs.
  // Each distinct value is rendered once, walking codes in row order, so
  // a rendering keeps the first Value that produced it.
  const ColumnDictionary& dictionary = input.dictionary(*col);
  std::vector<bool> seen(dictionary.size());
  std::map<std::string, const Value*> distinct;
  for (uint32_t code : input.column_codes(*col)) {
    if (seen[code]) continue;
    seen[code] = true;
    distinct.emplace(dictionary[code].ToString(), &dictionary[code]);
  }
  std::string canonical;
  for (const auto& [rendered, value] : distinct) {
    canonical += rendered;
    for (int level = 1; level < hierarchy.num_levels(); ++level) {
      Result<Value> generalized = hierarchy.Generalize(*value, level);
      canonical += "|";
      canonical += generalized.ok() ? generalized->ToString()
                                    : generalized.status().message();
    }
    canonical += ";";
  }
  return Fnv1aHash(canonical);
}

}  // namespace

uint64_t JobSpecHash(const JobSpec& spec) {
  // Canonical rendering of every requirement that shapes the search. The
  // wall-clock deadline is deliberately absent (elapsed time cannot survive
  // a crash); the node/row caps are present because a budgeted search
  // visits different nodes under different caps.
  std::string canonical = "psk_job_v1;";
  canonical += "k=" + std::to_string(spec.k) + ";";
  canonical += "p=" + std::to_string(spec.p) + ";";
  canonical += "ts=" + std::to_string(spec.max_suppression) + ";";
  canonical += "alg=" + std::string(AlgorithmName(spec.algorithm)) + ";";
  canonical += "chain=" + JoinAlgorithmNames(spec.fallback_chain) + ";";
  canonical += "guard=" + std::string(spec.guard_enabled ? "1" : "0") + ";";
  canonical += "seed=" + std::to_string(spec.seed) + ";";
  if (spec.budget.max_nodes_expanded.has_value()) {
    canonical +=
        "max_nodes=" + std::to_string(*spec.budget.max_nodes_expanded) + ";";
  }
  if (spec.budget.max_rows_materialized.has_value()) {
    canonical += "max_rows=" +
                 std::to_string(*spec.budget.max_rows_materialized) + ";";
  }
  for (const Attribute& attr : spec.input.schema().attributes()) {
    canonical += "attr=" + attr.name + ":" +
                 std::string(ValueTypeToString(attr.type)) + ":" +
                 std::string(AttributeRoleToString(attr.role)) + ";";
  }
  for (const auto& hierarchy : spec.hierarchies) {
    if (hierarchy == nullptr) continue;
    canonical += "hier=" + hierarchy->attribute_name() + ":" +
                 std::to_string(hierarchy->num_levels()) + ":" +
                 HashToHex(HierarchyMappingDigest(spec.input, *hierarchy)) +
                 ";";
  }
  return Fnv1aHash(canonical);
}

Status MaterializeJobInput(JobSpec* spec,
                           const std::shared_ptr<MemoryBudget>& memory) {
  if (!spec->input_source) return Status::OK();
  if (spec->input.num_rows() != 0) {
    return Status::InvalidArgument(
        "spec carries both an input_source and a non-empty input table");
  }
  constexpr size_t kDefaultChunkRows = 64 * 1024;
  size_t chunk_rows =
      spec->ingest_chunk_rows != 0 ? spec->ingest_chunk_rows
                                   : kDefaultChunkRows;
  MemoryReservation growth;
  IngestChunk chunk;
  for (;;) {
    PSK_ASSIGN_OR_RETURN(size_t rows,
                         spec->input_source(chunk_rows, &chunk));
    if (rows == 0) break;
    PSK_RETURN_IF_ERROR(spec->input.AppendChunk(&chunk));
    if (memory != nullptr) {
      PSK_RETURN_IF_ERROR(
          growth.bytes() == 0
              ? growth.Reserve(memory, spec->input.ApproxBytes())
              : growth.Resize(spec->input.ApproxBytes()));
    }
  }
  spec->input_source = nullptr;
  return Status::OK();
}

uint64_t TableDigest(const Table& table) {
  return Fnv1aHash(WriteCsvString(table));
}

std::string SerializeJobJournal(const JobJournal& journal) {
  std::string out = "psk_job_version = 1\n";
  out += "state = " + std::string(journal.committed ? "committed" : "running") +
         "\n";
  out += "spec_hash = " + HashToHex(journal.spec_hash) + "\n";
  out += "input_digest = " + HashToHex(journal.input_digest) + "\n";
  out += "input_rows = " + std::to_string(journal.input_rows) + "\n";
  out += "seed = " + std::to_string(journal.seed) + "\n";
  out += "k = " + std::to_string(journal.k) + "\n";
  out += "p = " + std::to_string(journal.p) + "\n";
  out += "ts = " + std::to_string(journal.max_suppression) + "\n";
  out += "algorithm = " + journal.algorithm + "\n";
  if (!journal.fallback.empty()) {
    out += "fallback = " + journal.fallback + "\n";
  }
  if (journal.max_nodes_expanded.has_value()) {
    out += "max_nodes = " + std::to_string(*journal.max_nodes_expanded) + "\n";
  }
  if (journal.max_rows_materialized.has_value()) {
    out += "max_rows = " + std::to_string(*journal.max_rows_materialized) +
           "\n";
  }
  if (journal.deadline_ms.has_value()) {
    out += "deadline_ms = " + std::to_string(*journal.deadline_ms) + "\n";
  }
  return out;
}

Result<JobJournal> ParseJobJournal(std::string_view text) {
  JobJournal journal;
  bool version_seen = false;
  bool state_seen = false;
  bool spec_hash_seen = false;
  bool digest_seen = false;
  size_t line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("journal line " +
                                     std::to_string(line_no) +
                                     ": expected 'key = value'");
    }
    std::string_view key = Trim(line.substr(0, eq));
    std::string_view value = Trim(line.substr(eq + 1));
    if (key == "psk_job_version") {
      if (value != "1") {
        return Status::InvalidArgument("unsupported journal version: " +
                                       std::string(value));
      }
      version_seen = true;
    } else if (key == "state") {
      if (value != "running" && value != "committed") {
        return Status::InvalidArgument("journal line " +
                                       std::to_string(line_no) +
                                       ": unknown state '" +
                                       std::string(value) + "'");
      }
      journal.committed = value == "committed";
      state_seen = true;
    } else if (key == "spec_hash") {
      PSK_ASSIGN_OR_RETURN(journal.spec_hash, ParseHexHash(value));
      spec_hash_seen = true;
    } else if (key == "input_digest") {
      PSK_ASSIGN_OR_RETURN(journal.input_digest, ParseHexHash(value));
      digest_seen = true;
    } else if (key == "input_rows") {
      PSK_ASSIGN_OR_RETURN(journal.input_rows,
                           ParseJournalUint(value, line_no));
    } else if (key == "seed") {
      PSK_ASSIGN_OR_RETURN(journal.seed, ParseJournalUint(value, line_no));
    } else if (key == "k") {
      PSK_ASSIGN_OR_RETURN(uint64_t k, ParseJournalUint(value, line_no));
      journal.k = static_cast<size_t>(k);
    } else if (key == "p") {
      PSK_ASSIGN_OR_RETURN(uint64_t p, ParseJournalUint(value, line_no));
      journal.p = static_cast<size_t>(p);
    } else if (key == "ts") {
      PSK_ASSIGN_OR_RETURN(uint64_t ts, ParseJournalUint(value, line_no));
      journal.max_suppression = static_cast<size_t>(ts);
    } else if (key == "algorithm") {
      journal.algorithm = std::string(value);
    } else if (key == "fallback") {
      journal.fallback = std::string(value);
    } else if (key == "max_nodes") {
      PSK_ASSIGN_OR_RETURN(uint64_t nodes, ParseJournalUint(value, line_no));
      journal.max_nodes_expanded = nodes;
    } else if (key == "max_rows") {
      PSK_ASSIGN_OR_RETURN(uint64_t rows, ParseJournalUint(value, line_no));
      journal.max_rows_materialized = rows;
    } else if (key == "deadline_ms") {
      PSK_ASSIGN_OR_RETURN(uint64_t ms, ParseJournalUint(value, line_no));
      journal.deadline_ms = ms;
    } else {
      return Status::InvalidArgument("journal line " +
                                     std::to_string(line_no) +
                                     ": unknown key '" + std::string(key) +
                                     "'");
    }
  }
  if (!version_seen || !state_seen || !spec_hash_seen || !digest_seen) {
    return Status::InvalidArgument(
        "journal is missing a required header "
        "(version/state/spec_hash/input_digest)");
  }
  return journal;
}

Status JobRunner::WriteJournal(const JobSpec& spec, uint64_t spec_hash,
                               uint64_t input_digest, bool committed) {
  JobJournal journal;
  journal.committed = committed;
  journal.spec_hash = spec_hash;
  journal.input_digest = input_digest;
  journal.input_rows = spec.input.num_rows();
  journal.seed = spec.seed;
  journal.k = spec.k;
  journal.p = spec.p;
  journal.max_suppression = spec.max_suppression;
  journal.algorithm = std::string(AlgorithmName(spec.algorithm));
  journal.fallback = JoinAlgorithmNames(spec.fallback_chain);
  journal.max_nodes_expanded = spec.budget.max_nodes_expanded;
  journal.max_rows_materialized = spec.budget.max_rows_materialized;
  if (spec.budget.deadline.has_value()) {
    journal.deadline_ms = static_cast<uint64_t>(spec.budget.deadline->count());
  }
  // Distinct sites for the two journal states: crashing before the
  // write-ahead record lands and crashing while flipping it to committed
  // exercise different halves of the recovery protocol.
  PSK_FAIL_POINT(committed ? "jobs.journal.commit" : "jobs.journal.begin");
  return AtomicWriteFile(journal_path(), SerializeJobJournal(journal));
}

Result<JobOutcome> JobRunner::Run(const JobSpec& spec) {
  PSK_RETURN_IF_ERROR(EnsureDirectory(job_dir_));
  // Exclusive ownership of the directory for the whole run: a second
  // runner racing on the same job_dir waits briefly, then refuses, instead
  // of interleaving journal/checkpoint writes with ours.
  PSK_ASSIGN_OR_RETURN(JobDirLock lock,
                       JobDirLock::Acquire(lock_path(), lock_wait_));
  // Reap staging files a crashed predecessor leaked (best-effort: a reap
  // failure costs disk space, never correctness). Live writers hold an
  // flock on their temp, so a concurrent job in the same directory is
  // never disturbed.
  (void)CleanStaleStaging(job_dir_);
  // Retire any previous run's checkpoint/progress *before* journaling the
  // new spec: a crash after the journal lands but before the first
  // checkpoint flush must not let Resume() pair the fresh journal with a
  // stale snapshot from an earlier occupant of this directory.
  PSK_RETURN_IF_ERROR(RemoveFileDurably(checkpoint_path()));
  PSK_RETURN_IF_ERROR(RemoveFileDurably(progress_path()));
  // Write-ahead: the journal must be durable before any search work, so a
  // crash at any later point leaves enough on disk to Resume().
  const uint64_t spec_hash = JobSpecHash(spec);
  const uint64_t input_digest = TableDigest(spec.input);
  PSK_RETURN_IF_ERROR(
      WriteJournal(spec, spec_hash, input_digest, /*committed=*/false));
  return Execute(spec, /*restore=*/nullptr, spec_hash, input_digest);
}

Result<JobOutcome> JobRunner::Resume(const JobSpec& spec) {
  // Take the directory lock before touching any artifact. A missing
  // directory surfaces as kNotFound — the same verdict a missing journal
  // would earn — so callers keep a single "fall back to Run()" path.
  PSK_ASSIGN_OR_RETURN(JobDirLock lock,
                       JobDirLock::Acquire(lock_path(), lock_wait_));
  // Same stale-staging reap as Run(): the crash that made this Resume
  // necessary is exactly when temps get orphaned.
  (void)CleanStaleStaging(job_dir_);
  PSK_FAIL_POINT("jobs.journal.read");
  Result<std::string> journal_text = ReadFileToString(journal_path());
  if (!journal_text.ok()) return journal_text.status();
  PSK_ASSIGN_OR_RETURN(JobJournal journal, ParseJobJournal(*journal_text));

  // The journal must describe *this* spec and *this* input: resuming a
  // different configuration from a stale checkpoint would silently produce
  // a release nobody asked for.
  // Input first: the spec hash also covers the hierarchies' observed
  // value mappings, so a changed input usually perturbs both — report the
  // root cause, not the side effect.
  uint64_t digest = TableDigest(spec.input);
  if (journal.input_digest != digest) {
    return Status::FailedPrecondition(
        "journal was written for different input data (digest " +
        HashToHex(journal.input_digest) + ", this input is " +
        HashToHex(digest) + ")");
  }
  uint64_t spec_hash = JobSpecHash(spec);
  if (journal.spec_hash != spec_hash) {
    return Status::FailedPrecondition(
        "journal was written for a different job spec (hash " +
        HashToHex(journal.spec_hash) + ", this spec is " +
        HashToHex(spec_hash) + ")");
  }

  if (journal.committed && FileExists(release_path())) {
    return VerifyCommitted(spec);
  }

  // Interrupted mid-run: reload the last durable checkpoint, if any, and
  // replay. The engines enumerate deterministically and fast-forward
  // through checkpointed verdicts, so the resumed run's release and stats are
  // byte-identical to an uninterrupted run's.
  SearchSnapshot snapshot;
  bool have_checkpoint = false;
  PSK_FAIL_POINT("jobs.checkpoint.read");
  Result<std::string> checkpoint_text = ReadFileToString(checkpoint_path());
  if (checkpoint_text.ok()) {
    PSK_ASSIGN_OR_RETURN(snapshot,
                         ParseSnapshot(*checkpoint_text, spec_hash, digest));
    have_checkpoint = !snapshot.verdicts.empty() || !snapshot.facts.empty();
  } else if (checkpoint_text.status().code() != StatusCode::kNotFound) {
    return checkpoint_text.status();
  }
  PSK_ASSIGN_OR_RETURN(
      JobOutcome outcome,
      Execute(spec, have_checkpoint ? &snapshot : nullptr, spec_hash,
              digest));
  outcome.resumed_from_checkpoint = have_checkpoint;
  return outcome;
}

Anonymizer MakeJobAnonymizer(const JobSpec& spec) {
  Anonymizer anonymizer(spec.input);
  for (const auto& hierarchy : spec.hierarchies) {
    anonymizer.AddHierarchy(hierarchy);
  }
  anonymizer.set_k(spec.k)
      .set_p(spec.p)
      .set_max_suppression(spec.max_suppression)
      .set_algorithm(spec.algorithm)
      .set_fallback_chain(spec.fallback_chain)
      .set_budget(spec.budget)
      .set_threads(spec.threads)
      .set_guard_enabled(spec.guard_enabled);
  return anonymizer;
}

Result<JobOutcome> JobRunner::Execute(const JobSpec& spec,
                                      const SearchSnapshot* restore,
                                      uint64_t spec_hash,
                                      uint64_t input_digest) {
  Anonymizer anonymizer = MakeJobAnonymizer(spec);
  if (restore != nullptr) {
    anonymizer.set_restore_snapshot(restore);
  }
  // In-memory tracing (no anonymizer sink): the job appends the commit
  // steps as spans after Run and exports the finished trace itself.
  if (!spec.trace_path.empty()) {
    anonymizer.set_trace_enabled(true);
  }
  // Checkpoints are best-effort: a failed write costs resume progress,
  // never correctness, so its status is deliberately dropped. The sink
  // sees the same snapshots at every thread count (see JobSpec::threads).
  std::string checkpoint_file = checkpoint_path();
  anonymizer.set_checkpoint_sink(
      [checkpoint_file, spec_hash,
       input_digest](const SearchSnapshot& snapshot) {
        // The site sits above AtomicWriteFile so torture runs can also
        // crash *between* snapshot serialization and the write syscalls.
        if (FailPointsActive() &&
            !FailPointCheck("jobs.checkpoint.write").ok()) {
          return;
        }
        (void)AtomicWriteFile(
            checkpoint_file,
            SerializeSnapshot(snapshot, spec_hash, input_digest));
      },
      spec.checkpoint_interval);
  std::string progress_file = progress_path();
  anonymizer.set_progress_heartbeat([progress_file](size_t done) {
    if (FailPointsActive() && !FailPointCheck("jobs.progress.write").ok()) {
      return;
    }
    (void)AtomicWriteFile(
        progress_file,
        "boundaries_completed = " + std::to_string(done) + "\n");
  });

  // Transient-I/O retries spent by this run (EINTR/EAGAIN loops inside
  // durable_file) are exported as a non-structural timing: a retry count
  // that varies with scheduling must not perturb the structural trace
  // signature the replay validator compares.
  uint64_t retries_before = DurableFileTransientRetries();

  PSK_ASSIGN_OR_RETURN(AnonymizationReport report, anonymizer.Run());
  RunTrace* trace = anonymizer.last_trace().get();

  // Commit protocol, in dependency order: release bytes, then the report
  // describing them, then the journal flips to committed. Each step is
  // individually atomic+durable; a crash between any two leaves
  // state=running, and the deterministic re-run overwrites both artifacts
  // with identical bytes.
  {
    TraceSpan span(trace, "commit_release");
    PSK_FAIL_POINT("jobs.release.write");
    PSK_RETURN_IF_ERROR(WriteCsvFile(report.masked, release_path()));
    span.Counter("rows", report.masked.num_rows());
  }
  {
    TraceSpan span(trace, "commit_report");
    PSK_FAIL_POINT("jobs.report.write");
    PSK_RETURN_IF_ERROR(AtomicWriteFile(report_path(), ReportToJson(report)));
  }
  {
    TraceSpan span(trace, "commit_journal");
    PSK_RETURN_IF_ERROR(
        WriteJournal(spec, spec_hash, input_digest, /*committed=*/true));
  }
  if (trace != nullptr) {
    trace->Timing("io_retries",
                  DurableFileTransientRetries() - retries_before);
    // Best-effort like the checkpoints: the release is already durable, so
    // a failed trace export must not fail the committed job.
    (void)trace->WriteJsonFile(spec.trace_path);
  }

  JobOutcome outcome;
  outcome.report = std::move(report);
  outcome.release_path = release_path();
  outcome.report_path = report_path();
  return outcome;
}

Result<JobOutcome> JobRunner::VerifyCommitted(const JobSpec& spec) {
  // Reconstruct the release's schema from the input's: every engine drops
  // identifier attributes, and masking renders key attributes as labels
  // (intervals, taxonomy nodes), so all surviving attributes are re-read
  // as strings — equality of rendered values is exactly the grouping the
  // guard needs.
  std::vector<Attribute> attributes;
  for (const Attribute& attr : spec.input.schema().attributes()) {
    if (attr.role == AttributeRole::kIdentifier) continue;
    Attribute released = attr;
    released.type = ValueType::kString;
    attributes.push_back(std::move(released));
  }
  PSK_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attributes)));
  PSK_ASSIGN_OR_RETURN(Table masked, ReadCsvFile(release_path(), schema));

  JobOutcome outcome;
  if (spec.guard_enabled) {
    // Re-verify the committed artifact itself — the file's own bytes, not
    // the in-memory table the original run released — so a corrupted or
    // tampered release.csv is refused instead of handed back.
    PSK_RETURN_IF_ERROR(EnforceRelease(
        masked, spec.input.num_rows(),
        DefaultGuardPolicy(spec.k, spec.p, spec.max_suppression),
        &outcome.report.guard));
  }

  PSK_ASSIGN_OR_RETURN(std::string report_json,
                       ReadFileToString(report_path()));
  PSK_ASSIGN_OR_RETURN(ReportProvenance provenance,
                       ParseReportProvenance(report_json));
  outcome.report.masked = std::move(masked);
  outcome.report.algorithm_used = provenance.algorithm_used;
  outcome.report.fallback_stage = provenance.fallback_stage;
  outcome.report.partial = provenance.partial;
  outcome.report.stats.partial = provenance.partial;
  outcome.report.stats.stop_reason = provenance.stop_reason;
  outcome.report.suppressed = provenance.suppressed;
  outcome.report.achieved_k = provenance.achieved_k;
  outcome.report.achieved_p = provenance.achieved_p;
  outcome.release_path = release_path();
  outcome.report_path = report_path();
  outcome.already_committed = true;
  return outcome;
}

}  // namespace psk
