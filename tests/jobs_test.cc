// Crash-safe job layer: journal/checkpoint round-trips, atomic durable
// writes, resume preconditions, and the committed fast path that
// re-verifies the released artifact instead of recomputing it.

#include "psk/jobs/job.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "psk/common/durable_file.h"
#include "psk/datagen/adult.h"
#include "psk/jobs/checkpoint_io.h"
#include "psk/jobs/report_io.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

JobSpec MakeSpec(size_t rows = 200, uint64_t seed = 1) {
  JobSpec spec;
  spec.input = UnwrapOk(AdultGenerate(rows, seed));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(spec.input.schema()));
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    spec.hierarchies.push_back(hierarchies.hierarchy_ptr(i));
  }
  spec.k = 3;
  spec.p = 2;
  spec.max_suppression = 6;
  return spec;
}

// ---------------------------------------------------------------------------
// Durable file primitives.

TEST(DurableFileTest, AtomicWriteLeavesNoTempFile) {
  std::string path = ::testing::TempDir() + "psk_durable_atomic.txt";
  PSK_ASSERT_OK(AtomicWriteFile(path, "first"));
  EXPECT_EQ(UnwrapOk(ReadFileToString(path)), "first");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  // Overwrite is equally atomic.
  PSK_ASSERT_OK(AtomicWriteFile(path, "second"));
  EXPECT_EQ(UnwrapOk(ReadFileToString(path)), "second");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(DurableFileTest, AtomicWriteDoesNotShareAFixedTempPath) {
  // Each call stages in its own mkstemp file; a bystander file at the old
  // fixed "path.tmp" location must survive untouched (the previous scheme
  // truncated it and renamed it over the target).
  std::string path = ::testing::TempDir() + "psk_durable_unique.txt";
  std::string foreign = path + ".tmp";
  PSK_ASSERT_OK(AtomicWriteFile(foreign, "foreign"));
  PSK_ASSERT_OK(AtomicWriteFile(path, "payload"));
  EXPECT_EQ(UnwrapOk(ReadFileToString(path)), "payload");
  EXPECT_EQ(UnwrapOk(ReadFileToString(foreign)), "foreign");
}

TEST(DurableFileTest, RemoveFileDurablyIsIdempotent) {
  std::string path = ::testing::TempDir() + "psk_durable_remove.txt";
  PSK_ASSERT_OK(AtomicWriteFile(path, "x"));
  PSK_ASSERT_OK(RemoveFileDurably(path));
  EXPECT_FALSE(FileExists(path));
  PSK_ASSERT_OK(RemoveFileDurably(path));  // missing file is OK
}

TEST(DurableFileTest, ReadMissingFileIsNotFound) {
  auto result = ReadFileToString(::testing::TempDir() + "psk_no_such_file");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DurableFileTest, EnsureDirectoryCreatesAndTolerallyExists) {
  std::string dir = ::testing::TempDir() + "psk_jobs_ensure_dir";
  PSK_ASSERT_OK(EnsureDirectory(dir));
  PSK_ASSERT_OK(EnsureDirectory(dir));  // idempotent
  PSK_ASSERT_OK(AtomicWriteFile(dir + "/probe", "x"));
}

// ---------------------------------------------------------------------------
// Hash helpers.

TEST(CheckpointIoTest, HexHashRoundTrip) {
  for (uint64_t hash : {0ULL, 1ULL, 0xdeadbeefcafef00dULL, ~0ULL}) {
    EXPECT_EQ(UnwrapOk(ParseHexHash(HashToHex(hash))), hash);
  }
  EXPECT_FALSE(ParseHexHash("short").ok());
  EXPECT_FALSE(ParseHexHash("zzzzzzzzzzzzzzzz").ok());
}

TEST(CheckpointIoTest, Fnv1aDistinguishesInputs) {
  EXPECT_NE(Fnv1aHash("k=2;"), Fnv1aHash("k=3;"));
  EXPECT_EQ(Fnv1aHash("same"), Fnv1aHash("same"));
}

// ---------------------------------------------------------------------------
// Checkpoint (SearchSnapshot) serialization.

SearchSnapshot MakeSnapshot() {
  SearchSnapshot snapshot;
  NodeEvaluation satisfied;
  satisfied.satisfied = true;
  satisfied.stage = CheckStage::kPassed;
  satisfied.suppressed = 3;
  satisfied.num_groups = 17;
  snapshot.verdicts["1,0,2"] = satisfied;
  NodeEvaluation rejected;
  rejected.satisfied = false;
  rejected.stage = CheckStage::kKAnonymity;
  rejected.suppressed = 99;
  rejected.num_groups = 60;
  snapshot.verdicts["0,0,0"] = rejected;
  snapshot.facts["s:0:1|2,0"] = true;
  snapshot.facts["s:0:1|0,0"] = false;
  return snapshot;
}

TEST(CheckpointIoTest, SnapshotRoundTrip) {
  SearchSnapshot snapshot = MakeSnapshot();
  std::string text =
      SerializeSnapshot(snapshot, /*spec_hash=*/42, /*input_digest=*/7);
  SearchSnapshot parsed =
      UnwrapOk(ParseSnapshot(text, /*spec_hash=*/42, /*input_digest=*/7));
  ASSERT_EQ(parsed.verdicts.size(), 2u);
  ASSERT_EQ(parsed.facts.size(), 2u);
  const NodeEvaluation& eval = parsed.verdicts.at("1,0,2");
  EXPECT_TRUE(eval.satisfied);
  EXPECT_EQ(eval.stage, CheckStage::kPassed);
  EXPECT_EQ(eval.suppressed, 3u);
  EXPECT_EQ(eval.num_groups, 17u);
  EXPECT_FALSE(parsed.verdicts.at("0,0,0").satisfied);
  EXPECT_TRUE(parsed.facts.at("s:0:1|2,0"));
  EXPECT_FALSE(parsed.facts.at("s:0:1|0,0"));
}

TEST(CheckpointIoTest, SnapshotSerializationIsDeterministic) {
  SearchSnapshot snapshot = MakeSnapshot();
  EXPECT_EQ(SerializeSnapshot(snapshot, 7, 9),
            SerializeSnapshot(snapshot, 7, 9));
}

TEST(CheckpointIoTest, SnapshotRejectsWrongSpecHash) {
  std::string text =
      SerializeSnapshot(MakeSnapshot(), /*spec_hash=*/42, /*input_digest=*/7);
  auto parsed = ParseSnapshot(text, /*spec_hash=*/43, /*input_digest=*/7);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointIoTest, SnapshotRejectsWrongInputDigest) {
  // A checkpoint is bound to the microdata its verdicts were computed
  // over; the same spec over different input must refuse the snapshot.
  std::string text =
      SerializeSnapshot(MakeSnapshot(), /*spec_hash=*/42, /*input_digest=*/7);
  auto parsed = ParseSnapshot(text, /*spec_hash=*/42, /*input_digest=*/8);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(parsed.status().message().find("different input"),
            std::string::npos);
}

TEST(CheckpointIoTest, SnapshotRejectsMalformedInput) {
  EXPECT_EQ(ParseSnapshot("", 1, 1).status().code(),
            StatusCode::kInvalidArgument);
  std::string header = "psk_checkpoint_version = 1\nspec_hash = " +
                       HashToHex(1) + "\ninput_digest = " + HashToHex(1) +
                       "\n";
  EXPECT_EQ(
      ParseSnapshot(header + "verdict 1,0 = 1 0\n", 1, 1).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSnapshot(header + "fact f = 2\n", 1, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSnapshot(header + "mystery = 1\n", 1, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseSnapshot("psk_checkpoint_version = 9\n", 1, 1).status().code(),
      StatusCode::kInvalidArgument);
  // A checkpoint that predates input binding (no input_digest header) is
  // refused rather than trusted.
  EXPECT_EQ(ParseSnapshot("psk_checkpoint_version = 1\nspec_hash = " +
                              HashToHex(1) + "\n",
                          1, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A checkpoint is replayed as if each verdict had been evaluated, so a
// verdict no evaluation could record, or a key the file gives twice, is
// refused rather than trusted.
TEST(CheckpointIoTest, SnapshotRejectsImpossibleVerdicts) {
  std::string header = "psk_checkpoint_version = 1\nspec_hash = " +
                       HashToHex(1) + "\ninput_digest = " + HashToHex(1) +
                       "\n";
  auto code = [&](const std::string& body) {
    return ParseSnapshot(header + body, 1, 1).status().code();
  };
  // Satisfied, yet rejected at the k-anonymity gate (and the converse).
  EXPECT_EQ(code("verdict 1,0 = 1 3 0 5\n"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("verdict 1,0 = 0 0 0 5\n"), StatusCode::kInvalidArgument);
  // Evaluate never records Condition 1: it is decided once per search.
  EXPECT_EQ(code("verdict 1,0 = 0 1 0 5\n"), StatusCode::kInvalidArgument);
  // A key given twice, with the same or a different payload.
  EXPECT_EQ(code("verdict 1,0 = 1 0 0 5\nverdict 1,0 = 0 3 7 5\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("verdict 1,0 = 1 0 0 5\nverdict 1,0 = 1 0 0 5\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("fact s:0|1 = 1\nfact s:0|1 = 0\n"),
            StatusCode::kInvalidArgument);
  // Every stage an evaluation does record still parses.
  SearchSnapshot parsed = UnwrapOk(ParseSnapshot(
      header + "verdict 0,0 = 0 3 9 2\nverdict 0,1 = 0 2 0 9\n" +
          "verdict 1,0 = 0 4 0 3\nverdict 1,1 = 1 0 0 2\n" +
          "fact s:0|1 = 1\nfact s:1|1 = 0\n",
      1, 1));
  EXPECT_EQ(parsed.verdicts.size(), 4u);
  EXPECT_EQ(parsed.facts.size(), 2u);
}

// ---------------------------------------------------------------------------
// Journal serialization.

TEST(JobJournalTest, RoundTripAllFields) {
  JobJournal journal;
  journal.committed = true;
  journal.spec_hash = 0x1122334455667788ULL;
  journal.input_digest = 0x99aabbccddeeff00ULL;
  journal.input_rows = 600;
  journal.seed = 7;
  journal.k = 4;
  journal.p = 3;
  journal.max_suppression = 12;
  journal.algorithm = "ola";
  journal.fallback = "cluster,fullsuppression";
  journal.max_nodes_expanded = 5000;
  journal.max_rows_materialized = 123456;
  journal.deadline_ms = 2500;
  JobJournal parsed = UnwrapOk(ParseJobJournal(SerializeJobJournal(journal)));
  EXPECT_TRUE(parsed.committed);
  EXPECT_EQ(parsed.spec_hash, journal.spec_hash);
  EXPECT_EQ(parsed.input_digest, journal.input_digest);
  EXPECT_EQ(parsed.input_rows, 600u);
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_EQ(parsed.k, 4u);
  EXPECT_EQ(parsed.p, 3u);
  EXPECT_EQ(parsed.max_suppression, 12u);
  EXPECT_EQ(parsed.algorithm, "ola");
  EXPECT_EQ(parsed.fallback, "cluster,fullsuppression");
  EXPECT_EQ(parsed.max_nodes_expanded, 5000u);
  EXPECT_EQ(parsed.max_rows_materialized, 123456u);
  EXPECT_EQ(parsed.deadline_ms, 2500u);
}

TEST(JobJournalTest, RoundTripFullRangeUint64Seed) {
  // seed is uint64; a value >= 2^63 must parse back or the job becomes
  // permanently unresumable.
  JobJournal journal;
  journal.spec_hash = 1;
  journal.input_digest = 2;
  journal.algorithm = "samarati";
  journal.seed = 0xFFFFFFFFFFFFFFFFULL;
  journal.max_nodes_expanded = 0x8000000000000001ULL;
  JobJournal parsed = UnwrapOk(ParseJobJournal(SerializeJobJournal(journal)));
  EXPECT_EQ(parsed.seed, 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(parsed.max_nodes_expanded, 0x8000000000000001ULL);
}

TEST(JobJournalTest, RoundTripMinimalFields) {
  JobJournal journal;
  journal.spec_hash = 1;
  journal.input_digest = 2;
  journal.algorithm = "samarati";
  JobJournal parsed = UnwrapOk(ParseJobJournal(SerializeJobJournal(journal)));
  EXPECT_FALSE(parsed.committed);
  EXPECT_TRUE(parsed.fallback.empty());
  EXPECT_FALSE(parsed.max_nodes_expanded.has_value());
  EXPECT_FALSE(parsed.max_rows_materialized.has_value());
  EXPECT_FALSE(parsed.deadline_ms.has_value());
}

TEST(JobJournalTest, RejectsMalformedJournals) {
  EXPECT_EQ(ParseJobJournal("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseJobJournal("psk_job_version = 2\n").status().code(),
            StatusCode::kInvalidArgument);
  JobJournal journal;
  journal.spec_hash = 1;
  journal.input_digest = 2;
  std::string good = SerializeJobJournal(journal);
  EXPECT_EQ(ParseJobJournal(good + "mystery = 1\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseJobJournal(good + "state = half-done\n").status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Spec hashing.

TEST(JobSpecHashTest, SensitiveToRequirementsNotDeadline) {
  JobSpec spec = MakeSpec();
  uint64_t base = JobSpecHash(spec);
  EXPECT_EQ(JobSpecHash(spec), base);

  JobSpec different_k = MakeSpec();
  different_k.k = spec.k + 1;
  EXPECT_NE(JobSpecHash(different_k), base);

  JobSpec different_algorithm = MakeSpec();
  different_algorithm.algorithm = AnonymizationAlgorithm::kOla;
  EXPECT_NE(JobSpecHash(different_algorithm), base);

  JobSpec with_chain = MakeSpec();
  with_chain.fallback_chain = {AnonymizationAlgorithm::kFullSuppression};
  EXPECT_NE(JobSpecHash(with_chain), base);

  JobSpec with_caps = MakeSpec();
  with_caps.budget.max_nodes_expanded = 1000;
  EXPECT_NE(JobSpecHash(with_caps), base);

  // The wall-clock deadline cannot survive a crash, so it must not pin the
  // spec identity: a resumed run re-arms the full deadline.
  JobSpec with_deadline = MakeSpec();
  with_deadline.budget.deadline = std::chrono::milliseconds(1000);
  EXPECT_EQ(JobSpecHash(with_deadline), base);
}

TEST(JobSpecHashTest, SensitiveToHierarchyContents) {
  // Same attribute name, same number of levels, different groupings: the
  // cached verdicts differ, so the fingerprints must too.
  JobSpec spec = MakeSpec();
  uint64_t base = JobSpecHash(spec);

  JobSpec regrouped = MakeSpec();
  auto coarser_age = UnwrapOk(IntervalHierarchy::Create(
      "Age", {IntervalHierarchy::Level::Bands(20),
              IntervalHierarchy::Level::Cuts({40}),
              IntervalHierarchy::Level::Top()}));
  for (auto& hierarchy : regrouped.hierarchies) {
    if (hierarchy->attribute_name() == "Age") hierarchy = coarser_age;
  }
  ASSERT_EQ(regrouped.hierarchies.size(), spec.hierarchies.size());
  EXPECT_NE(JobSpecHash(regrouped), base);
}

TEST(JobSpecHashTest, TableDigestTracksContents) {
  Table a = UnwrapOk(AdultGenerate(100, 1));
  Table b = UnwrapOk(AdultGenerate(100, 2));
  EXPECT_EQ(TableDigest(a), TableDigest(UnwrapOk(AdultGenerate(100, 1))));
  EXPECT_NE(TableDigest(a), TableDigest(b));
}

// Journals and checkpoints carry JobSpecHash and TableDigest, so a change
// to either (or to the journal text) strands every job a previous build
// left on disk: Resume() would refuse it. These literals pin all three
// for one fixed spec.
TEST(JobSpecHashTest, DurableFormatsArePinned) {
  JobSpec spec = MakeSpec(/*rows=*/100, /*seed=*/1);
  spec.max_suppression = 5;
  EXPECT_EQ(HashToHex(TableDigest(spec.input)), "7511fa2af42de932");
  EXPECT_EQ(HashToHex(JobSpecHash(spec)), "35ece547b4948a41");

  JobRunner runner(ProcessJobDir("psk_jobs_pinned_formats"));
  PSK_ASSERT_OK(runner.Run(spec).status());
  EXPECT_EQ(UnwrapOk(ReadFileToString(runner.journal_path())),
            "psk_job_version = 1\n"
            "state = committed\n"
            "spec_hash = 35ece547b4948a41\n"
            "input_digest = 7511fa2af42de932\n"
            "input_rows = 100\n"
            "seed = 0\n"
            "k = 3\n"
            "p = 2\n"
            "ts = 5\n"
            "algorithm = samarati\n");
}

// ---------------------------------------------------------------------------
// Report provenance round-trip.

TEST(ReportIoTest, ProvenanceRoundTrip) {
  AnonymizationReport report;
  report.algorithm_used = AnonymizationAlgorithm::kOla;
  report.fallback_stage = 2;
  report.partial = true;
  report.stats.stop_reason = StatusCode::kDeadlineExceeded;
  report.suppressed = 5;
  report.achieved_k = 4;
  report.achieved_p = 2;
  ReportProvenance provenance =
      UnwrapOk(ParseReportProvenance(ReportToJson(report)));
  EXPECT_EQ(provenance.algorithm_used, AnonymizationAlgorithm::kOla);
  EXPECT_EQ(provenance.fallback_stage, 2u);
  EXPECT_TRUE(provenance.partial);
  EXPECT_EQ(provenance.stop_reason, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(provenance.suppressed, 5u);
  EXPECT_EQ(provenance.achieved_k, 4u);
  EXPECT_EQ(provenance.achieved_p, 2u);
}

TEST(ReportIoTest, ProvenanceRoundTripEveryAlgorithmAndStopReason) {
  for (auto algorithm :
       {AnonymizationAlgorithm::kSamarati, AnonymizationAlgorithm::kIncognito,
        AnonymizationAlgorithm::kBottomUp, AnonymizationAlgorithm::kExhaustive,
        AnonymizationAlgorithm::kMondrian,
        AnonymizationAlgorithm::kGreedyCluster, AnonymizationAlgorithm::kOla,
        AnonymizationAlgorithm::kFullSuppression}) {
    for (auto reason : {StatusCode::kOk, StatusCode::kDeadlineExceeded,
                        StatusCode::kResourceExhausted,
                        StatusCode::kCancelled}) {
      AnonymizationReport report;
      report.algorithm_used = algorithm;
      report.stats.stop_reason = reason;
      report.partial = reason != StatusCode::kOk;
      ReportProvenance provenance =
          UnwrapOk(ParseReportProvenance(ReportToJson(report)));
      EXPECT_EQ(provenance.algorithm_used, algorithm);
      EXPECT_EQ(provenance.stop_reason, reason);
      EXPECT_EQ(provenance.partial, report.partial);
    }
  }
}

TEST(ReportIoTest, ProvenanceParserRejectsMissingFields) {
  auto result = ParseReportProvenance("{\"algorithm_used\": \"samarati\"}");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// JobRunner end-to-end.

TEST(JobRunnerTest, RunCommitsReleaseReportAndJournal) {
  std::string dir = ProcessJobDir("psk_jobs_run_commits");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  JobOutcome outcome = UnwrapOk(runner.Run(spec));

  EXPECT_FALSE(outcome.resumed_from_checkpoint);
  EXPECT_FALSE(outcome.already_committed);
  EXPECT_TRUE(outcome.report.guard.passed);
  EXPECT_GE(outcome.report.achieved_k, spec.k);
  EXPECT_TRUE(FileExists(runner.release_path()));
  EXPECT_TRUE(FileExists(runner.report_path()));
  EXPECT_FALSE(FileExists(runner.release_path() + ".tmp"));

  JobJournal journal = UnwrapOk(
      ParseJobJournal(UnwrapOk(ReadFileToString(runner.journal_path()))));
  EXPECT_TRUE(journal.committed);
  EXPECT_EQ(journal.spec_hash, JobSpecHash(spec));
  EXPECT_EQ(journal.input_digest, TableDigest(spec.input));
  EXPECT_EQ(journal.input_rows, spec.input.num_rows());
  EXPECT_EQ(journal.algorithm, "samarati");
}

TEST(JobRunnerTest, ResumeOfCommittedJobReVerifiesArtifact) {
  std::string dir = ProcessJobDir("psk_jobs_resume_committed");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  JobOutcome first = UnwrapOk(runner.Run(spec));

  JobOutcome resumed = UnwrapOk(runner.Resume(spec));
  EXPECT_TRUE(resumed.already_committed);
  EXPECT_TRUE(resumed.report.guard.passed);
  EXPECT_GE(resumed.report.guard.observed_k, spec.k);
  EXPECT_EQ(resumed.report.algorithm_used, first.report.algorithm_used);
  EXPECT_EQ(resumed.report.fallback_stage, first.report.fallback_stage);
  EXPECT_EQ(resumed.report.partial, first.report.partial);
  EXPECT_EQ(resumed.report.suppressed, first.report.suppressed);
  EXPECT_EQ(resumed.report.masked.num_rows(),
            first.report.masked.num_rows());
}

TEST(JobRunnerTest, ResumeRefusesTamperedCommittedRelease) {
  std::string dir = ProcessJobDir("psk_jobs_resume_tampered");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());

  // Corrupt the committed artifact: keep the header, drop all data rows.
  std::string csv = UnwrapOk(ReadFileToString(runner.release_path()));
  std::string header = csv.substr(0, csv.find('\n') + 1);
  std::string one_row =
      csv.substr(header.size(),
                 csv.find('\n', header.size()) + 1 - header.size());
  PSK_ASSERT_OK(AtomicWriteFile(runner.release_path(), header + one_row));

  auto resumed = runner.Resume(spec);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JobRunnerTest, ResumeWithoutJournalIsNotFound) {
  JobRunner runner(ProcessJobDir("psk_jobs_resume_missing"));
  auto resumed = runner.Resume(MakeSpec());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kNotFound);
}

TEST(JobRunnerTest, ResumeRefusesDifferentSpec) {
  std::string dir = ProcessJobDir("psk_jobs_resume_wrong_spec");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());

  JobSpec different = MakeSpec();
  different.k = spec.k + 1;
  auto resumed = runner.Resume(different);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("different job spec"),
            std::string::npos);
}

TEST(JobRunnerTest, ResumeRefusesDifferentInput) {
  std::string dir = ProcessJobDir("psk_jobs_resume_wrong_input");
  JobSpec spec = MakeSpec(200, 1);
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());

  JobSpec different = MakeSpec(200, 2);  // same shape, different rows
  auto resumed = runner.Resume(different);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("different input"),
            std::string::npos);
}

TEST(JobRunnerTest, ResumeFromCheckpointReproducesReleaseByteForByte) {
  std::string dir = ProcessJobDir("psk_jobs_resume_byte_identical");
  JobSpec spec = MakeSpec();
  spec.checkpoint_interval = 4;  // checkpoint often on this small lattice
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());
  std::string release = UnwrapOk(ReadFileToString(runner.release_path()));
  std::string report = UnwrapOk(ReadFileToString(runner.report_path()));
  ASSERT_TRUE(FileExists(runner.checkpoint_path()));

  // Simulate a crash after the last checkpoint but before commit: flip the
  // journal back to running; release/report stay behind as stale partials.
  JobJournal journal = UnwrapOk(
      ParseJobJournal(UnwrapOk(ReadFileToString(runner.journal_path()))));
  journal.committed = false;
  PSK_ASSERT_OK(
      AtomicWriteFile(runner.journal_path(), SerializeJobJournal(journal)));

  JobOutcome resumed = UnwrapOk(runner.Resume(spec));
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  EXPECT_FALSE(resumed.already_committed);
  EXPECT_EQ(UnwrapOk(ReadFileToString(runner.release_path())), release);
  EXPECT_EQ(UnwrapOk(ReadFileToString(runner.report_path())), report);
  // The replayed run re-commits.
  EXPECT_TRUE(UnwrapOk(ParseJobJournal(UnwrapOk(
                           ReadFileToString(runner.journal_path()))))
                  .committed);
}

TEST(JobRunnerTest, ResumeRefusesCheckpointFromOtherSpec) {
  std::string dir = ProcessJobDir("psk_jobs_resume_foreign_checkpoint");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());

  JobJournal journal = UnwrapOk(
      ParseJobJournal(UnwrapOk(ReadFileToString(runner.journal_path()))));
  journal.committed = false;
  PSK_ASSERT_OK(
      AtomicWriteFile(runner.journal_path(), SerializeJobJournal(journal)));
  // A checkpoint stamped with a different spec hash must be refused, not
  // silently used to seed the search.
  PSK_ASSERT_OK(AtomicWriteFile(
      runner.checkpoint_path(),
      SerializeSnapshot(SearchSnapshot{}, JobSpecHash(spec) + 1,
                        TableDigest(spec.input))));

  auto resumed = runner.Resume(spec);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JobRunnerTest, ResumeRefusesCheckpointFromDifferentInput) {
  std::string dir = ProcessJobDir("psk_jobs_resume_checkpoint_other_input");
  JobSpec spec = MakeSpec(200, 1);
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());

  JobJournal journal = UnwrapOk(
      ParseJobJournal(UnwrapOk(ReadFileToString(runner.journal_path()))));
  journal.committed = false;
  PSK_ASSERT_OK(
      AtomicWriteFile(runner.journal_path(), SerializeJobJournal(journal)));
  // Right spec hash, but verdicts computed over *different* microdata:
  // replaying them would silently release a wrong table.
  Table other = UnwrapOk(AdultGenerate(200, 2));
  PSK_ASSERT_OK(AtomicWriteFile(
      runner.checkpoint_path(),
      SerializeSnapshot(SearchSnapshot{}, JobSpecHash(spec),
                        TableDigest(other))));

  auto resumed = runner.Resume(spec);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("different input"),
            std::string::npos);
}

TEST(JobRunnerTest, RunRetiresStaleCheckpointBeforeJournaling) {
  std::string dir = ProcessJobDir("psk_jobs_run_retires_checkpoint");
  JobSpec spec = MakeSpec();
  spec.checkpoint_interval = 4;
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());
  ASSERT_TRUE(FileExists(runner.checkpoint_path()));

  // Leave a checkpoint that would poison a later run over different data,
  // then hand the directory to a new job: Run() must remove it before the
  // new journal lands, so no crash window pairs them.
  JobSpec other = MakeSpec(200, 2);
  PSK_ASSERT_OK(runner.Run(other).status());
  JobJournal journal = UnwrapOk(
      ParseJobJournal(UnwrapOk(ReadFileToString(runner.journal_path()))));
  EXPECT_EQ(journal.input_digest, TableDigest(other.input));
  // The surviving checkpoint (if any) belongs to the new input.
  Result<std::string> checkpoint = ReadFileToString(runner.checkpoint_path());
  if (checkpoint.ok()) {
    PSK_ASSERT_OK(ParseSnapshot(*checkpoint, JobSpecHash(other),
                                TableDigest(other.input))
                      .status());
  }
}

TEST(JobRunnerTest, MondrianJobWritesProgressHeartbeat) {
  std::string dir = ProcessJobDir("psk_jobs_mondrian_progress");
  JobSpec spec = MakeSpec();
  spec.algorithm = AnonymizationAlgorithm::kMondrian;
  spec.hierarchies.clear();  // Mondrian needs none
  JobRunner runner(dir);
  JobOutcome outcome = UnwrapOk(runner.Run(spec));
  EXPECT_TRUE(outcome.report.guard.passed);
  EXPECT_TRUE(FileExists(runner.progress_path()));

  // Mondrian re-derives its partitioning deterministically on resume.
  JobJournal journal = UnwrapOk(
      ParseJobJournal(UnwrapOk(ReadFileToString(runner.journal_path()))));
  journal.committed = false;
  PSK_ASSERT_OK(
      AtomicWriteFile(runner.journal_path(), SerializeJobJournal(journal)));
  std::string release = UnwrapOk(ReadFileToString(runner.release_path()));
  JobOutcome resumed = UnwrapOk(runner.Resume(spec));
  EXPECT_EQ(UnwrapOk(ReadFileToString(runner.release_path())), release);
}

TEST(JobRunnerTest, ConcurrentRunnerFailsFastOnTheDirectoryLock) {
  std::string dir = ProcessJobDir("psk_jobs_concurrent_lock");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  // Opt out of the contention wait: this test pins the fail-fast probe
  // the torture harness relies on.
  runner.set_lock_wait(std::chrono::milliseconds(0));
  PSK_ASSERT_OK(EnsureDirectory(dir));

  // Play the incumbent: hold the advisory lock the way a live Run/Resume
  // does. flock conflicts are per open-file-description, so a second
  // open in this same process contends exactly like a second process.
  int incumbent = open(runner.lock_path().c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(incumbent, 0);
  ASSERT_EQ(flock(incumbent, LOCK_EX | LOCK_NB), 0);

  // The second runner must fail fast — kUnavailable (retryable: the
  // incumbent will finish), no blocking — and must not have touched the
  // journal.
  auto run = runner.Run(spec);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(run.status().retryable());
  EXPECT_NE(run.status().message().find("another JobRunner"),
            std::string::npos);
  EXPECT_FALSE(FileExists(runner.journal_path()))
      << "a refused runner must not write the journal";

  // Resume contends on the same lock.
  auto resumed = runner.Resume(spec);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kUnavailable);

  // Releasing the incumbent's lock unblocks the directory; the lock a
  // completed Run held is released with it, so a third run also works.
  close(incumbent);
  PSK_ASSERT_OK(runner.Run(spec).status());
  PSK_ASSERT_OK(runner.Resume(spec).status());
}

TEST(JobRunnerTest, ContendedLockIsRetriedUntilTheIncumbentReleases) {
  std::string dir = ProcessJobDir("psk_jobs_concurrent_lock_retry");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  runner.set_lock_wait(std::chrono::milliseconds(2000));
  PSK_ASSERT_OK(EnsureDirectory(dir));

  int incumbent = open(runner.lock_path().c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(incumbent, 0);
  ASSERT_EQ(flock(incumbent, LOCK_EX | LOCK_NB), 0);

  // Release the lock from a helper thread while the runner is inside its
  // backoff loop: the run must ride out the contention and succeed where
  // the fail-fast probe above was refused.
  std::thread releaser([incumbent] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    close(incumbent);
  });
  auto run = runner.Run(spec);
  releaser.join();
  PSK_ASSERT_OK(run.status());
}

TEST(JobRunnerTest, CommittedJournalSurvivesARefusedConcurrentRunner) {
  std::string dir = ProcessJobDir("psk_jobs_concurrent_lock_committed");
  JobSpec spec = MakeSpec();
  JobRunner runner(dir);
  PSK_ASSERT_OK(runner.Run(spec).status());
  std::string journal = UnwrapOk(ReadFileToString(runner.journal_path()));
  std::string release = UnwrapOk(ReadFileToString(runner.release_path()));

  runner.set_lock_wait(std::chrono::milliseconds(0));
  int incumbent = open(runner.lock_path().c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(incumbent, 0);
  ASSERT_EQ(flock(incumbent, LOCK_EX | LOCK_NB), 0);
  // A re-Run against the held lock is refused before it retires the
  // previous run's artifacts: journal and release are byte-unchanged.
  ASSERT_FALSE(runner.Run(spec).ok());
  EXPECT_EQ(UnwrapOk(ReadFileToString(runner.journal_path())), journal);
  EXPECT_EQ(UnwrapOk(ReadFileToString(runner.release_path())), release);
  close(incumbent);
}

TEST(JobRunnerTest, ParallelJobMatchesSequentialRelease) {
  // threads is a runtime knob: same journal fingerprint, same release
  // bytes, and a checkpoint a resume replays to the same release.
  std::string seq_dir = ProcessJobDir("psk_jobs_threads_seq");
  std::string par_dir = ProcessJobDir("psk_jobs_threads_par");
  JobSpec spec = MakeSpec();
  spec.checkpoint_interval = 1;
  JobRunner seq(seq_dir);
  PSK_ASSERT_OK(seq.Run(spec).status());

  JobSpec par_spec = MakeSpec();
  par_spec.checkpoint_interval = 1;
  par_spec.threads = 4;
  EXPECT_EQ(JobSpecHash(par_spec), JobSpecHash(spec))
      << "threads must be excluded from the spec fingerprint";
  JobRunner par(par_dir);
  PSK_ASSERT_OK(par.Run(par_spec).status());

  const std::string release = UnwrapOk(ReadFileToString(seq.release_path()));
  EXPECT_EQ(UnwrapOk(ReadFileToString(par.release_path())), release);
  ASSERT_TRUE(FileExists(par.checkpoint_path()))
      << "a parallel run checkpoints like a sequential one";
  const std::string checkpoint =
      UnwrapOk(ReadFileToString(par.checkpoint_path()));
  EXPECT_FALSE(UnwrapOk(ParseSnapshot(checkpoint, JobSpecHash(par_spec),
                                      TableDigest(par_spec.input)))
                   .empty());
  EXPECT_EQ(checkpoint, UnwrapOk(ReadFileToString(seq.checkpoint_path())))
      << "the last checkpoint is the same at every thread count";

  // Crash after the last checkpoint, before commit: the resume replays the
  // parallel run's checkpoint to the same release bytes.
  JobJournal journal = UnwrapOk(
      ParseJobJournal(UnwrapOk(ReadFileToString(par.journal_path()))));
  journal.committed = false;
  PSK_ASSERT_OK(
      AtomicWriteFile(par.journal_path(), SerializeJobJournal(journal)));
  JobOutcome resumed = UnwrapOk(par.Resume(par_spec));
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  EXPECT_EQ(UnwrapOk(ReadFileToString(par.release_path())), release);
}

// ---------------------------------------------------------------------------
// One verdict memo per Run(): a fallback chain's later lattice stage
// replays the verdicts of the stage before it, and every checkpoint carries
// every stage's verdicts.

// The distinct nodes the trace shows generalized fresh: eval events whose
// path is "encoded". The signature renders an event as
// "eval[node=<levels>,path=<path>,stage=<stage>]", and a node key holds
// only digits and commas.
std::set<std::string> FreshlyEvaluatedNodes(const std::string& signature) {
  std::set<std::string> nodes;
  const std::string open = "eval[node=";
  for (size_t at = signature.find(open); at != std::string::npos;
       at = signature.find(open, at + 1)) {
    size_t key_begin = at + open.size();
    size_t path = signature.find(",path=", key_begin);
    if (path == std::string::npos) break;
    if (signature.compare(path, 14, ",path=encoded,") == 0) {
      nodes.insert(signature.substr(key_begin, path - key_begin));
    }
  }
  return nodes;
}

TEST(CheckpointChainTest, FallbackStageKeepsTheEarlierStagesVerdicts) {
  Table input = UnwrapOk(AdultGenerate(800, /*seed=*/17));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(input.schema()));
  // Samarati stops at its node cap; exhaustive replays Samarati's nodes
  // for free and stops at its own cap (caps apply per stage); full
  // suppression ends the chain.
  RunBudget budget;
  budget.max_nodes_expanded = 10;
  std::vector<size_t> sequential;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::string what = "threads=" + std::to_string(threads);
    Anonymizer anonymizer(input);
    for (size_t i = 0; i < hierarchies.size(); ++i) {
      anonymizer.AddHierarchy(hierarchies.hierarchy_ptr(i));
    }
    anonymizer.set_k(3)
        .set_p(2)
        .set_max_suppression(4)
        .set_algorithm(AnonymizationAlgorithm::kSamarati)
        .set_fallback_chain({AnonymizationAlgorithm::kExhaustive,
                             AnonymizationAlgorithm::kFullSuppression})
        .set_budget(budget)
        .set_threads(threads)
        .set_trace_enabled(true);
    std::vector<size_t> sizes;
    anonymizer.set_checkpoint_sink(
        [&sizes](const SearchSnapshot& snapshot) {
          sizes.push_back(snapshot.verdicts.size());
        },
        /*interval=*/4);
    AnonymizationReport report = UnwrapOk(anonymizer.Run());
    EXPECT_GE(report.fallback_stage, 1u) << what;

    // A later stage's checkpoint never drops an earlier stage's verdicts.
    ASSERT_FALSE(sizes.empty()) << what;
    for (size_t i = 1; i < sizes.size(); ++i) {
      EXPECT_LE(sizes[i - 1], sizes[i]) << what << " flush " << i;
    }
    // The last checkpoint holds exactly the nodes either stage generalized.
    EXPECT_EQ(sizes.back(), FreshlyEvaluatedNodes(
                                anonymizer.last_trace()->StructureSignature())
                                .size())
        << what;
    if (threads == 1) {
      sequential = sizes;
    } else {
      EXPECT_EQ(sizes, sequential) << what;
    }
  }
}

}  // namespace
}  // namespace psk
