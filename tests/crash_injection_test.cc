// Crash-injection harness for the job layer: fork a child that runs (or
// resumes) an anonymization job with the durable-write fault countdown
// armed, let SIGKILL stop it mid-commit at a randomized point, then
// resume — repeatedly — and require the finally-committed release and
// report to be byte-identical to an uninterrupted run's, with the release
// guard re-verifying k/p on the resumed output.
//
// Environment knobs (for the CI crash loop):
//   PSK_CRASH_ITERATIONS  crash/resume rounds per algorithm (default 2)
//   PSK_CRASH_SEED        RNG seed for fault-point placement

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <random>
#include <string>

#include "psk/common/durable_file.h"
#include "psk/datagen/adult.h"
#include "psk/jobs/job.h"
#include "test_util.h"

namespace psk {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

JobSpec MakeSpec(AnonymizationAlgorithm algorithm, size_t threads = 1) {
  JobSpec spec;
  spec.input = UnwrapOk(AdultGenerate(120, 3));
  if (algorithm != AnonymizationAlgorithm::kMondrian) {
    HierarchySet hierarchies =
        UnwrapOk(AdultHierarchies(spec.input.schema()));
    for (size_t i = 0; i < hierarchies.size(); ++i) {
      spec.hierarchies.push_back(hierarchies.hierarchy_ptr(i));
    }
  }
  spec.k = 3;
  spec.p = 2;
  spec.max_suppression = 6;
  spec.algorithm = algorithm;
  spec.threads = threads;
  spec.checkpoint_interval = 2;  // checkpoint often = many fault points
  return spec;
}

void CleanDir(const std::string& dir) {
  for (const char* name : {"/job.journal", "/job.journal.tmp", "/checkpoint",
                           "/checkpoint.tmp", "/progress", "/progress.tmp",
                           "/release.csv", "/release.csv.tmp", "/report.json",
                           "/report.json.tmp"}) {
    std::remove((dir + name).c_str());
  }
}

// Child exit codes (the child cannot use gtest).
constexpr int kChildOk = 0;
constexpr int kChildError = 7;

// Forks a child that arms the SIGKILL countdown and drives the job to
// completion (Resume when a journal exists, else Run). Returns the raw
// waitpid status.
int RunChildWithFault(const std::string& dir, const JobSpec& spec,
                      int64_t countdown) {
  pid_t pid = fork();
  if (pid == 0) {
    TestOnlySetDurableFaultCountdown(countdown);
    JobRunner runner(dir);
    Result<JobOutcome> outcome = runner.Resume(spec);
    if (!outcome.ok() &&
        outcome.status().code() == StatusCode::kNotFound) {
      // Crashed before the journal became durable: start over.
      outcome = runner.Run(spec);
    }
    TestOnlySetDurableFaultCountdown(-1);
    // _exit, not exit: do not run the parent's atexit/gtest machinery.
    _exit(outcome.ok() ? kChildOk : kChildError);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

void CrashResumeLoop(AnonymizationAlgorithm algorithm,
                     const std::string& tag, size_t threads = 1) {
  const int iterations = EnvInt("PSK_CRASH_ITERATIONS", 2);
  std::mt19937_64 rng(static_cast<uint64_t>(EnvInt("PSK_CRASH_SEED", 73)) +
                      static_cast<uint64_t>(algorithm));
  // Fault points are individual durability steps (write/fsync/rename);
  // small countdowns die in the write-ahead journal, large ones reach the
  // release/report/commit writes or let the run finish untouched.
  std::uniform_int_distribution<int64_t> countdown(0, 59);

  JobSpec spec = MakeSpec(algorithm, threads);
  const std::string base = ::testing::TempDir() + "psk_crash_" + tag;
  int total_crashes = 0;

  // Uninterrupted baseline: the bytes every crashed-and-resumed run must
  // reproduce exactly.
  const std::string baseline_dir = base + "_baseline";
  CleanDir(baseline_dir);
  JobRunner baseline(baseline_dir);
  JobOutcome uninterrupted = UnwrapOk(baseline.Run(spec));
  ASSERT_TRUE(uninterrupted.report.guard.passed);
  const std::string release =
      UnwrapOk(ReadFileToString(baseline.release_path()));
  const std::string report =
      UnwrapOk(ReadFileToString(baseline.report_path()));

  for (int iteration = 0; iteration < iterations; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    const std::string dir = base + "_" + std::to_string(iteration);
    CleanDir(dir);
    JobRunner runner(dir);

    // A multi-threaded job's children alternate between `threads` and 1
    // (threads is outside JobSpecHash), so a resume may replay a
    // checkpoint written at the other thread count.
    int launches = 0;
    auto child_spec = [&] {
      JobSpec child = spec;
      if (launches++ % 2 == 1) child.threads = 1;
      return child;
    };

    // A few crash rounds, each SIGKILLing at a different randomized spot
    // in the journal/checkpoint/commit protocol, then one fault-free round
    // that drives the job to completion (replaying the snapshot also
    // rewrites checkpoints, so a bounded countdown alone cannot be relied
    // on to eventually outrun the replay).
    int crashes = 0;
    bool completed = false;
    for (int round = 0; round < 4 && !completed; ++round) {
      int status = RunChildWithFault(dir, child_spec(), countdown(rng));
      if (WIFSIGNALED(status)) {
        ASSERT_EQ(WTERMSIG(status), SIGKILL) << "unexpected signal";
        ++crashes;
        // Atomicity invariant: whatever the crash tore, the final release
        // path holds either nothing or the complete committed bytes.
        if (FileExists(runner.release_path())) {
          EXPECT_EQ(UnwrapOk(ReadFileToString(runner.release_path())),
                    release);
        }
        continue;
      }
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_EQ(WEXITSTATUS(status), kChildOk)
          << "child failed with a real error, not a crash";
      completed = true;
    }
    if (!completed) {
      int status = RunChildWithFault(dir, child_spec(), /*countdown=*/-1);
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_EQ(WEXITSTATUS(status), kChildOk)
          << "fault-free resume failed after " << crashes << " crashes";
    }

    // The committed artifacts must be byte-identical to the uninterrupted
    // run — releases, report (stats included), and a committed journal.
    EXPECT_EQ(UnwrapOk(ReadFileToString(runner.release_path())), release)
        << "after " << crashes << " injected crashes";
    EXPECT_EQ(UnwrapOk(ReadFileToString(runner.report_path())), report)
        << "after " << crashes << " injected crashes";
    JobJournal journal = UnwrapOk(
        ParseJobJournal(UnwrapOk(ReadFileToString(runner.journal_path()))));
    EXPECT_TRUE(journal.committed);

    // Resume of the committed job re-verifies k/p on the released file
    // itself through the guard.
    JobOutcome verified = UnwrapOk(runner.Resume(spec));
    EXPECT_TRUE(verified.already_committed);
    ASSERT_TRUE(verified.report.guard.passed)
        << verified.report.guard.Summary();
    EXPECT_GE(verified.report.guard.observed_k, spec.k);
    EXPECT_GE(verified.report.guard.observed_p, spec.p);
    total_crashes += crashes;
  }
  ::testing::Test::RecordProperty("injected_crashes", total_crashes);
  std::cout << tag << ": " << total_crashes << " injected SIGKILLs across "
            << iterations << " iterations\n";
}

// Names of the AtomicWriteFile staging files (*.tmp.XXXXXX) in `dir`.
std::vector<std::string> StagingFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return files;
  while (struct dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.find(".tmp.") != std::string::npos) files.push_back(name);
  }
  closedir(d);
  return files;
}

TEST(CrashInjectionTest, JobStartupReapsOrphanedStagingFiles) {
  const std::string dir = ::testing::TempDir() + "psk_crash_staging";
  CleanDir(dir);
  PSK_ASSERT_OK(EnsureDirectory(dir));
  for (const std::string& name : StagingFiles(dir)) {
    std::remove((dir + "/" + name).c_str());
  }

  // Orphan a *real* staging file: SIGKILL a child inside AtomicWriteFile,
  // after the bytes are written but before the rename. The kernel drops
  // the child's flock with the process, so the temp becomes reapable.
  pid_t pid = fork();
  if (pid == 0) {
    TestOnlySetDurableFaultCountdown(0);
    (void)AtomicWriteFile(dir + "/release.csv", "torn bytes");
    _exit(kChildError);  // unreachable: the countdown SIGKILLs first
  }
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_EQ(StagingFiles(dir).size(), 1u)
      << "the crash should have left exactly the orphaned temp behind";
  const std::string orphan = dir + "/" + StagingFiles(dir)[0];

  // A *live* staging file: this process plays the concurrent writer,
  // holding the advisory lock AtomicWriteFile keeps for its whole
  // write..rename window. Startup reaping must leave it alone.
  const std::string live = dir + "/report.json.tmp.live00";
  int live_fd = open(live.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(live_fd, 0);
  ASSERT_EQ(flock(live_fd, LOCK_EX | LOCK_NB), 0);

  // Job startup reaps the orphan, keeps the live temp, and the job then
  // runs to a committed release in the same directory.
  JobSpec spec = MakeSpec(AnonymizationAlgorithm::kSamarati);
  JobRunner runner(dir);
  JobOutcome outcome = UnwrapOk(runner.Run(spec));
  ASSERT_TRUE(outcome.report.guard.passed);
  EXPECT_FALSE(FileExists(orphan)) << "orphaned temp was not reaped";
  EXPECT_TRUE(FileExists(live)) << "live (locked) temp was reaped";
  std::vector<std::string> rest = StagingFiles(dir);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(dir + "/" + rest[0], live);

  close(live_fd);
  std::remove(live.c_str());
}

TEST(CrashInjectionTest, SamaratiSurvivesRandomSigkill) {
  CrashResumeLoop(AnonymizationAlgorithm::kSamarati, "samarati");
}

// A 4-thread job checkpoints at its sweeps' wave boundaries, like a
// sequential one, so a crash resumes from its last checkpoint; the
// children alternate between 4 and 1 threads, and each forked child
// starts its own pool workers.
TEST(CrashInjectionTest, SamaratiSurvivesRandomSigkillAtFourThreads) {
  CrashResumeLoop(AnonymizationAlgorithm::kSamarati, "samarati_4threads",
                  /*threads=*/4);
}

TEST(CrashInjectionTest, IncognitoSurvivesRandomSigkill) {
  CrashResumeLoop(AnonymizationAlgorithm::kIncognito, "incognito");
}

TEST(CrashInjectionTest, IncognitoSurvivesRandomSigkillAtFourThreads) {
  CrashResumeLoop(AnonymizationAlgorithm::kIncognito, "incognito_4threads",
                  /*threads=*/4);
}

TEST(CrashInjectionTest, OlaSurvivesRandomSigkill) {
  CrashResumeLoop(AnonymizationAlgorithm::kOla, "ola");
}

TEST(CrashInjectionTest, OlaSurvivesRandomSigkillAtFourThreads) {
  CrashResumeLoop(AnonymizationAlgorithm::kOla, "ola_4threads",
                  /*threads=*/4);
}

TEST(CrashInjectionTest, BottomUpSurvivesRandomSigkill) {
  CrashResumeLoop(AnonymizationAlgorithm::kBottomUp, "bottomup");
}

TEST(CrashInjectionTest, BottomUpSurvivesRandomSigkillAtFourThreads) {
  CrashResumeLoop(AnonymizationAlgorithm::kBottomUp, "bottomup_4threads",
                  /*threads=*/4);
}

TEST(CrashInjectionTest, ExhaustiveSurvivesRandomSigkill) {
  CrashResumeLoop(AnonymizationAlgorithm::kExhaustive, "exhaustive");
}

TEST(CrashInjectionTest, ExhaustiveSurvivesRandomSigkillAtFourThreads) {
  CrashResumeLoop(AnonymizationAlgorithm::kExhaustive, "exhaustive_4threads",
                  /*threads=*/4);
}

TEST(CrashInjectionTest, MondrianSurvivesRandomSigkill) {
  CrashResumeLoop(AnonymizationAlgorithm::kMondrian, "mondrian");
}

}  // namespace
}  // namespace psk
