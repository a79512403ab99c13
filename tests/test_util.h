#ifndef PSK_TESTS_TEST_UTIL_H_
#define PSK_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "psk/common/result.h"
#include "psk/common/status.h"

namespace psk {

/// ASSERT that a Status/Result is OK, printing the error on failure.
#define PSK_ASSERT_OK(expr)                                 \
  do {                                                      \
    auto psk_test_status_or = (expr);                       \
    ASSERT_TRUE(StatusOf(psk_test_status_or).ok())          \
        << StatusOf(psk_test_status_or).ToString();         \
  } while (false)

#define PSK_EXPECT_OK(expr)                                 \
  do {                                                      \
    auto psk_test_status_or = (expr);                       \
    EXPECT_TRUE(StatusOf(psk_test_status_or).ok())          \
        << StatusOf(psk_test_status_or).ToString();         \
  } while (false)

inline const Status& StatusOf(const Status& status) { return status; }

template <typename T>
Status StatusOf(const Result<T>& result) {
  return result.status();
}

/// Unwraps a Result in a test, failing the test (fatally) on error.
template <typename T>
T UnwrapOk(Result<T> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) std::abort();
  return std::move(result).value();
}

/// Removes every directory ProcessJobDir handed out once the test run
/// has passed; after a failure it keeps them for inspection and prints
/// where they are.
class ProcessJobDirCleanup : public ::testing::Environment {
 public:
  static std::vector<std::string>& Dirs() {
    static std::vector<std::string> dirs;
    return dirs;
  }

  void TearDown() override {
    const bool passed = ::testing::UnitTest::GetInstance()->Passed();
    for (const std::string& dir : Dirs()) {
      std::error_code ignored;
      if (passed) {
        std::filesystem::remove_all(dir, ignored);
      } else if (std::filesystem::exists(dir, ignored)) {
        std::fprintf(stderr, "kept job dir %s\n", dir.c_str());
      }
    }
    Dirs().clear();
  }
};

inline ::testing::Environment* const kProcessJobDirCleanup =
    ::testing::AddGlobalTestEnvironment(new ProcessJobDirCleanup);

/// A job directory under ::testing::TempDir() that belongs to this
/// process: `name` suffixed with the process id, so two concurrent runs of
/// one suite never share job files. The five files a job leaves behind
/// are removed first, so a reused pid starts clean too. The directory is
/// removed at the end of a passing run (ProcessJobDirCleanup).
inline std::string ProcessJobDir(const std::string& name) {
  std::string dir =
      ::testing::TempDir() + name + "_" + std::to_string(getpid());
  for (const char* file : {"job.journal", "checkpoint", "progress",
                           "release.csv", "report.json"}) {
    std::remove((dir + "/" + file).c_str());
  }
  ProcessJobDirCleanup::Dirs().push_back(dir);
  return dir;
}

}  // namespace psk

#endif  // PSK_TESTS_TEST_UTIL_H_
