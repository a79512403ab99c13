#ifndef PSK_TESTS_TEST_UTIL_H_
#define PSK_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

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

/// A job directory under ::testing::TempDir() that belongs to this
/// process: `name` suffixed with the process id, so two concurrent runs of
/// one suite never share job files. The five files a job leaves behind
/// are removed first, so a reused pid starts clean too.
inline std::string ProcessJobDir(const std::string& name) {
  std::string dir =
      ::testing::TempDir() + name + "_" + std::to_string(getpid());
  for (const char* file : {"job.journal", "checkpoint", "progress",
                           "release.csv", "report.json"}) {
    std::remove((dir + "/" + file).c_str());
  }
  return dir;
}

}  // namespace psk

#endif  // PSK_TESTS_TEST_UTIL_H_
