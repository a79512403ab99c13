#ifndef PSK_GUARD_GUARD_H_
#define PSK_GUARD_GUARD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/table.h"
#include "psk/trace/trace.h"

namespace psk {

/// What a release must satisfy to leave the system. The guard re-derives
/// every quantity from the masked microdata itself — it shares no state
/// with the algorithm that produced the release, so an algorithm bug (or a
/// post-processing step that tampers with the table) cannot slip a
/// violating release past it.
struct GuardPolicy {
  /// Minimum QI-group size (Definition 1).
  size_t k = 2;
  /// Minimum distinct confidential values per group (Definition 2);
  /// 1 disables the p-sensitivity check.
  size_t p = 1;
  /// Maximum number of tuples the release may have suppressed relative to
  /// the original microdata; unset = suppression unlimited.
  std::optional<size_t> max_suppression;
  /// Maximum tolerated attribute disclosures — (group, confidential
  /// attribute) pairs where the whole group shares one value; unset =
  /// disclosures are not checked. With p >= 2 every group has >= 2
  /// distinct values per attribute, so 0 is the natural setting.
  std::optional<size_t> max_attribute_disclosures;
};

/// The policy a run with requirements (k, p, TS) holds its release to:
/// k, p and the suppression cap TS, plus zero attribute disclosures when
/// p >= 2 (p-sensitivity with p >= 2 implies there are none).
GuardPolicy DefaultGuardPolicy(size_t k, size_t p, size_t max_suppression);

/// The individual checks the guard runs, in order.
enum class GuardCheck {
  kKAnonymity = 0,
  kPSensitivity = 1,
  kSuppression = 2,
  kAttributeDisclosure = 3,
};

/// Stable name for a check ("k-anonymity", "p-sensitivity", ...).
const char* GuardCheckName(GuardCheck check);

/// One failed check, with the observed-vs-required numbers in the message.
struct GuardViolation {
  GuardCheck check;
  std::string message;
};

/// Full verification outcome: the independently measured properties of the
/// release plus every check that failed. All observed_* fields are valid
/// whether or not the release passed.
struct GuardReport {
  bool passed = false;
  /// Smallest QI-group size of the release (0 when the release is empty —
  /// an empty release is vacuously anonymous).
  size_t observed_k = 0;
  /// Smallest per-group distinct-confidential-value count (only measured
  /// when the policy requires p >= 2 and the schema has confidential
  /// attributes; 0 otherwise).
  size_t observed_p = 0;
  /// original_rows - released rows.
  size_t suppressed = 0;
  /// Only measured when the policy sets max_attribute_disclosures.
  size_t attribute_disclosures = 0;
  std::vector<GuardViolation> violations;

  /// One line per violation, or "release passed ..." when clean.
  std::string Summary() const;
};

/// Re-checks a masked microdata against `policy` from scratch:
/// k-anonymity, p-sensitivity, the suppression cap (via `original_rows`,
/// the row count of the microdata the release was derived from), and the
/// residual attribute-disclosure count. Never trusts the producing
/// algorithm's own accounting. Fails (as opposed to reporting violations)
/// only on malformed input, e.g. a release with more rows than the
/// original.
///
/// When `trace` is non-null, one span per executed check is recorded on it
/// (names "check_kanonymity", "check_psensitivity", "check_suppression",
/// "check_disclosure") carrying the observed value and a pass/fail
/// attribute. The guard runs on the caller's thread, so it may open spans
/// directly.
Result<GuardReport> VerifyRelease(const Table& masked, size_t original_rows,
                                  const GuardPolicy& policy,
                                  RunTrace* trace = nullptr);

/// Convenience wrapper: returns OK when the release passes, otherwise
/// FailedPrecondition whose message lists every violated check. When
/// `report` is non-null it receives the full report either way. `trace`
/// is forwarded to VerifyRelease.
Status EnforceRelease(const Table& masked, size_t original_rows,
                      const GuardPolicy& policy,
                      GuardReport* report = nullptr,
                      RunTrace* trace = nullptr);

}  // namespace psk

#endif  // PSK_GUARD_GUARD_H_
