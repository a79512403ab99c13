#include "psk/guard/guard.h"

#include "psk/common/failpoint.h"
#include "psk/table/group_by.h"

namespace psk {
namespace {

std::string Num(size_t value) { return std::to_string(value); }

void AddViolation(GuardReport* report, GuardCheck check,
                  std::string message) {
  report->violations.push_back(GuardViolation{check, std::move(message)});
}

}  // namespace

GuardPolicy DefaultGuardPolicy(size_t k, size_t p, size_t max_suppression) {
  GuardPolicy policy;
  policy.k = k;
  policy.p = p;
  policy.max_suppression = max_suppression;
  if (p >= 2) policy.max_attribute_disclosures = 0;
  return policy;
}

const char* GuardCheckName(GuardCheck check) {
  switch (check) {
    case GuardCheck::kKAnonymity:
      return "k-anonymity";
    case GuardCheck::kPSensitivity:
      return "p-sensitivity";
    case GuardCheck::kSuppression:
      return "suppression";
    case GuardCheck::kAttributeDisclosure:
      return "attribute-disclosure";
  }
  return "unknown";
}

std::string GuardReport::Summary() const {
  if (violations.empty()) {
    return "release passed: k=" + Num(observed_k) + ", p=" +
           Num(observed_p) + ", suppressed=" + Num(suppressed);
  }
  std::string out;
  for (const GuardViolation& v : violations) {
    if (!out.empty()) out += "; ";
    out += "[";
    out += GuardCheckName(v.check);
    out += "] ";
    out += v.message;
  }
  return out;
}

Result<GuardReport> VerifyRelease(const Table& masked, size_t original_rows,
                                  const GuardPolicy& policy,
                                  RunTrace* trace) {
  if (policy.k < 1) return Status::InvalidArgument("guard k must be >= 1");
  if (policy.p < 1) return Status::InvalidArgument("guard p must be >= 1");
  if (masked.num_rows() > original_rows) {
    return Status::InvalidArgument(
        "release has " + Num(masked.num_rows()) +
        " rows but the original microdata had only " + Num(original_rows));
  }

  GuardReport report;
  report.suppressed = original_rows - masked.num_rows();

  std::vector<size_t> key_indices = masked.schema().KeyIndices();
  std::vector<size_t> conf_indices = masked.schema().ConfidentialIndices();
  // One span per executed check; a check that records no span was not run
  // for this policy/schema, which is itself structural information.
  auto check_verdict = [](TraceSpan& span, bool ok) {
    span.Attr("verdict", ok ? "passed" : "violated");
  };

  // Every measured property is a read of one profile of the release,
  // grouped once. Distinct values are counted only when a check needs
  // them.
  const bool measured = !key_indices.empty() && masked.num_rows() > 0;
  ReleaseProfile profile;
  if (measured) {
    const bool count_distinct =
        policy.p >= 2 || policy.max_attribute_disclosures.has_value();
    PSK_ASSIGN_OR_RETURN(
        profile,
        ReleaseProfile::Compute(masked, key_indices,
                                count_distinct ? conf_indices
                                               : std::vector<size_t>{}));
  }

  // k-anonymity (Definition 1). An empty release is vacuously anonymous —
  // the suppression cap below is what stops "suppress everything" from
  // being a free pass.
  if (measured) {
    TraceSpan span(trace, "check_kanonymity");
    report.observed_k = profile.groups.MinGroupSize();
    span.Counter("observed_k", report.observed_k);
    check_verdict(span, report.observed_k >= policy.k);
    if (report.observed_k < policy.k) {
      AddViolation(&report, GuardCheck::kKAnonymity,
                   "smallest QI-group has " + Num(report.observed_k) +
                       " tuples; policy requires k=" + Num(policy.k));
    }
  }

  // p-sensitivity (Definition 2).
  if (policy.p >= 2) {
    TraceSpan span(trace, "check_psensitivity");
    if (conf_indices.empty()) {
      check_verdict(span, false);
      AddViolation(&report, GuardCheck::kPSensitivity,
                   "policy requires p=" + Num(policy.p) +
                       " but the release has no confidential attributes");
    } else if (measured) {
      report.observed_p = profile.MinDistinct();
      span.Counter("observed_p", report.observed_p);
      check_verdict(span, report.observed_p >= policy.p);
      if (report.observed_p < policy.p) {
        AddViolation(
            &report, GuardCheck::kPSensitivity,
            "some QI-group has only " + Num(report.observed_p) +
                " distinct confidential values; policy requires p=" +
                Num(policy.p));
      }
    } else {
      check_verdict(span, true);
    }
  }

  // Suppression cap.
  if (policy.max_suppression.has_value()) {
    TraceSpan span(trace, "check_suppression");
    span.Counter("suppressed", report.suppressed);
    bool ok = report.suppressed <= *policy.max_suppression;
    check_verdict(span, ok);
    if (!ok) {
      AddViolation(&report, GuardCheck::kSuppression,
                   Num(report.suppressed) +
                       " tuples suppressed; policy allows at most " +
                       Num(*policy.max_suppression));
    }
  }

  // Residual attribute disclosures (Table 8 of the paper).
  if (policy.max_attribute_disclosures.has_value() && measured &&
      !conf_indices.empty()) {
    TraceSpan span(trace, "check_disclosure");
    report.attribute_disclosures = profile.Disclosures();
    span.Counter("disclosures", report.attribute_disclosures);
    check_verdict(span,
                  report.attribute_disclosures <=
                      *policy.max_attribute_disclosures);
    if (report.attribute_disclosures > *policy.max_attribute_disclosures) {
      AddViolation(&report, GuardCheck::kAttributeDisclosure,
                   Num(report.attribute_disclosures) +
                       " attribute disclosures; policy allows at most " +
                       Num(*policy.max_attribute_disclosures));
    }
  }

  report.passed = report.violations.empty();
  return report;
}

Status EnforceRelease(const Table& masked, size_t original_rows,
                      const GuardPolicy& policy, GuardReport* report,
                      RunTrace* trace) {
  // Torture seam: an injected error here must surface as the run's own
  // clean failure — a release the guard could not verify never escapes.
  PSK_FAIL_POINT("guard.verify");
  PSK_ASSIGN_OR_RETURN(GuardReport verified,
                       VerifyRelease(masked, original_rows, policy, trace));
  if (report != nullptr) *report = verified;
  if (verified.passed) return Status::OK();
  return Status::FailedPrecondition("release guard refused the release: " +
                                    verified.Summary());
}

}  // namespace psk
