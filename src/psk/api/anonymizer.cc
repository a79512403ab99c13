#include "psk/api/anonymizer.h"

#include <algorithm>
#include <unordered_map>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/greedy_cluster.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/mondrian.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/api/spec_parser.h"
#include "psk/common/failpoint.h"
#include "psk/metrics/metrics.h"
#include "psk/table/group_by.h"

namespace psk {
namespace {

// Scores the masked microdata from one profile of it; shared by every
// algorithm branch. `k` is the requirement C_AVG is normalized by.
Status FillScorecard(const Table& im, size_t k, AnonymizationReport* report) {
  const Table& masked = report->masked;
  PSK_ASSIGN_OR_RETURN(
      ReleaseProfile profile,
      ReleaseProfile::Compute(masked, masked.schema().KeyIndices(),
                              masked.schema().ConfidentialIndices()));
  report->achieved_k = profile.groups.MinGroupSize();
  report->achieved_p = profile.MinDistinct();
  report->attribute_disclosures = profile.Disclosures();
  report->reidentification_risk = profile.MarketerRisk();
  report->discernibility =
      profile.Discernibility(report->suppressed, im.num_rows());
  PSK_ASSIGN_OR_RETURN(report->normalized_avg_group_size,
                       profile.NormalizedAvgGroupSize(k));
  return Status::OK();
}

bool NeedsHierarchies(AnonymizationAlgorithm algorithm) {
  return algorithm != AnonymizationAlgorithm::kMondrian &&
         algorithm != AnonymizationAlgorithm::kGreedyCluster;
}

// A failed stage hands over to the next one only when the failure is about
// this data/budget, not about the configuration: FailedPrecondition (no
// satisfying masking exists for this stage) and the overrunnable budget
// codes continue; cancellation and config errors abort the whole chain.
bool ContinueChain(StatusCode code) {
  return code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

// One fallback stage: runs `algorithm` under `budget` and either returns a
// report (possibly flagged partial, but always holding a masked table that
// satisfied the stage's own checks) or the reason this stage produced
// nothing.
Result<AnonymizationReport> RunStage(
    const Table& im, const HierarchySet* hierarchies,
    AnonymizationAlgorithm algorithm, const SearchOptions& base_options,
    const RunBudget& budget,
    const std::function<void(size_t)>& progress_heartbeat) {
  // Torture seam: an injected continuable error here fails this stage the
  // same way a real data/budget failure would, handing over to the next
  // fallback stage; a non-continuable code aborts the whole chain.
  PSK_FAIL_POINT("api.stage");
  AnonymizationReport report;
  RunTrace* trace = base_options.trace;

  if (algorithm == AnonymizationAlgorithm::kMondrian) {
    MondrianOptions options;
    options.k = base_options.k;
    options.p = base_options.p;
    options.budget = budget;
    options.checkpoint = progress_heartbeat;
    options.trace = trace;
    PSK_ASSIGN_OR_RETURN(MondrianResult mondrian,
                         MondrianAnonymize(im, options));
    if (mondrian.partial &&
        mondrian.stop_reason == StatusCode::kCancelled) {
      return Status::Cancelled("run cancelled by caller");
    }
    report.masked = std::move(mondrian.masked);
    report.partial = mondrian.partial;
    report.stats.partial = mondrian.partial;
    report.stats.stop_reason = mondrian.stop_reason;
    return report;
  }
  if (algorithm == AnonymizationAlgorithm::kGreedyCluster) {
    GreedyClusterOptions options;
    options.k = base_options.k;
    options.p = base_options.p;
    options.budget = budget;
    options.checkpoint = progress_heartbeat;
    options.trace = trace;
    PSK_ASSIGN_OR_RETURN(GreedyClusterResult cluster,
                         GreedyClusterAnonymize(im, options));
    if (cluster.partial &&
        cluster.stop_reason == StatusCode::kCancelled) {
      return Status::Cancelled("run cancelled by caller");
    }
    report.masked = std::move(cluster.masked);
    report.partial = cluster.partial;
    report.stats.partial = cluster.partial;
    report.stats.stop_reason = cluster.stop_reason;
    return report;
  }

  if (hierarchies == nullptr) {
    return Status::Internal("lattice stage reached without hierarchies");
  }
  GeneralizationLattice lattice(*hierarchies);

  if (algorithm == AnonymizationAlgorithm::kFullSuppression) {
    // Last resort: mask at the lattice top. O(n), budget-exempt.
    TraceSpan span(trace, "materialize");
    LatticeNode top = lattice.Top();
    PSK_ASSIGN_OR_RETURN(MaskedMicrodata mm,
                         Mask(im, *hierarchies, top, base_options.k));
    report.masked = std::move(mm.table);
    report.node = top;
    report.suppressed = mm.suppressed;
    report.precision = Precision(top, *hierarchies);
    return report;
  }

  // Every lattice engine shares one contract: it searches, then decodes
  // its own release from the encoding its sweeps ran on.
  using LatticeEngine = Result<SearchResult> (*)(
      const Table&, const HierarchySet&, const SearchOptions&);
  LatticeEngine engine = nullptr;
  switch (algorithm) {
    case AnonymizationAlgorithm::kSamarati:
      engine = SamaratiSearch;
      break;
    case AnonymizationAlgorithm::kOla:
      engine = OlaSearch;
      break;
    case AnonymizationAlgorithm::kIncognito:
      engine = IncognitoSearch;
      break;
    case AnonymizationAlgorithm::kBottomUp:
      engine = BottomUpSearch;
      break;
    case AnonymizationAlgorithm::kExhaustive:
      engine = ExhaustiveSearch;
      break;
    default:
      return Status::Internal("unhandled algorithm");
  }
  SearchOptions options = base_options;
  options.budget = budget;
  PSK_ASSIGN_OR_RETURN(SearchResult result, engine(im, *hierarchies, options));

  if (result.condition1_failed) {
    return Status::FailedPrecondition(
        "Condition 1 fails: some confidential attribute has fewer than p "
        "distinct values");
  }

  if (result.stats.partial &&
      result.stats.stop_reason == StatusCode::kCancelled) {
    // An explicit caller cancel abandons the run. Unlike a deadline or
    // memory stop (whose partial best-so-far release is the point), a
    // cancelled stage must not surface a release that depends on how far
    // the search happened to get before the flag was observed.
    return Status::Cancelled("run cancelled by caller");
  }

  if (!result.found) {
    if (result.stats.partial) {
      // The budget ran out before the search reached any satisfying node;
      // surface the budget's own status so the caller (or the next
      // fallback stage) knows time, not feasibility, was the problem.
      return Status(result.stats.stop_reason,
                    "budget exhausted before any satisfying generalization "
                    "was found");
    }
    return Status::FailedPrecondition(
        "no full-domain generalization satisfies the requested k/p within "
        "the suppression budget");
  }

  report.masked = std::move(result.masked);
  report.node = result.node;
  report.suppressed = result.suppressed;
  report.stats = result.stats;
  report.partial = result.stats.partial;
  report.precision = Precision(result.node, *hierarchies);
  return report;
}

}  // namespace

Result<AnonymizationReport> Anonymizer::Run() const {
  std::shared_ptr<RunTrace> trace;
  if (trace_enabled_ || !trace_sink_path_.empty()) {
    trace = std::make_shared<RunTrace>("run");
  }
  last_trace_ = trace;
  Result<AnonymizationReport> result = RunImpl(trace.get());
  if (trace != nullptr && !trace_sink_path_.empty()) {
    trace->Close();
    // The trace of a failed run is still written (it is the best
    // diagnostic of the failure), but only a successful run surfaces a
    // sink-write error — a failed write must not mask the run's status.
    Status written = trace->WriteJsonFile(trace_sink_path_);
    if (result.ok() && !written.ok()) return written;
  }
  // Without a sink the trace is left open on purpose: a caller (e.g. the
  // job layer's commit protocol) may append post-run spans before reading
  // it — ToJson/StructureSignature close it on demand.
  return result;
}

Result<AnonymizationReport> Anonymizer::RunImpl(RunTrace* trace) const {
  const Schema& schema = initial_microdata_.schema();
  std::vector<size_t> key_indices = schema.KeyIndices();
  if (key_indices.empty()) {
    return Status::FailedPrecondition(
        "the schema declares no key (quasi-identifier) attributes");
  }
  size_t n = initial_microdata_.num_rows();
  if (k_ > n) {
    return Status::FailedPrecondition(
        "k=" + std::to_string(k_) + " exceeds the number of rows (n=" +
        std::to_string(n) + "); no QI-group can ever reach k");
  }
  // A run cancelled before it starts must not release: a user cancel can
  // land between a scheduler's dispatch and this call, and a chain of
  // only kFullSuppression is budget-exempt, so it never polls the token.
  if (budget_.cancel != nullptr && budget_.cancel->cancelled()) {
    return Status::Cancelled("run cancelled before start");
  }
  // Make the input table's bytes visible to the job's memory accountant
  // for the whole run (idempotent after a chunked Ingest loop, which has
  // already charged them). Failing here means the input alone is over the
  // job's hard quota — a budget stop with nothing to fall back on.
  PSK_RETURN_IF_ERROR(ChargeInputFootprint());

  std::vector<AnonymizationAlgorithm> chain;
  chain.push_back(algorithm_);
  chain.insert(chain.end(), fallback_chain_.begin(), fallback_chain_.end());

  if (trace != nullptr) {
    // Root-span provenance: the run's configuration, all structural.
    trace->Attr("algorithm", AlgorithmName(algorithm_));
    trace->Counter("rows", n);
    trace->Counter("k", k_);
    trace->Counter("p", p_);
    trace->Counter("max_suppression", max_suppression_);
    trace->Timing("threads", threads_);
  }

  // Lattice stages need one hierarchy per key attribute. Accept them in
  // any registration order and sort into schema order by name. Skipped
  // entirely for a pure local-recoding chain, which needs no hierarchies.
  bool needs_hierarchies = false;
  for (AnonymizationAlgorithm algorithm : chain) {
    if (NeedsHierarchies(algorithm)) needs_hierarchies = true;
  }
  std::optional<HierarchySet> hierarchy_set;
  if (needs_hierarchies) {
    TraceSpan preflight_span(trace, "preflight");
    preflight_span.Counter("hierarchies", hierarchies_.size());
    std::unordered_map<std::string, std::shared_ptr<const AttributeHierarchy>>
        by_name;
    for (const auto& hierarchy : hierarchies_) {
      if (hierarchy == nullptr) {
        return Status::InvalidArgument("null hierarchy registered");
      }
      if (!by_name.emplace(hierarchy->attribute_name(), hierarchy).second) {
        return Status::AlreadyExists("duplicate hierarchy for attribute '" +
                                     hierarchy->attribute_name() + "'");
      }
    }
    std::vector<std::shared_ptr<const AttributeHierarchy>> ordered;
    for (size_t col : key_indices) {
      auto it = by_name.find(schema.attribute(col).name);
      if (it == by_name.end()) {
        return Status::InvalidArgument(
            "no hierarchy registered for key attribute '" +
            schema.attribute(col).name + "'");
      }
      ordered.push_back(it->second);
    }
    if (by_name.size() != key_indices.size()) {
      return Status::InvalidArgument(
          "hierarchies registered for non-key attributes");
    }
    PSK_ASSIGN_OR_RETURN(hierarchy_set,
                         HierarchySet::Create(schema, std::move(ordered)));
    // Preflight: every observed key value must generalize at every level,
    // so configuration errors surface before the lattice search starts.
    for (size_t i = 0; i < hierarchy_set->size(); ++i) {
      PSK_RETURN_IF_ERROR(ValidateHierarchyOverColumn(
          initial_microdata_, key_indices[i], hierarchy_set->hierarchy(i)));
    }
  }

  SearchOptions base_options;
  base_options.k = k_;
  base_options.p = p_;
  base_options.max_suppression = max_suppression_;
  base_options.threads = threads_;
  base_options.trace = trace;
  // One verdict memo for the whole chain, seeded from an interrupted run's
  // snapshot: node verdicts are pure functions of the data and (k, p, TS),
  // so every lattice stage replays what an earlier stage decided, and each
  // checkpoint carries every stage's verdicts.
  SearchSnapshot memo;
  if (restore_snapshot_ != nullptr) memo = *restore_snapshot_;
  base_options.memo = &memo;
  base_options.checkpoint_sink = checkpoint_sink_;
  base_options.checkpoint_interval = checkpoint_interval_;

  // One clock for the whole Run: every stage gets the time still left when
  // it starts, so a slow primary cannot starve the chain of its own limit
  // accounting (a stage entered with zero remaining trips immediately and
  // falls through). Node/row caps apply per stage.
  BudgetEnforcer overall(budget_);

  // When every stage fails, the returned Status carries the *primary*
  // stage's error (the root cause) with each fallback stage's own failure
  // appended as context — a fallback that also failed must never replace
  // the message explaining why falling back was necessary in the first
  // place.
  Status root_cause = Status::OK();
  std::string fallback_context;
  for (size_t stage = 0; stage < chain.size(); ++stage) {
    RunBudget stage_budget = budget_;
    if (budget_.deadline.has_value()) {
      stage_budget.deadline = overall.Remaining();
    }
    // Explicit Begin/End (not RAII): the span must close before the guard
    // and scorecard phases, and a non-continuable error returns with the
    // span deliberately still open (RunTrace::Close repairs it at export,
    // and the truncated tree shows exactly where the run died).
    if (trace != nullptr) {
      trace->Begin("stage");
      trace->Attr("algorithm", AlgorithmName(chain[stage]));
      trace->Attr("index", std::to_string(stage));
    }
    Result<AnonymizationReport> attempt =
        RunStage(initial_microdata_,
                 hierarchy_set.has_value() ? &*hierarchy_set : nullptr,
                 chain[stage], base_options, stage_budget,
                 progress_heartbeat_);
    if (!attempt.ok()) {
      Status stage_error = attempt.status();
      if (trace != nullptr) {
        trace->Attr("outcome", StatusCodeToString(stage_error.code()));
        trace->End();
      }
      if (stage == 0) {
        root_cause = stage_error;
      } else {
        fallback_context += "; fallback " +
                            std::string(AlgorithmName(chain[stage])) +
                            " (stage " + std::to_string(stage) +
                            ") failed: " +
                            std::string(StatusCodeToString(
                                stage_error.code())) +
                            ": " + stage_error.message();
      }
      if (!ContinueChain(stage_error.code())) {
        // Non-continuable failures abort the chain immediately; a fallback
        // stage's abort still reports the root cause first.
        if (stage == 0) return stage_error;
        return Status(stage_error.code(),
                      root_cause.message() + fallback_context);
      }
      continue;
    }

    AnonymizationReport report = std::move(*attempt);
    report.algorithm_used = chain[stage];
    report.fallback_stage = stage;
    if (trace != nullptr) {
      // The stage span carries the full counter snapshot; trace_test holds
      // these equal to the report's own SearchStats.
      RecordStatsCounters(trace, report.stats);
      trace->Attr("outcome", "released");
      trace->End();
    }

    if (release_transform_ != nullptr) {
      TraceSpan span(trace, "transform");
      PSK_ASSIGN_OR_RETURN(report.masked,
                           release_transform_(std::move(report.masked)));
    }
    if (guard_enabled_) {
      TraceSpan span(trace, "guard");
      GuardPolicy policy = guard_policy_.value_or(
          DefaultGuardPolicy(k_, p_, max_suppression_));
      // Guard refusal is final — a violating release must not escape, and
      // falling back to a *weaker* algorithm could not fix it anyway.
      PSK_RETURN_IF_ERROR(EnforceRelease(report.masked, n, policy,
                                         &report.guard, trace));
    }
    TraceSpan scorecard_span(trace, "scorecard");
    PSK_RETURN_IF_ERROR(FillScorecard(initial_microdata_, k_, &report));
    return report;
  }
  return Status(root_cause.code(), root_cause.message() + fallback_context);
}

}  // namespace psk
