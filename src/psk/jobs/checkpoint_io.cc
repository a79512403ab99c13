#include "psk/jobs/checkpoint_io.h"

#include <algorithm>
#include <map>
#include <vector>

#include "psk/common/string_util.h"

namespace psk {
namespace {

// Renders one verdict as "satisfied stage suppressed num_groups".
std::string VerdictPayload(const NodeEvaluation& eval) {
  return std::to_string(eval.satisfied ? 1 : 0) + " " +
         std::to_string(static_cast<int>(eval.stage)) + " " +
         std::to_string(eval.suppressed) + " " +
         std::to_string(eval.num_groups);
}

Status LineError(size_t line_no, const std::string& what) {
  return Status::InvalidArgument("checkpoint line " +
                                 std::to_string(line_no) + ": " + what);
}

Result<NodeEvaluation> ParseVerdictPayload(std::string_view payload,
                                           size_t line_no) {
  std::vector<std::string> parts;
  for (const std::string& part : Split(payload, ' ')) {
    if (!Trim(part).empty()) parts.push_back(std::string(Trim(part)));
  }
  if (parts.size() != 4) {
    return LineError(line_no, "verdict payload must have 4 fields");
  }
  NodeEvaluation eval;
  PSK_ASSIGN_OR_RETURN(int64_t satisfied, ParseInt64(parts[0]));
  PSK_ASSIGN_OR_RETURN(int64_t stage, ParseInt64(parts[1]));
  PSK_ASSIGN_OR_RETURN(int64_t suppressed, ParseInt64(parts[2]));
  PSK_ASSIGN_OR_RETURN(int64_t num_groups, ParseInt64(parts[3]));
  if (stage < 0 || stage > static_cast<int>(CheckStage::kGroupDetail)) {
    return LineError(line_no, "unknown check stage " + parts[1]);
  }
  if (satisfied < 0 || satisfied > 1 || suppressed < 0 || num_groups < 0) {
    return LineError(line_no, "verdict fields out of range");
  }
  // Evaluate records kPassed exactly for a satisfied node and never
  // kCondition1 (decided once per search); replaying anything else would
  // count the node twice or hand the engine a rejected node.
  if ((satisfied == 1) != (stage == static_cast<int>(CheckStage::kPassed)) ||
      stage == static_cast<int>(CheckStage::kCondition1)) {
    return LineError(line_no, "no evaluation records this verdict");
  }
  eval.satisfied = satisfied == 1;
  eval.stage = static_cast<CheckStage>(stage);
  eval.suppressed = static_cast<size_t>(suppressed);
  eval.num_groups = static_cast<size_t>(num_groups);
  return eval;
}

}  // namespace

uint64_t Fnv1aHash(std::string_view text, uint64_t seed) {
  uint64_t hash = seed;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string HashToHex(uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<size_t>(i)] = kDigits[hash & 0xF];
    hash >>= 4;
  }
  return hex;
}

Result<uint64_t> ParseHexHash(std::string_view hex) {
  if (hex.size() != 16) {
    return Status::InvalidArgument("hash must be 16 hex digits");
  }
  uint64_t value = 0;
  for (char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return Status::InvalidArgument("invalid hex digit in hash");
    }
  }
  return value;
}

std::string SerializeSnapshot(const SearchSnapshot& snapshot,
                              uint64_t spec_hash, uint64_t input_digest) {
  std::string out = "psk_checkpoint_version = 1\n";
  out += "spec_hash = " + HashToHex(spec_hash) + "\n";
  out += "input_digest = " + HashToHex(input_digest) + "\n";
  // Sorted emission keeps the file deterministic for a given snapshot —
  // useful for tests and for content-addressed storage of checkpoints.
  std::map<std::string, const NodeEvaluation*> verdicts;
  for (const auto& [key, eval] : snapshot.verdicts) {
    verdicts.emplace(key, &eval);
  }
  for (const auto& [key, eval] : verdicts) {
    out += "verdict " + key + " = " + VerdictPayload(*eval) + "\n";
  }
  std::map<std::string, bool> facts(snapshot.facts.begin(),
                                    snapshot.facts.end());
  for (const auto& [key, value] : facts) {
    out += "fact " + key + " = " + (value ? "1" : "0") + "\n";
  }
  return out;
}

Result<SearchSnapshot> ParseSnapshot(std::string_view text,
                                     uint64_t expected_spec_hash,
                                     uint64_t expected_input_digest) {
  SearchSnapshot snapshot;
  bool version_seen = false;
  bool hash_seen = false;
  bool digest_seen = false;
  size_t line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return LineError(line_no, "expected 'key = value'");
    }
    std::string_view key = Trim(line.substr(0, eq));
    std::string_view value = Trim(line.substr(eq + 1));
    if (key == "psk_checkpoint_version") {
      if (value != "1") {
        return Status::InvalidArgument(
            "unsupported checkpoint version: " + std::string(value));
      }
      version_seen = true;
    } else if (key == "spec_hash") {
      PSK_ASSIGN_OR_RETURN(uint64_t hash, ParseHexHash(value));
      if (hash != expected_spec_hash) {
        return Status::FailedPrecondition(
            "checkpoint belongs to a different job spec (hash " +
            std::string(value) + ", expected " +
            HashToHex(expected_spec_hash) + ")");
      }
      hash_seen = true;
    } else if (key == "input_digest") {
      PSK_ASSIGN_OR_RETURN(uint64_t digest, ParseHexHash(value));
      if (digest != expected_input_digest) {
        return Status::FailedPrecondition(
            "checkpoint was computed over different input data (digest " +
            std::string(value) + ", expected " +
            HashToHex(expected_input_digest) + ")");
      }
      digest_seen = true;
    } else if (StartsWith(key, "verdict ")) {
      PSK_ASSIGN_OR_RETURN(NodeEvaluation eval,
                           ParseVerdictPayload(value, line_no));
      std::string node(Trim(key.substr(8)));
      if (!snapshot.verdicts.emplace(node, eval).second) {
        return LineError(line_no, "key given twice");
      }
    } else if (StartsWith(key, "fact ")) {
      if (value != "0" && value != "1") {
        return LineError(line_no, "fact must be 0 or 1");
      }
      std::string node(Trim(key.substr(5)));
      if (!snapshot.facts.emplace(node, value == "1").second) {
        return LineError(line_no, "key given twice");
      }
    } else {
      return LineError(line_no, "unknown key '" + std::string(key) + "'");
    }
  }
  if (!version_seen || !hash_seen || !digest_seen) {
    return Status::InvalidArgument(
        "checkpoint is missing a required header "
        "(version/spec_hash/input_digest)");
  }
  return snapshot;
}

}  // namespace psk
