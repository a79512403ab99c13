#ifndef PSK_DATAGEN_SYNTHETIC_H_
#define PSK_DATAGEN_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "psk/common/random.h"
#include "psk/common/result.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/table/table.h"

namespace psk {

/// Generic workload generator for benchmarks and property tests: arbitrary
/// numbers of key and confidential attributes with controllable
/// cardinality and skew.

/// Specification of one synthetic attribute.
struct SyntheticAttribute {
  std::string name;
  AttributeRole role = AttributeRole::kKey;
  /// Number of distinct values ("<name>_v0" ... "<name>_v{c-1}").
  size_t cardinality = 10;
  /// Zipf exponent; 0 = uniform, larger = more skew toward low ranks.
  double zipf_theta = 0.0;
  /// Levels of the generated balanced hierarchy, including the ground
  /// domain and the top "*" (>= 2). Level l groups values by
  /// rank / fanout^l.
  int hierarchy_levels = 3;
};

/// Specification of a synthetic microdata.
struct SyntheticSpec {
  size_t num_rows = 1000;
  std::vector<SyntheticAttribute> attributes;
};

/// A generated microdata plus its hierarchies (for the key attributes).
struct SyntheticData {
  Table table;
  HierarchySet hierarchies;
};

/// Streaming producer of synthetic rows in columnar IngestChunk batches.
///
/// Draws are made row-major (attributes in spec order within a row) from a
/// single Rng, so for a given (spec, seed) the concatenation of all chunks
/// is byte-identical to the table SyntheticGenerate builds — regardless of
/// how the caller sizes its NextChunk requests. This makes the generator a
/// drop-in source for Table::AppendChunk / Anonymizer ingest loops at row
/// counts that should never be materialized as one std::vector<Value> per
/// row: the peak transient is one chunk, not the table.
class SyntheticChunkGenerator {
 public:
  /// Validates the spec and builds the schema. The generator is
  /// self-contained (copies the spec).
  static Result<SyntheticChunkGenerator> Create(const SyntheticSpec& spec,
                                                uint64_t seed);

  const Schema& schema() const { return schema_; }

  /// Fills `chunk` with up to `max_rows` rows (shaped for schema());
  /// returns the number produced, 0 once spec.num_rows have been drawn.
  /// Requires max_rows > 0.
  Result<size_t> NextChunk(size_t max_rows, IngestChunk* chunk);

  /// Rows produced so far across all chunks.
  size_t rows_generated() const { return rows_generated_; }

  /// The balanced hierarchy set for the spec's key attributes — the same
  /// set SyntheticGenerate returns. Independent of generation progress.
  Result<HierarchySet> BuildHierarchies() const;

 private:
  SyntheticChunkGenerator(SyntheticSpec spec, Schema schema, uint64_t seed);

  static constexpr uint32_t kNoCode = 0xFFFFFFFFu;

  SyntheticSpec spec_;
  Schema schema_;
  Rng rng_;
  size_t rows_generated_ = 0;
  /// Per attribute: each rank's code in the current chunk's dictionary
  /// (kNoCode until drawn), and the drawn ranks in code order.
  std::vector<std::vector<uint32_t>> rank_codes_;
  std::vector<std::vector<size_t>> chunk_ranks_;
};

/// Generates a table and a matching hierarchy per key attribute,
/// deterministically from `seed`. The hierarchy for a key attribute with
/// cardinality c and L levels groups ground values into
/// ceil(c / fanout^l) buckets at level l, where fanout = ceil(c^(1/(L-1)));
/// the top level is always the single group "*".
Result<SyntheticData> SyntheticGenerate(const SyntheticSpec& spec,
                                        uint64_t seed);

/// A ready-made spec: `num_key` key attributes of cardinality `key_card`
/// and `num_conf` confidential attributes of cardinality `conf_card` with
/// skew `conf_theta`.
SyntheticSpec MakeUniformSpec(size_t num_rows, size_t num_key,
                              size_t key_card, size_t num_conf,
                              size_t conf_card, double conf_theta = 0.5);

}  // namespace psk

#endif  // PSK_DATAGEN_SYNTHETIC_H_
