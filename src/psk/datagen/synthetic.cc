#include "psk/datagen/synthetic.h"

#include <algorithm>
#include <cmath>

#include "psk/common/random.h"

namespace psk {
namespace {

// Balanced taxonomy over c ranked values: level l merges fanout^l
// consecutive ranks into one bucket; the top level is "*".
Result<std::shared_ptr<TaxonomyHierarchy>> BuildBalancedHierarchy(
    const SyntheticAttribute& attr) {
  if (attr.hierarchy_levels < 2) {
    return Status::InvalidArgument(
        "hierarchy_levels must be >= 2 for attribute " + attr.name);
  }
  int inner_levels = attr.hierarchy_levels - 2;  // between ground and "*"
  double fanout = 2.0;
  if (inner_levels > 0) {
    fanout = std::max(
        2.0, std::ceil(std::pow(static_cast<double>(attr.cardinality),
                                1.0 / (inner_levels + 1))));
  }
  TaxonomyHierarchy::Builder builder(attr.name, attr.hierarchy_levels);
  for (size_t rank = 0; rank < attr.cardinality; ++rank) {
    std::vector<std::string> ancestors;
    size_t bucket = rank;
    for (int level = 1; level <= inner_levels; ++level) {
      bucket = static_cast<size_t>(bucket / fanout);
      ancestors.push_back(attr.name + "_g" + std::to_string(level) + "_" +
                          std::to_string(bucket));
    }
    ancestors.push_back("*");
    builder.AddValue(attr.name + "_v" + std::to_string(rank),
                     std::move(ancestors));
  }
  return builder.Build();
}

}  // namespace

SyntheticChunkGenerator::SyntheticChunkGenerator(SyntheticSpec spec,
                                                 Schema schema, uint64_t seed)
    : spec_(std::move(spec)),
      schema_(std::move(schema)),
      rng_(seed),
      chunk_ranks_(spec_.attributes.size()) {
  for (const SyntheticAttribute& attr : spec_.attributes) {
    rank_codes_.emplace_back(attr.cardinality, kNoCode);
  }
}

Result<SyntheticChunkGenerator> SyntheticChunkGenerator::Create(
    const SyntheticSpec& spec, uint64_t seed) {
  if (spec.attributes.empty()) {
    return Status::InvalidArgument("spec has no attributes");
  }
  std::vector<Attribute> schema_attrs;
  schema_attrs.reserve(spec.attributes.size());
  for (const SyntheticAttribute& attr : spec.attributes) {
    if (attr.cardinality == 0) {
      return Status::InvalidArgument("attribute '" + attr.name +
                                     "' has zero cardinality");
    }
    schema_attrs.push_back({attr.name, ValueType::kString, attr.role});
  }
  PSK_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(schema_attrs)));
  return SyntheticChunkGenerator(spec, std::move(schema), seed);
}

Result<size_t> SyntheticChunkGenerator::NextChunk(size_t max_rows,
                                                  IngestChunk* chunk) {
  if (max_rows == 0) return Status::InvalidArgument("max_rows must be > 0");
  size_t remaining = spec_.num_rows - rows_generated_;
  size_t rows = std::min(max_rows, remaining);
  chunk->Reset(schema_, rows);
  // Codes are chunk-local: forget the previous chunk's ranks.
  for (size_t c = 0; c < spec_.attributes.size(); ++c) {
    for (size_t rank : chunk_ranks_[c]) rank_codes_[c][rank] = kNoCode;
    chunk_ranks_[c].clear();
  }
  // Row-major draw order (attributes inner) is the determinism contract:
  // it matches the legacy one-Rng-per-table row loop exactly, so chunk
  // sizing can never change the generated data. Each rank becomes a
  // dictionary entry on its first draw in the chunk.
  for (size_t row = 0; row < rows; ++row) {
    for (size_t c = 0; c < spec_.attributes.size(); ++c) {
      const SyntheticAttribute& attr = spec_.attributes[c];
      size_t rank = rng_.Zipf(attr.cardinality, attr.zipf_theta);
      uint32_t& code = rank_codes_[c][rank];
      if (code == kNoCode) {
        code = static_cast<uint32_t>(chunk_ranks_[c].size());
        chunk_ranks_[c].push_back(rank);
        chunk->dictionary[c].push_back(
            Value(attr.name + "_v" + std::to_string(rank)));
      }
      chunk->codes[c].push_back(code);
    }
  }
  rows_generated_ += rows;
  return rows;
}

Result<HierarchySet> SyntheticChunkGenerator::BuildHierarchies() const {
  std::vector<std::shared_ptr<const AttributeHierarchy>> hierarchies;
  for (const SyntheticAttribute& attr : spec_.attributes) {
    if (attr.role != AttributeRole::kKey) continue;
    PSK_ASSIGN_OR_RETURN(auto hierarchy, BuildBalancedHierarchy(attr));
    hierarchies.push_back(std::move(hierarchy));
  }
  return HierarchySet::Create(schema_, std::move(hierarchies));
}

Result<SyntheticData> SyntheticGenerate(const SyntheticSpec& spec,
                                        uint64_t seed) {
  // The eager generator is now a thin drain of the streaming one: same
  // Rng, same draw order, so existing seeds reproduce bit-for-bit.
  PSK_ASSIGN_OR_RETURN(SyntheticChunkGenerator gen,
                       SyntheticChunkGenerator::Create(spec, seed));
  Table table(gen.schema());
  table.ReserveRows(spec.num_rows);
  IngestChunk chunk;
  constexpr size_t kChunkRows = 64 * 1024;
  for (;;) {
    PSK_ASSIGN_OR_RETURN(size_t rows, gen.NextChunk(kChunkRows, &chunk));
    if (rows == 0) break;
    PSK_RETURN_IF_ERROR(table.AppendChunk(&chunk));
  }
  PSK_ASSIGN_OR_RETURN(HierarchySet set, gen.BuildHierarchies());
  return SyntheticData{std::move(table), std::move(set)};
}

SyntheticSpec MakeUniformSpec(size_t num_rows, size_t num_key,
                              size_t key_card, size_t num_conf,
                              size_t conf_card, double conf_theta) {
  SyntheticSpec spec;
  spec.num_rows = num_rows;
  for (size_t i = 0; i < num_key; ++i) {
    SyntheticAttribute attr;
    attr.name = "K" + std::to_string(i + 1);
    attr.role = AttributeRole::kKey;
    attr.cardinality = key_card;
    attr.zipf_theta = 0.0;
    attr.hierarchy_levels = 3;
    spec.attributes.push_back(std::move(attr));
  }
  for (size_t i = 0; i < num_conf; ++i) {
    SyntheticAttribute attr;
    attr.name = "S" + std::to_string(i + 1);
    attr.role = AttributeRole::kConfidential;
    attr.cardinality = conf_card;
    attr.zipf_theta = conf_theta;
    attr.hierarchy_levels = 2;
    spec.attributes.push_back(std::move(attr));
  }
  return spec;
}

}  // namespace psk
