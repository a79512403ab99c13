#include "psk/table/value_store.h"

#include <algorithm>
#include <cmath>

#include "psk/common/check.h"

namespace psk {
namespace {

/// Interning equality: same dynamic type and equal payload. Stricter than
/// Value::operator== (which treats int64 5 and double 5.0 as equal) so a
/// cell reads back with exactly the type it was written with; within one
/// typed table column the two relations coincide.
bool TypedEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

/// Hash consistent with TypedEqual: the type index is mixed in so the
/// numeric classes do not alias, and doubles are normalized so 0.0 and
/// -0.0 (TypedEqual-equal) hash alike.
size_t TypedHash(const Value& v) {
  size_t seed = static_cast<size_t>(v.type()) * 0x9e3779b97f4a7c15ULL;
  size_t h;
  switch (v.type()) {
    case ValueType::kNull:
      h = 0;
      break;
    case ValueType::kInt64:
      h = std::hash<int64_t>()(v.AsInt64());
      break;
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // merge -0.0
      h = std::hash<double>()(d);
      break;
    }
    case ValueType::kString:
      h = std::hash<std::string>()(v.AsString());
      break;
    default:
      h = 0;
  }
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hot classification: the values that repeat heavily in microdata —
/// nulls, numbers, and short strings (categorical codes, interval
/// labels). Long strings are almost always near-unique free text; they
/// go straight to the hash shards.
bool IsHot(const Value& v) {
  if (v.type() != ValueType::kString) return true;
  return v.AsString().size() <= 24;
}

size_t StringPayloadBytes(const Value& v) {
  if (v.type() != ValueType::kString) return 0;
  const std::string& s = v.AsString();
  // Small strings live in the SSO buffer already counted in sizeof(Value).
  return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
}

}  // namespace

size_t ValueStore::Shard::DerefHash::operator()(const Value* v) const {
  return TypedHash(*v);
}

bool ValueStore::Shard::DerefEq::operator()(const Value* a,
                                            const Value* b) const {
  return TypedEqual(*a, *b);
}

ValueStore::ValueStore() {
  // Slot 0 of shard 0 is the null sentinel, so kNullId works in every
  // store without interning.
  Shard& hot = shards_[0];
  hot.index.emplace(AppendSlot(&hot, kHotShardSlots, Value()), 0);
}

ValueStore::~ValueStore() {
  for (Shard& shard : shards_) {
    for (std::atomic<Value*>& block : shard.blocks) {
      delete[] block.load();
    }
  }
}

Value* ValueStore::AppendSlot(Shard* shard, size_t cap, const Value& value) {
  const size_t slot = shard->size;
  const size_t block = BlockOf(slot);
  Value* slots = shard->blocks[block].load();
  if (slots == nullptr) {
    const size_t len = std::min(kFirstBlockSlots << block, cap - slot);
    slots = new Value[len];
    shard->capacity += len;
    shard->blocks[block].store(slots);
  }
  Value* stored = &slots[slot - BlockStart(block)];
  *stored = value;
  ++shard->size;
  return stored;
}

ValueId ValueStore::InternInShard(Shard* shard, ValueId base, size_t cap,
                                  const Value& value) {
  std::lock_guard<std::mutex> lock(shard->mutex);
  auto it = shard->index.find(&value);
  if (it != shard->index.end()) return base | it->second;
  size_t offset = shard->size;
  if (offset >= cap) {
    return kHotShardFull;  // only reachable with cap == kHotShardSlots
  }
  const Value* stored = AppendSlot(shard, cap, value);
  shard->payload_bytes += StringPayloadBytes(*stored);
  shard->index.emplace(stored, static_cast<uint32_t>(offset));
  return base | static_cast<uint32_t>(offset);
}

ValueId ValueStore::Intern(const Value& value) {
  if (value.is_null()) return kNullId;
  if (IsHot(value)) {
    ValueId id = InternInShard(&shards_[0], 0, kHotShardSlots, value);
    if (id != kHotShardFull) return id;
    // Hot shard full: fall through to the hash shards.
  }
  size_t hash = TypedHash(value);
  // Shard 0 is reserved for hot values; hash-routed values spread over
  // the remaining shards.
  size_t shard_idx = 1 + hash % (kNumShards - 1);
  ValueId base = static_cast<ValueId>(shard_idx) << kSlotBits;
  ValueId id =
      InternInShard(&shards_[shard_idx], base, kMaxShardSlots, value);
  PSK_CHECK_MSG(id != kHotShardFull, "ValueStore shard overflow");
  return id;
}

size_t ValueStore::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.size;
  }
  return total;
}

size_t ValueStore::ApproxBytes() const {
  // Index node: key pointer + value + hash-chain pointers, plus the
  // bucket array head per bucket (same accounting style as
  // GroupByScratch::ApproxBytes).
  constexpr size_t kIndexNodeBytes =
      sizeof(const Value*) + sizeof(uint32_t) + 3 * sizeof(void*);
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.capacity * sizeof(Value) + shard.payload_bytes;
    total += shard.index.size() * kIndexNodeBytes +
             shard.index.bucket_count() * sizeof(void*);
  }
  return total;
}

}  // namespace psk
