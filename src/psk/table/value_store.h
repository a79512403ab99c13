#ifndef PSK_TABLE_VALUE_STORE_H_
#define PSK_TABLE_VALUE_STORE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "psk/table/value.h"

namespace psk {

/// Id of one interned value inside a ValueStore. The high kShardBits bits
/// select the shard, the rest the slot within it. Id 0 is always null.
using ValueId = uint32_t;

/// Sharded, interned value dictionary — the cell storage behind Table.
///
/// Every distinct cell value of a table lives here exactly once; cells are
/// 32-bit ValueIds into the store. Interning is thread-safe and designed
/// for parallel ingest: the store is split into kNumShards shards, each
/// with its own mutex, slot blocks and lookup index, so concurrent
/// Intern() calls on different shards never contend. Shard 0 is the
/// *hot shard*: nulls, numbers and short strings — the values that
/// dominate real microdata — are interned there first (capped at
/// kHotShardSlots entries so its flat index stays cache-resident);
/// everything else is routed to a shard by value hash.
///
/// Guarantees:
///  - One id per distinct value: two Values intern to the same id iff
///    they have the same type() and equal payload (int64 and double are
///    distinct classes here even when numerically equal, so a cell reads
///    back with exactly the dynamic type it was written with; doubles
///    compare by value, merging 0.0 and -0.0).
///  - Id stability: an id, once returned, refers to the same Value for
///    the lifetime of the store. Slots live in per-shard blocks that never
///    move once allocated, so Get() needs no lock and its references are
///    never invalidated by later interning, even concurrent interning.
///  - Id 0 is the null value in every store.
///
/// Ids are assignment-order dependent: parallel ingest may assign
/// different ids across runs. Nothing downstream may order or compare
/// *by id value* across columns — consumers either dereference ids
/// (Get), test same-column equality (equal cells have equal ids), or
/// re-number by first occurrence in row order (EncodedTable::Build),
/// all of which are id-assignment invariant.
class ValueStore {
 public:
  static constexpr int kShardBits = 4;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;
  static constexpr uint32_t kSlotBits = 32 - kShardBits;
  /// Maximum distinct values per shard (2^28 with 16 shards).
  static constexpr size_t kMaxShardSlots = size_t{1} << kSlotBits;
  /// Hot-shard cap: beyond this, hot-classed values spill to hash shards.
  static constexpr size_t kHotShardSlots = size_t{1} << 16;
  static constexpr ValueId kNullId = 0;

  ValueStore();
  ~ValueStore();

  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  /// Interns `value`, returning its id; equal values (same type, equal
  /// payload) always yield the same id, under any interleaving of
  /// concurrent callers. Aborts via PSK_CHECK if a shard overflows its
  /// 2^28-slot id space (≈4.3B distinct values store-wide).
  ValueId Intern(const Value& value);

  /// The interned value for `id`; the reference is stable for the life of
  /// the store. `id` must have been returned by this store's Intern. Safe
  /// to call while other threads intern.
  const Value& Get(ValueId id) const {
    const Shard& shard = shards_[id >> kSlotBits];
    const size_t slot = id & (kMaxShardSlots - 1);
    const size_t block = BlockOf(slot);
    return shard.blocks[block].load()[slot - BlockStart(block)];
  }

  /// Distinct values interned so far (the null sentinel included).
  size_t size() const;

  /// Approximate heap footprint: every allocated slot block (used or not),
  /// string payloads, and the per-shard lookup indexes. The ingest-side
  /// MemoryBudget charge seam (satellite of the scheduler's degradation
  /// ladder): a table's sustained ingest memory is its id columns plus
  /// this.
  size_t ApproxBytes() const;

 private:
  /// Slots live in doubling blocks: block b holds kFirstBlockSlots << b
  /// slots, starting at slot BlockStart(b), so kNumBlocks blocks cover a
  /// shard's whole id space and a block, once allocated, never moves.
  static constexpr int kFirstBlockBits = 4;
  static constexpr size_t kFirstBlockSlots = size_t{1} << kFirstBlockBits;
  static constexpr size_t kNumBlocks = kSlotBits - kFirstBlockBits + 1;
  static size_t BlockOf(size_t slot) {
    return std::bit_width((slot >> kFirstBlockBits) + 1) - 1;
  }
  static size_t BlockStart(size_t block) {
    return (kFirstBlockSlots << block) - kFirstBlockSlots;
  }

  struct Shard {
    mutable std::mutex mutex;
    /// Slot blocks. A block pointer is published under the lock before
    /// any id in the block is handed out, then never changes; Get() reads
    /// it without the lock.
    std::atomic<Value*> blocks[kNumBlocks] = {};
    /// Slots in use / allocated, under the lock.
    size_t size = 0;
    size_t capacity = 0;
    /// Interning index over the slots. Keys point into the blocks
    /// (stable), so no Value is duplicated between index and storage.
    struct DerefHash {
      size_t operator()(const Value* v) const;
    };
    struct DerefEq {
      bool operator()(const Value* a, const Value* b) const;
    };
    std::unordered_map<const Value*, uint32_t, DerefHash, DerefEq> index;
    /// String payload bytes interned into this shard (for ApproxBytes).
    size_t payload_bytes = 0;
  };

  /// Interns into one shard under its lock; `base` is the shard's id
  /// prefix. Returns the id, or kNullId+0xFFFFFFFF... never: aborts on
  /// overflow, except a full hot shard returns kHotShardFull.
  static constexpr ValueId kHotShardFull = 0xFFFFFFFFu;
  ValueId InternInShard(Shard* shard, ValueId base, size_t cap,
                        const Value& value);

  /// Stores `value` in the shard's next free slot (the shard lock held,
  /// size < cap), allocating its block — never more slots than `cap`
  /// allows — when the slot opens one.
  static Value* AppendSlot(Shard* shard, size_t cap, const Value& value);

  Shard shards_[kNumShards];
};

}  // namespace psk

#endif  // PSK_TABLE_VALUE_STORE_H_
