#ifndef PSK_JOBS_CHECKPOINT_IO_H_
#define PSK_JOBS_CHECKPOINT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "psk/algorithms/search_common.h"
#include "psk/common/result.h"

namespace psk {

/// Serialization of a SearchSnapshot for the crash-recovery checkpoint
/// file. Text, line-oriented, self-describing:
///
///   psk_checkpoint_version = 1
///   spec_hash = 1f2e3d4c5b6a7988
///   input_digest = 8899aabbccddeeff
///   verdict 1,0,2 = 1 0 0 5     # satisfied stage suppressed num_groups
///   fact s:0:1|2,0 = 1
///
/// `spec_hash` binds the checkpoint to the job spec that produced it
/// (JobSpecHash) and `input_digest` to the microdata it was computed over
/// (TableDigest): cached verdicts are functions of (data, requirements),
/// so a stale checkpoint from a different configuration *or different
/// input* can never seed a resumed search. The whole file is always
/// rewritten atomically (AtomicWriteFile), so a reader observes either a
/// complete checkpoint or none.
std::string SerializeSnapshot(const SearchSnapshot& snapshot,
                              uint64_t spec_hash, uint64_t input_digest);

/// Inverse of SerializeSnapshot. Fails with kFailedPrecondition when the
/// embedded spec hash or input digest differs from the expected value (the
/// checkpoint belongs to a different spec or different input data) and
/// kInvalidArgument on malformed input, including a verdict no evaluation
/// records and a key given twice.
Result<SearchSnapshot> ParseSnapshot(std::string_view text,
                                     uint64_t expected_spec_hash,
                                     uint64_t expected_input_digest);

/// FNV-1a 64-bit hash of `text`, optionally chained from a previous hash.
/// Shared by the spec hash and the input digest of the job journal.
uint64_t Fnv1aHash(std::string_view text,
                   uint64_t seed = 1469598103934665603ULL);

/// Lower-case hexadecimal rendering of a 64-bit hash, zero-padded to 16
/// digits; ParseHexHash is its inverse.
std::string HashToHex(uint64_t hash);
Result<uint64_t> ParseHexHash(std::string_view hex);

}  // namespace psk

#endif  // PSK_JOBS_CHECKPOINT_IO_H_
