#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace repchain::crypto {

/// SHA-256 digest (FIPS 180-4), implemented from scratch. This is the
/// collision-resistant hash H used for block chaining and Merkle roots.
///
/// The compression function has two implementations: the portable rounds,
/// and on x86-64 the SHA extensions' rounds. A default-constructed hasher
/// runs the SHA extensions when CPUID reports them (checked once per
/// process), the portable rounds otherwise.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = ByteArray<kDigestSize>;
  /// One compression: absorb a 64-byte block into the 8-word state.
  using Compress = void (*)(std::uint32_t* state, const std::uint8_t* block);

  Sha256();
  /// A hasher on a chosen compression function (tests and benchmarks compare
  /// the implementations through it).
  explicit Sha256(Compress compress);

  /// Absorb more input. May be called repeatedly.
  Sha256& update(BytesView data);

  /// Finalize and return the digest. The object must not be reused after.
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(BytesView data);

 private:
  Compress compress_;
  std::uint32_t state_[8];
  std::uint8_t buffer_[kBlockSize];
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

using Hash256 = Sha256::Digest;

/// The portable compression function: the reference for the other.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* block);

#if defined(__x86_64__)
/// True iff this CPU has the SHA extensions (and SSE4.1, which every CPU
/// with them has).
[[nodiscard]] bool sha256_has_sha_extensions();
/// The compression function on the SHA extensions. Call it only where
/// sha256_has_sha_extensions() is true.
void sha256_compress_sha_extensions(std::uint32_t* state, const std::uint8_t* block);
#endif

/// Hash arbitrary many parts as a single message.
[[nodiscard]] Hash256 sha256_concat(std::initializer_list<BytesView> parts);

}  // namespace repchain::crypto
