#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/speck.h"

namespace tempriv::crypto {

/// The vector instruction set the lane kernels were compiled against
/// ("avx512f", "avx2", "sse2", "neon", …). Reported from inside the crypto
/// library because it may be built for the host CPU (TEMPRIV_NATIVE_CRYPTO)
/// while the rest of the tree targets the baseline architecture.
const char* keystream_isa() noexcept;

/// CTR-mode stream encryption over Speck64/128.
///
/// The keystream block for index i is E_K(nonce XOR i) where the 64-bit
/// counter occupies the whole block; a fresh nonce per packet (we use the
/// origin id + application sequence number mixed through SplitMix-style
/// constants) keeps (nonce, i) pairs unique. CTR is symmetric: encrypt and
/// decrypt are the same operation.
///
/// Counter blocks are independent, so the keystream is generated in lane
/// waves: 8 (or 4) counters advance through the cipher's rounds in lockstep
/// via Speck64_128::encrypt_words_lanes, and whole payloads are filled per
/// round-key schedule with no per-block temporaries and no heap traffic.
/// The block-at-a-time scalar reference (crypto/reference.h) produces
/// bit-identical bytes (see the width-equivalence property tests).
class CtrCipher {
 public:
  /// Lane widths of the batched keystream walk: wide waves for long runs,
  /// narrow ones for the 2–7 block payload sizes the packet path uses.
  static constexpr int kWideLanes = 8;
  static constexpr int kNarrowLanes = 4;

  explicit CtrCipher(const Speck64_128::Key& key) noexcept : cipher_(key) {}

  /// XORs the keystream for (nonce) into `data` in place.
  void crypt(std::uint64_t nonce, std::span<std::uint8_t> data) const noexcept;

  /// Encrypts/decrypts `in` into caller-provided `out` storage (the two may
  /// alias exactly, but must not partially overlap). `out` must be at least
  /// `in.size()` bytes; only the first `in.size()` are written. Multi-block:
  /// the whole payload is processed in lane waves under one key schedule.
  void xor_keystream(std::uint64_t nonce, std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const noexcept;

  /// Writes raw keystream bytes for (nonce) into caller-provided storage —
  /// whole blocks are produced per lane wave with no per-block temporaries.
  void keystream(std::uint64_t nonce,
                 std::span<std::uint8_t> out) const noexcept;

  /// One 8-lane wave under *per-lane nonces* at a shared counter:
  /// out[l] = E_K(nonces[l] ^ counter). This is the batch-seal layout —
  /// lane l carries packet l of a burst, and successive waves walk the
  /// shared block index 0, 1, 2… across all eight packets, so a burst's
  /// keystreams are filled with one round-key schedule and full lanes.
  void keystream_wave8(const std::uint64_t nonces[8], std::uint64_t counter,
                       std::uint64_t out[8]) const noexcept;

  /// Convenience: returns an encrypted/decrypted copy (allocates).
  std::vector<std::uint8_t> crypt_copy(std::uint64_t nonce,
                                       std::span<const std::uint8_t> data) const;

 private:
  /// Keystream block i as a little-endian 64-bit word (scalar reference).
  std::uint64_t keystream_word(std::uint64_t nonce,
                               std::uint64_t counter) const noexcept;

  /// `Lanes` keystream words for consecutive counters starting at
  /// `counter`, all under one nonce: out[l] = E_K(nonce ^ (counter + l)).
  template <int Lanes>
  void keystream_wave(std::uint64_t nonce, std::uint64_t counter,
                      std::uint64_t* out) const noexcept;

  Speck64_128 cipher_;
};

/// CBC-MAC over Speck64/128 producing a 64-bit tag.
///
/// The message length (in bytes) is encrypted as block zero, which closes
/// the classic variable-length CBC-MAC forgery; zero padding completes the
/// final block. Use a key independent from the CTR key. The chaining state
/// is two registers end to end — no temporaries, no allocation. A single
/// chain is inherently sequential, which is why the batch entry point runs
/// eight chains in lockstep lanes instead.
class CbcMac {
 public:
  explicit CbcMac(const Speck64_128::Key& key) noexcept : cipher_(key) {}

  std::uint64_t tag(std::span<const std::uint8_t> data) const noexcept;

  /// Tags eight equal-length messages in lockstep: lane l carries message
  /// l's CBC chain, every chain sees exactly the arithmetic tag() performs,
  /// and the eight dependent chains fill the lanes a single chain leaves
  /// idle. Bit-identical to eight tag() calls.
  void tag8(const std::uint8_t* const msgs[8], std::size_t len,
            std::uint64_t tags[8]) const noexcept;

  /// Constant-time-ish verification (single 64-bit compare).
  bool verify(std::span<const std::uint8_t> data,
              std::uint64_t expected_tag) const noexcept {
    return tag(data) == expected_tag;
  }

 private:
  Speck64_128 cipher_;
};

}  // namespace tempriv::crypto
