#include "crypto/payload.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/wordio.h"

namespace tempriv::crypto {

namespace {

std::uint64_t nonce_for(std::uint32_t origin_id, std::uint32_t app_seq) noexcept {
  // (origin, app_seq) is unique per packet; golden-ratio mixing spreads the
  // pair over the 64-bit nonce space.
  return (static_cast<std::uint64_t>(origin_id) << 32 | app_seq) *
         0x9e3779b97f4a7c15ULL;
}

void serialize(const SensorPayload& payload,
               std::uint8_t out[SensorPayload::kWireBytes]) noexcept {
  store_le(out, std::bit_cast<std::uint64_t>(payload.reading), 8);
  store_le(out + 8, payload.app_seq, 4);
  store_le(out + 12, std::bit_cast<std::uint64_t>(payload.creation_time), 8);
}

SensorPayload deserialize(
    const std::uint8_t plain[SensorPayload::kWireBytes]) noexcept {
  SensorPayload payload;
  payload.reading = std::bit_cast<double>(load_le(plain, 8));
  payload.app_seq = static_cast<std::uint32_t>(load_le(plain + 8, 4));
  payload.creation_time = std::bit_cast<double>(load_le(plain + 12, 8));
  return payload;
}

Speck64_128::Key derive_subkey(const Speck64_128::Key& master, std::uint8_t domain) {
  // Domain-separated subkey: encrypt two counter blocks under the master key.
  Speck64_128 kdf(master);
  Speck64_128::Key out{};
  for (int half = 0; half < 2; ++half) {
    Speck64_128::Block block{};
    block[0] = domain;
    block[1] = static_cast<std::uint8_t>(half);
    kdf.encrypt_block(block);
    std::memcpy(out.data() + half * 8, block.data(), 8);
  }
  return out;
}

}  // namespace

PayloadCodec::PayloadCodec(const Speck64_128::Key& master_key) noexcept
    : ctr_(derive_subkey(master_key, 0x01)), mac_(derive_subkey(master_key, 0x02)) {}

SealedPayload PayloadCodec::seal(const SensorPayload& payload,
                                 std::uint32_t origin_id) const noexcept {
  // Serialize into a stack buffer, encrypt straight into the sealed
  // payload's inline storage (one lane wave covers all three blocks of the
  // wire format), MAC the result — zero heap traffic.
  std::uint8_t plain[SensorPayload::kWireBytes];
  serialize(payload, plain);

  SealedPayload sealed;
  sealed.nonce = nonce_for(origin_id, payload.app_seq);
  sealed.ciphertext.resize_for_overwrite(SensorPayload::kWireBytes);
  ctr_.xor_keystream(sealed.nonce, plain, sealed.ciphertext.bytes());
  sealed.tag = mac_.tag(sealed.ciphertext.bytes());
  return sealed;
}

std::optional<SensorPayload> PayloadCodec::open(
    const SealedPayload& sealed) const noexcept {
  if (sealed.ciphertext.size() != SensorPayload::kWireBytes) return std::nullopt;
  if (!mac_.verify(sealed.ciphertext.bytes(), sealed.tag)) return std::nullopt;
  std::uint8_t plain[SensorPayload::kWireBytes];
  ctr_.xor_keystream(sealed.nonce, sealed.ciphertext.bytes(), plain);
  return deserialize(plain);
}

void PayloadCodec::seal_batch(std::span<const SensorPayload> payloads,
                              std::uint32_t origin_id,
                              std::span<SealedPayload> out) const noexcept {
  std::size_t i = 0;
  constexpr std::size_t kWire = SensorPayload::kWireBytes;
  constexpr std::size_t kBlock = Speck64_128::kBlockBytes;
  constexpr std::size_t kBlocks = (kWire + kBlock - 1) / kBlock;
  for (; i + kBatchLanes <= payloads.size(); i += kBatchLanes) {
    std::uint8_t plain[kBatchLanes][kWire];
    std::uint64_t nonces[kBatchLanes];
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      const SensorPayload& p = payloads[i + l];
      serialize(p, plain[l]);
      nonces[l] = nonce_for(origin_id, p.app_seq);
      out[i + l].nonce = nonces[l];
      out[i + l].ciphertext.resize_for_overwrite(kWire);
    }
    // Keystream waves: lane l is packet l, successive waves walk the shared
    // block index — per lane exactly the bytes seal()'s CTR walk produces.
    std::uint64_t words[kBatchLanes];
    for (std::size_t c = 0; c < kBlocks; ++c) {
      ctr_.keystream_wave8(nonces, c, words);
      const std::size_t off = c * kBlock;
      const std::size_t chunk = std::min(kBlock, kWire - off);
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        store_le(out[i + l].ciphertext.data() + off,
                 load_le(plain[l] + off, chunk) ^ words[l], chunk);
      }
    }
    const std::uint8_t* ciphertexts[kBatchLanes];
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      ciphertexts[l] = out[i + l].ciphertext.data();
    }
    std::uint64_t tags[kBatchLanes];
    mac_.tag8(ciphertexts, kWire, tags);
    for (std::size_t l = 0; l < kBatchLanes; ++l) out[i + l].tag = tags[l];
  }
  for (; i < payloads.size(); ++i) out[i] = seal(payloads[i], origin_id);
}

std::size_t PayloadCodec::open_batch(
    std::span<const SealedPayload> sealed,
    std::span<std::optional<SensorPayload>> out) const noexcept {
  std::size_t opened = 0;
  std::size_t i = 0;
  constexpr std::size_t kWire = SensorPayload::kWireBytes;
  constexpr std::size_t kBlock = Speck64_128::kBlockBytes;
  constexpr std::size_t kBlocks = (kWire + kBlock - 1) / kBlock;
  for (; i + kBatchLanes <= sealed.size(); i += kBatchLanes) {
    bool sizes_ok = true;
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      sizes_ok &= sealed[i + l].ciphertext.size() == kWire;
    }
    if (!sizes_ok) {
      // A malformed length in the group: fall back element-wise so the
      // rejects land exactly where open() would put them.
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        out[i + l] = open(sealed[i + l]);
        opened += out[i + l].has_value();
      }
      continue;
    }
    const std::uint8_t* ciphertexts[kBatchLanes];
    std::uint64_t nonces[kBatchLanes];
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      ciphertexts[l] = sealed[i + l].ciphertext.data();
      nonces[l] = sealed[i + l].nonce;
    }
    std::uint64_t tags[kBatchLanes];
    mac_.tag8(ciphertexts, kWire, tags);
    // Decrypt all lanes unconditionally (three waves), then select by tag:
    // cheaper than re-batching the survivors of the MAC check.
    std::uint8_t plain[kBatchLanes][kWire];
    std::uint64_t words[kBatchLanes];
    for (std::size_t c = 0; c < kBlocks; ++c) {
      ctr_.keystream_wave8(nonces, c, words);
      const std::size_t off = c * kBlock;
      const std::size_t chunk = std::min(kBlock, kWire - off);
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        store_le(plain[l] + off,
                 load_le(ciphertexts[l] + off, chunk) ^ words[l], chunk);
      }
    }
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      if (tags[l] == sealed[i + l].tag) {
        out[i + l] = deserialize(plain[l]);
        ++opened;
      } else {
        out[i + l] = std::nullopt;
      }
    }
  }
  for (; i < sealed.size(); ++i) {
    out[i] = open(sealed[i]);
    opened += out[i].has_value();
  }
  return opened;
}

}  // namespace tempriv::crypto
