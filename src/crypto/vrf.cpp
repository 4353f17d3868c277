#include "crypto/vrf.hpp"

#include "crypto/batch_verify.hpp"

namespace repchain::crypto {

namespace {
constexpr std::string_view kDomain = "repchain-vrf";

Hash512 output_from_proof(const Signature& proof) {
  return sha512_concat(
      {BytesView(reinterpret_cast<const std::uint8_t*>(kDomain.data()), kDomain.size()),
       view(proof.bytes)});
}
}  // namespace

VrfResult vrf_evaluate(const SigningKey& key, BytesView alpha) {
  VrfResult r;
  r.proof = key.sign(alpha);
  r.output = output_from_proof(r.proof);
  return r;
}

std::optional<Hash512> vrf_verify(const VerifyingKey& key, BytesView alpha,
                                  const Signature& proof) {
  if (!verify(key, alpha, proof)) return std::nullopt;
  return output_from_proof(proof);
}

std::optional<std::vector<Hash512>> vrf_verify_all(const VerifyingKey& key,
                                                   std::span<const Bytes> alphas,
                                                   std::span<const Signature> proofs, Rng& rng) {
  if (alphas.size() != proofs.size()) return std::nullopt;
  std::vector<BatchItem> items;
  items.reserve(proofs.size());
  for (std::size_t i = 0; i < proofs.size(); ++i) {
    items.push_back(BatchItem{key, alphas[i], proofs[i]});
  }
  if (!verify_batch(items, rng)) return std::nullopt;
  std::vector<Hash512> outputs;
  outputs.reserve(proofs.size());
  for (const Signature& proof : proofs) outputs.push_back(output_from_proof(proof));
  return outputs;
}

std::uint64_t vrf_output_to_u64(const Hash512& output) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | output[i];
  return v;
}

}  // namespace repchain::crypto
