#include "crypto/batch_verify.hpp"

#include <algorithm>

namespace repchain::crypto {

namespace {

/// Random 128-bit scalar (top 16 bytes zero): small enough to keep the
/// combination cheap, large enough that adversarial cancellation has
/// probability ~2^-128.
Scalar random_z(Rng& rng) {
  ByteArray<32> b{};
  const Bytes raw = rng.bytes(16);
  std::copy(raw.begin(), raw.end(), b.begin());
  Scalar z = sc_from_bytes(b);
  if (sc_is_zero(z)) {
    b[0] = 1;  // degenerate draw: force non-zero
    z = sc_from_bytes(b);
  }
  return z;
}

}  // namespace

bool verify_batch(std::span<const BatchItem> items, Rng& rng) {
  if (items.empty()) return true;
  if (items.size() == 1) return verify(items[0].pub, items[0].message, items[0].sig);

  std::vector<SignatureParts> parts;
  parts.reserve(items.size());
  for (const BatchItem& item : items) {
    auto decoded = decode_signature(item.pub, item.message, item.sig);
    if (!decoded) return false;
    parts.push_back(*decoded);
  }

  // [8]((sum z_i S_i) B - sum z_i R_i - sum_keys (sum z_i k_i) A) == 0, the
  // items under one key sharing one scalar, and so one term.
  Scalar b_coeff = sc_zero();
  std::vector<std::pair<Scalar, Point>> r_terms;
  std::vector<KeyTerm> key_terms;
  r_terms.reserve(items.size());
  key_terms.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Scalar z = random_z(rng);
    b_coeff = sc_muladd(z, parts[i].s, b_coeff);
    r_terms.emplace_back(z, point_neg(parts[i].r));
    const VerifyingKey& key = items[i].pub;
    const auto same_key = std::find_if(key_terms.begin(), key_terms.end(), [&](const KeyTerm& t) {
      return t.key->public_key() == key.public_key();
    });
    if (same_key == key_terms.end()) {
      key_terms.push_back(KeyTerm{sc_muladd(z, parts[i].k, sc_zero()), &key});
    } else {
      same_key->s = sc_muladd(z, parts[i].k, same_key->s);
    }
  }
  return point_is_small_order(point_multi_scalar_mul(r_terms, key_terms, b_coeff));
}

std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items) {
  // An item verify rejects before any equation stays false; the rest each
  // compute their point P, and one inversion compresses them all.
  std::vector<bool> result(items.size(), false);
  std::vector<std::size_t> index;
  std::vector<ByteArray<32>> r_bytes;
  std::vector<Point> points;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto read = read_signature(items[i].pub, items[i].message, items[i].sig);
    if (!read) continue;
    index.push_back(i);
    r_bytes.push_back(read->r);
    points.push_back(signature_point(items[i].pub, *read));
  }
  const std::vector<ByteArray<32>> encodings = point_compress_all(points);
  for (std::size_t j = 0; j < points.size(); ++j) {
    result[index[j]] = signature_point_matches(points[j], encodings[j], r_bytes[j]);
  }
  return result;
}

}  // namespace repchain::crypto
