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

/// A well-formed item: its key, its decoded signature and its position in
/// the caller's batch.
struct Decoded {
  const VerifyingKey* key;
  SignatureParts parts;
  std::size_t index;
};

/// True iff every item meets verify()'s equation. One item checks that
/// equation itself (about 65 doublings under an enrolled key); several check
/// the combined one (about 129):
///
///   [8]((sum z_i S_i) B - sum z_i R_i - sum_keys (sum z_i k_i) A) == 0
///
/// where the items under one key share one scalar, and so one term.
bool all_hold(std::span<const Decoded> items, Rng& rng) {
  if (items.empty()) return true;
  if (items.size() == 1) return check_signature(*items[0].key, items[0].parts);

  Scalar b_coeff = sc_zero();
  std::vector<std::pair<Scalar, Point>> r_terms;
  std::vector<KeyTerm> key_terms;
  r_terms.reserve(items.size());
  key_terms.reserve(items.size());
  for (const Decoded& d : items) {
    const Scalar z = random_z(rng);
    b_coeff = sc_muladd(z, d.parts.s, b_coeff);
    r_terms.emplace_back(z, point_neg(d.parts.r));
    const auto same_key = std::find_if(key_terms.begin(), key_terms.end(), [&](const KeyTerm& t) {
      return t.key->public_key() == d.key->public_key();
    });
    if (same_key == key_terms.end()) {
      key_terms.push_back(KeyTerm{sc_muladd(z, d.parts.k, sc_zero()), d.key});
    } else {
      same_key->s = sc_muladd(z, d.parts.k, same_key->s);
    }
  }
  return point_is_small_order(point_multi_scalar_mul(r_terms, key_terms, b_coeff));
}

}  // namespace

bool verify_batch(std::span<const BatchItem> items, Rng& rng) {
  std::vector<Decoded> decoded;
  decoded.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto parts = decode_signature(items[i].pub, items[i].message, items[i].sig);
    if (!parts) return false;
    decoded.push_back(Decoded{&items[i].pub, *parts, i});
  }
  return all_hold(decoded, rng);
}

std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items, Rng& rng) {
  // A malformed item is false on its own, as verify decides it, and stays
  // out of the equation that settles the rest.
  std::vector<bool> result(items.size(), false);
  std::vector<Decoded> decoded;
  decoded.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (const auto parts = decode_signature(items[i].pub, items[i].message, items[i].sig)) {
      decoded.push_back(Decoded{&items[i].pub, *parts, i});
    }
  }
  if (all_hold(decoded, rng)) {
    for (const Decoded& d : decoded) result[d.index] = true;
  } else if (decoded.size() > 1) {
    for (const Decoded& d : decoded) result[d.index] = check_signature(*d.key, d.parts);
  }
  return result;
}

}  // namespace repchain::crypto
