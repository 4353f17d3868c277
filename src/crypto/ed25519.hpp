#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/sc25519.hpp"

namespace repchain::crypto {

/// Point on edwards25519 in extended twisted Edwards coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
  Fe X, Y, Z, T;
};

[[nodiscard]] Point point_identity();
/// The standard base point B (y = 4/5, even x).
[[nodiscard]] const Point& point_base();

/// Unified addition (add-2008-hwcd-3), also valid for doubling.
[[nodiscard]] Point point_add(const Point& p, const Point& q);
/// Dedicated doubling (dbl-2008-hwcd: 4 squarings, 4 multiplications).
[[nodiscard]] Point point_double(const Point& p);
[[nodiscard]] Point point_neg(const Point& p);

/// [s]B by a fixed-base comb: signed radix-16 digits of s against a table of
/// (j+1) * 256^i * B (i < 32, j < 8), 64 mixed additions and 4 doublings.
/// Constant-time in s: the digit recoding is branch-free and every table
/// lookup scans a whole row with masks. Serves signing, key generation and
/// VRF proofs.
[[nodiscard]] Point point_base_mul(const Scalar& s);

/// sum_i [s_i]P_i + [b]B in one shared doubling chain; see the three-term
/// overload below. Each P_i gets a table of odd multiples computed per call,
/// so a 253-bit scalar costs about 253 doublings and 42 additions.
/// Variable-time: for public scalars and points only.
[[nodiscard]] Point point_multi_scalar_mul(std::span<const std::pair<Scalar, Point>> terms,
                                           const Scalar& b = sc_zero());

/// [a]P + [b]B: point_multi_scalar_mul with one term. Variable-time.
[[nodiscard]] Point point_double_scalar_mul(const Scalar& a, const Point& p,
                                            const Scalar& b);

/// True iff [8]p is the identity: p is the identity or has order 2, 4 or 8.
/// Verification checks its equation multiplied by this cofactor.
[[nodiscard]] bool point_is_small_order(const Point& p);

/// Projective equality (x1 == x2 and y1 == y2 as affine points).
[[nodiscard]] bool point_equal(const Point& p, const Point& q);
[[nodiscard]] bool point_is_identity(const Point& p);

/// RFC 8032 point compression: 255-bit y plus the sign bit of x.
[[nodiscard]] ByteArray<32> point_compress(const Point& p);
/// point_compress of every point with one shared field inversion
/// (Montgomery's trick), so each point after the first costs a few
/// multiplications instead of an inversion.
[[nodiscard]] std::vector<ByteArray<32>> point_compress_all(std::span<const Point> points);
/// Decompression; nullopt for encodings that are not on the curve.
[[nodiscard]] std::optional<Point> point_decompress(const ByteArray<32>& in);

/// 32-byte Ed25519 seed (the RFC 8032 private key).
struct PrivateSeed {
  ByteArray<32> bytes{};
};

/// Compressed public key.
struct PublicKey {
  ByteArray<32> bytes{};
  auto operator<=>(const PublicKey&) const = default;
};

/// 64-byte signature: R (32) || S (32).
struct Signature {
  ByteArray<64> bytes{};
  auto operator<=>(const Signature&) const = default;
};

/// Precomputed tables of an enrolled key (defined in ed25519.cpp).
struct KeyTables;

/// A public key decoded once: its compressed bytes and the curve point they
/// encode. Bytes that are not a curve point, or encode a point of small
/// order (for which anyone could meet the cofactored equation: (R = [S]B, S)
/// passes for every message), give a key in a "not a point" state, under
/// which no signature verifies.
///
/// Two kinds:
///   - one-off: converts implicitly from PublicKey, so a PublicKey can be
///     passed wherever a VerifyingKey is expected. It is decoded on every
///     such call, and verification multiplies -A over the whole 253-bit
///     scalar against odd multiples computed per call.
///   - enrolled (VerifyingKey::enrolled, what the Identity Manager builds per
///     member): the first verification builds tables of the 16 odd multiples
///     of -2^(32j) A for each of the 8 strides j, about 15 KB, so later checks
///     multiply A over 32-bit strides in about 33 doublings. Copies share one
///     build.
class VerifyingKey {
 public:
  VerifyingKey() : VerifyingKey(PublicKey{}) {}
  VerifyingKey(const PublicKey& pub);  // implicit on purpose, see above

  /// An enrolled key. Only a small shared holder is allocated here; the
  /// tables and their storage wait for the first tables() call.
  [[nodiscard]] static VerifyingKey enrolled(const PublicKey& pub);

  [[nodiscard]] const PublicKey& public_key() const { return public_; }
  /// The decoded point A, or nullptr in the "not a point" state.
  [[nodiscard]] const Point* point() const { return point_ ? &*point_ : nullptr; }

  /// The enrolled key's tables, built by the first call from any copy
  /// (thread-safe, once); nullptr for a one-off key or a key in the "not a
  /// point" state.
  [[nodiscard]] const KeyTables* tables() const;

 private:
  struct Lazy;

  PublicKey public_;
  std::optional<Point> point_;
  std::shared_ptr<Lazy> lazy_;  // enrolled keys only
};

/// A key term of a multi-scalar multiplication: [s](-A) for key's point A.
struct KeyTerm {
  Scalar s;
  const VerifyingKey* key = nullptr;  // must hold a curve point
};

/// sum_i [s_i]P_i + sum_k [s_k](-A_k) + [b]B in one shared doubling chain,
/// with signed sliding windows. Every term becomes rows, and one loop runs
/// them all; a row is the digits of a scalar against a table of odd
/// multiples:
///   - a point term: one width-5 row over the whole scalar, with the 8 odd
///     multiples of P_i computed per call;
///   - a key term: one width-6 row per 32-bit stride of s_k against the
///     enrolled key's tables, or one whole-scalar row like a point term for a
///     one-off key;
///   - [b]B: one width-8 row per 32-bit stride against B's static tables
///     (64 odd multiples of 2^(32j) B per stride j, about 61 KB).
/// The chain is as long as the longest row: 33 doublings when only strides
/// take part, 129 with 128-bit point scalars, 253 with full-length ones.
/// Variable-time: for public scalars and points only.
[[nodiscard]] Point point_multi_scalar_mul(std::span<const std::pair<Scalar, Point>> terms,
                                           std::span<const KeyTerm> keys, const Scalar& b);

/// Signing key with the expanded secret cached; deterministic signatures per
/// RFC 8032 (no signing-time randomness — also what makes the VRF well
/// defined, see vrf.hpp). Signing is constant-time in the secret scalar and
/// the nonce: point_base_mul and the scalar reductions are.
class SigningKey {
 public:
  explicit SigningKey(const PrivateSeed& seed);

  [[nodiscard]] const PublicKey& public_key() const { return public_; }
  [[nodiscard]] Signature sign(BytesView message) const;

 private:
  Scalar secret_scalar_;
  ByteArray<32> prefix_{};
  PublicKey public_;
};

/// Verify an Ed25519 signature by RFC 8032 section 5.1.7's cofactored
/// equation [8][S]B == [8]R + [8][k]A, the same one verify_batch checks, so
/// a signature gets one verdict either way. Returns false (never throws) on
/// any malformed input: non-canonical S, off-curve R or A. Variable-time.
///
/// R is not decoded on the way to an accept: the check computes
/// P = [S]B + [k](-A) and accepts when enc(P) is R's bytes. Only a signature
/// that misses that (a forgery, a small-order component in R, a
/// non-canonical encoding of R) decodes R and checks [8](P - R) = O, so the
/// verdict is the equation's either way. Equals read_signature, then
/// signature_point, then signature_point_matches.
[[nodiscard]] bool verify(const VerifyingKey& key, BytesView message, const Signature& sig);

/// A signature read for verification without decoding R: S, the challenge
/// k = SHA-512(enc(R) || enc(A) || M) mod L, and R's bytes as sent.
struct SignatureScalars {
  Scalar s;
  Scalar k;
  ByteArray<32> r;
};

/// verify()'s reading half: nullopt for a signature that verify rejects
/// before any equation (a key in the "not a point" state, non-canonical S).
[[nodiscard]] std::optional<SignatureScalars> read_signature(const VerifyingKey& key,
                                                             BytesView message,
                                                             const Signature& sig);

/// P = [S]B + [k](-A): the point R must be, up to a small-order component,
/// for the signature to verify. `key` must be the one `sig` was read under
/// (a key holding a curve point).
[[nodiscard]] Point signature_point(const VerifyingKey& key, const SignatureScalars& sig);

/// verify()'s verdict given P = signature_point(...) and p_enc =
/// point_compress(P): true when p_enc equals R's bytes byte for byte;
/// otherwise R must decode and [8](P - R) be the identity.
[[nodiscard]] bool signature_point_matches(const Point& p, const ByteArray<32>& p_enc,
                                           const ByteArray<32>& r);

/// A signature decoded for a combined equation: S, the point R and the
/// challenge k.
struct SignatureParts {
  Scalar s;
  Point r;
  Scalar k;
};

/// read_signature with R decoded: nullopt as well when R is not a curve
/// point. verify_batch's combined equation needs every R as a point.
[[nodiscard]] std::optional<SignatureParts> decode_signature(const VerifyingKey& key,
                                                             BytesView message,
                                                             const Signature& sig);

}  // namespace repchain::crypto
