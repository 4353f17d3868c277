#include "crypto/batch_verify.hpp"

#include <algorithm>

namespace repchain::crypto {

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

bool verify_batch(std::span<const BatchItem> items, Rng& /*rng*/) {
  const std::vector<bool> verdicts = verify_batch_detailed(items);
  return std::find(verdicts.begin(), verdicts.end(), false) == verdicts.end();
}

}  // namespace repchain::crypto
