#include "fec/rse_code.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace pbl::fec {

RseCode::RseCode(std::size_t k, std::size_t n)
    : k_(k), n_(n), gf_(gf::Gf256::instance()),
      generator_(gf::Matrix::systematic_generator(gf_.field(), n, k)) {
  if (k == 0 || k > n) throw std::invalid_argument("RseCode: need 0 < k <= n");
  if (n > 255)
    throw std::invalid_argument("RseCode: GF(2^8) limits the block to n <= 255");
}

const RseCode& RseCode::shared(std::size_t k, std::size_t n) {
  // Never destroyed: drivers hold references until their own teardown,
  // which may run during static destruction.
  static std::mutex* mu = new std::mutex;
  static auto* codes =
      new std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<RseCode>>;
  const std::lock_guard<std::mutex> lock(*mu);
  auto& code = (*codes)[{k, n}];
  if (!code) code = std::make_unique<RseCode>(k, n);
  return *code;
}

namespace {

void check_equal_lengths(std::span<const std::span<const std::uint8_t>> data) {
  for (std::size_t i = 1; i < data.size(); ++i)
    if (data[i].size() != data[0].size())
      throw std::invalid_argument("RseCode: packets must have equal length");
}

}  // namespace

void RseCode::encode_parity(std::size_t j,
                            std::span<const std::span<const std::uint8_t>> data,
                            std::span<std::uint8_t> out) const {
  if (j >= h()) throw std::invalid_argument("RseCode: parity index out of range");
  if (data.size() != k_) throw std::invalid_argument("RseCode: need k data packets");
  check_equal_lengths(data);
  if (!data.empty() && out.size() != data[0].size())
    throw std::invalid_argument("RseCode: output length mismatch");
  // The first contribution assigns instead of accumulating (mul_assign
  // with c == 0 zero-fills), saving a clear pass over the output.
  const auto row = generator_.row(k_ + j);
  gf_.mul_assign(out.data(), data[0].data(), out.size(),
                 static_cast<std::uint8_t>(row[0]));
  for (std::size_t i = 1; i < k_; ++i) {
    gf_.mul_add(out.data(), data[i].data(), out.size(),
                static_cast<std::uint8_t>(row[i]));
  }
}

void RseCode::encode(std::span<const std::span<const std::uint8_t>> data,
                     std::span<const std::span<std::uint8_t>> parity) const {
  if (parity.size() != h())
    throw std::invalid_argument("RseCode: need h parity buffers");
  for (std::size_t j = 0; j < h(); ++j) encode_parity(j, data, parity[j]);
}

void RseCode::decode(std::span<const Shard> received,
                     std::span<const std::span<std::uint8_t>> out) const {
  if (out.size() != k_) throw std::invalid_argument("RseCode: need k output buffers");
  if (received.size() < k_)
    throw std::invalid_argument("RseCode: need at least k shards to decode");

  // Select k shards, preferring data shards (they copy through for free).
  std::vector<const Shard*> chosen;
  chosen.reserve(k_);
  std::vector<bool> index_seen(n_, false);
  for (const auto& s : received) {
    if (s.index >= n_) throw std::invalid_argument("RseCode: shard index out of range");
    if (index_seen[s.index]) throw std::invalid_argument("RseCode: duplicate shard");
    index_seen[s.index] = true;
  }
  for (const auto& s : received)
    if (s.index < k_ && chosen.size() < k_) chosen.push_back(&s);
  for (const auto& s : received)
    if (s.index >= k_ && chosen.size() < k_) chosen.push_back(&s);

  const std::size_t len = chosen[0]->data.size();
  for (const auto* s : chosen)
    if (s->data.size() != len)
      throw std::invalid_argument("RseCode: packets must have equal length");
  for (const auto& o : out)
    if (o.size() != len)
      throw std::invalid_argument("RseCode: output length mismatch");

  // Which data packets are already present?
  std::vector<bool> have_data(k_, false);
  for (const auto* s : chosen)
    if (s->index < k_) {
      have_data[s->index] = true;
      auto& dst = out[s->index];
      if (dst.data() != s->data.data())
        std::memcpy(dst.data(), s->data.data(), len);
    }

  if (std::all_of(have_data.begin(), have_data.end(), [](bool b) { return b; }))
    return;  // nothing lost: no decoding required (paper, Section 2.1)

  // Invert the k x k decode matrix formed by the chosen generator rows.
  std::vector<std::size_t> rows(k_);
  for (std::size_t i = 0; i < k_; ++i) rows[i] = chosen[i]->index;
  const gf::Matrix dec =
      generator_.select_rows(rows).inverted();  // d = dec * y

  // Reconstruct only the missing data packets: d_i = sum_j dec[i][j] y_j.
  for (std::size_t i = 0; i < k_; ++i) {
    if (have_data[i]) continue;
    auto dst = out[i];
    gf_.mul_assign(dst.data(), chosen[0]->data.data(), len,
                   static_cast<std::uint8_t>(dec.at(i, 0)));
    for (std::size_t j = 1; j < k_; ++j) {
      gf_.mul_add(dst.data(), chosen[j]->data.data(), len,
                  static_cast<std::uint8_t>(dec.at(i, j)));
    }
  }
}

}  // namespace pbl::fec
