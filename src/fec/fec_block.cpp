#include "fec/fec_block.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pbl::fec {

TgEncoder::TgEncoder(std::uint32_t tg_id, const RseCode& code,
                     std::vector<std::vector<std::uint8_t>> data)
    : tg_id_(tg_id), code_(&code), data_(std::move(data)),
      parity_(code.h()) {
  if (data_.size() != code_->k())
    throw std::invalid_argument("TgEncoder: need exactly k data packets");
  for (const auto& d : data_)
    if (d.size() != data_[0].size())
      throw std::invalid_argument("TgEncoder: packets must have equal length");
}

Packet TgEncoder::data_packet(std::size_t i) const {
  if (i >= code_->k()) throw std::out_of_range("TgEncoder: data index");
  Packet p;
  p.header.type = PacketType::kData;
  p.header.tg = tg_id_;
  p.header.index = static_cast<std::uint16_t>(i);
  p.header.k = static_cast<std::uint16_t>(code_->k());
  p.header.n = static_cast<std::uint16_t>(code_->n());
  p.payload = data_[i];
  p.header.payload_len = static_cast<std::uint32_t>(p.payload.size());
  return p;
}

Packet TgEncoder::parity_packet(std::size_t j) {
  if (j >= code_->h()) throw std::out_of_range("TgEncoder: parity index");
  if (!parity_[j]) {
    std::vector<std::span<const std::uint8_t>> views(data_.begin(), data_.end());
    std::vector<std::uint8_t> buf(data_.empty() ? 0 : data_[0].size());
    code_->encode_parity(j, views, buf);
    parity_[j] = std::move(buf);
    ++encoded_count_;
  }
  Packet p;
  p.header.type = PacketType::kParity;
  p.header.tg = tg_id_;
  p.header.index = static_cast<std::uint16_t>(code_->k() + j);
  p.header.k = static_cast<std::uint16_t>(code_->k());
  p.header.n = static_cast<std::uint16_t>(code_->n());
  p.payload = *parity_[j];
  p.header.payload_len = static_cast<std::uint32_t>(p.payload.size());
  return p;
}

std::size_t TgEncoder::write_data_frame(std::size_t i, std::uint8_t incarnation,
                                        std::span<std::uint8_t> frame) const {
  if (i >= code_->k()) throw std::out_of_range("TgEncoder: data index");
  const std::size_t len = data_[i].size();
  const std::size_t total = wire_size(len);
  if (frame.size() < total)
    throw std::invalid_argument("TgEncoder: frame buffer too small");
  PacketHeader h;
  h.type = PacketType::kData;
  h.incarnation = incarnation;
  h.tg = tg_id_;
  h.index = static_cast<std::uint16_t>(i);
  h.k = static_cast<std::uint16_t>(code_->k());
  h.n = static_cast<std::uint16_t>(code_->n());
  h.payload_len = static_cast<std::uint32_t>(len);
  write_header(h, frame);
  std::memcpy(frame.data() + kHeaderWireSize, data_[i].data(), len);
  seal_frame(frame.subspan(0, total));
  return total;
}

std::size_t TgEncoder::write_parity_frame(std::size_t j,
                                          std::uint8_t incarnation,
                                          std::span<std::uint8_t> frame) {
  if (j >= code_->h()) throw std::out_of_range("TgEncoder: parity index");
  const std::size_t len = data_.empty() ? 0 : data_[0].size();
  const std::size_t total = wire_size(len);
  if (frame.size() < total)
    throw std::invalid_argument("TgEncoder: frame buffer too small");
  PacketHeader h;
  h.type = PacketType::kParity;
  h.incarnation = incarnation;
  h.tg = tg_id_;
  h.index = static_cast<std::uint16_t>(code_->k() + j);
  h.k = static_cast<std::uint16_t>(code_->k());
  h.n = static_cast<std::uint16_t>(code_->n());
  h.payload_len = static_cast<std::uint32_t>(len);
  write_header(h, frame);
  const std::span<std::uint8_t> payload = frame.subspan(kHeaderWireSize, len);
  if (parity_[j]) {
    std::memcpy(payload.data(), parity_[j]->data(), len);
  } else {
    // Zero-copy encode: the GF kernels write the parity straight into the
    // frame's payload region.  The result is NOT cached — the arena frame
    // is the only copy, matching the "encode at send time into the wire
    // buffer" fast path (cache via pre_encode() when re-sends dominate).
    std::vector<std::span<const std::uint8_t>> views(data_.begin(),
                                                     data_.end());
    code_->encode_parity(j, views, payload);
    ++encoded_count_;
  }
  seal_frame(frame.subspan(0, total));
  return total;
}

void TgEncoder::pre_encode() {
  for (std::size_t j = 0; j < code_->h(); ++j) {
    if (!parity_[j]) {
      std::vector<std::span<const std::uint8_t>> views(data_.begin(), data_.end());
      std::vector<std::uint8_t> buf(data_.empty() ? 0 : data_[0].size());
      code_->encode_parity(j, views, buf);
      parity_[j] = std::move(buf);
      ++encoded_count_;
    }
  }
}

TgDecoder::TgDecoder(std::uint32_t tg_id, const RseCode& code,
                     std::size_t packet_len)
    : tg_id_(tg_id), code_(&code), packet_len_(packet_len) {}

bool TgDecoder::add(const PacketView& packet) {
  if (packet.header.tg != tg_id_) return false;
  if (packet.header.type != PacketType::kData &&
      packet.header.type != PacketType::kParity)
    return false;
  const std::size_t idx = packet.header.index;
  const std::size_t k = code_->k();
  if (idx >= code_->n())
    throw std::invalid_argument("TgDecoder: packet index out of range");
  if (packet.payload.size() != packet_len_)
    throw std::invalid_argument("TgDecoder: payload length mismatch");
  if (has(idx) || decoded_) {
    ++duplicates_;
    return false;
  }
  have_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  // A parity is kept only while the TG still needs shards: with k in
  // hand it can never be chosen over the data it would stand in for.
  // So at most min(h, k) parity slots are ever filled.
  std::size_t s = idx;
  if (idx >= k) {
    if (received_count_ >= k) {
      ++received_count_;
      return true;
    }
    s = k + parity_count_;
    parity_index_[parity_count_++] = static_cast<std::uint8_t>(idx);
  } else {
    ++data_count_;
  }
  ++received_count_;
  if (!slab_)
    slab_.reset(new std::uint8_t[(k + std::min(code_->h(), k)) * packet_len_]);
  if (packet_len_ > 0) std::memcpy(slot(s), packet.payload.data(), packet_len_);
  return true;
}

std::size_t TgDecoder::needed() const noexcept {
  const std::size_t k = code_->k();
  return received_count_ >= k ? 0 : k - received_count_;
}

void TgDecoder::decode() {
  if (decoded_) return;
  if (!decodable())
    throw std::logic_error("TgDecoder: not enough packets to reconstruct");
  const std::size_t k = code_->k();
  if (data_count_ < k) {
    // Data slots decode in place: RseCode::decode skips every present
    // data shard whose input and output are the same bytes, and writes
    // only the missing slots.  Parities go in block-index order, so the
    // code picks the same shards as from an index-ordered shard list.
    std::vector<Shard> shards;
    shards.reserve(data_count_ + parity_count_);
    for (std::size_t i = 0; i < k; ++i)
      if (has(i)) shards.push_back({i, {slot(i), packet_len_}});
    std::vector<std::size_t> order(parity_count_);
    for (std::size_t p = 0; p < parity_count_; ++p) order[p] = p;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return parity_index_[a] < parity_index_[b];
    });
    for (const std::size_t p : order)
      shards.push_back({parity_index_[p], {slot(k + p), packet_len_}});
    std::vector<std::span<std::uint8_t>> out(k);
    for (std::size_t i = 0; i < k; ++i) out[i] = {slot(i), packet_len_};
    code_->decode(shards, out);
    decoded_packets_ = k - data_count_;
  }
  decoded_ = true;
}

std::span<const std::uint8_t> TgDecoder::data(std::size_t i) const {
  if (!decoded_) throw std::logic_error("TgDecoder: TG not decoded");
  if (i >= code_->k()) throw std::out_of_range("TgDecoder: data index");
  if (released_) throw std::logic_error("TgDecoder: storage released");
  if (result_) return (*result_)[i];
  return {slab_.get() + i * packet_len_, packet_len_};
}

const std::vector<std::vector<std::uint8_t>>& TgDecoder::reconstruct() {
  if (result_) return *result_;
  if (released_) throw std::logic_error("TgDecoder: storage released");
  decode();
  std::vector<std::vector<std::uint8_t>> out(code_->k());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto bytes = data(i);
    out[i].assign(bytes.begin(), bytes.end());
  }
  result_ = std::move(out);
  slab_.reset();
  return *result_;
}

void TgDecoder::release() {
  if (!decoded_)
    throw std::logic_error("TgDecoder: release before decode");
  released_ = true;
  slab_.reset();
  result_.reset();
}

std::size_t TgDecoder::storage_bytes() const noexcept {
  std::size_t bytes = 0;
  if (slab_) {
    const std::size_t k = code_->k();
    bytes += (k + std::min(code_->h(), k)) * packet_len_;
  }
  if (result_)
    for (const auto& d : *result_) bytes += d.size();
  return bytes;
}

}  // namespace pbl::fec
