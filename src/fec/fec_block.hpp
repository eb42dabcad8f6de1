// Transmission-group encoder/decoder state machines.
//
// TgEncoder owns the k data packets of one transmission group and produces
// DATA/PARITY packets on demand (lazily, or eagerly via pre_encode(), the
// "pre-encoding" option evaluated in Fig 18).  TgDecoder accumulates any
// packets of the block and reconstructs the group as soon as k distinct
// packets have arrived (Section 2.1), in one slab per TG.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fec/packet.hpp"
#include "fec/rse_code.hpp"

namespace pbl::fec {

class TgEncoder {
 public:
  /// `data` must contain exactly k equal-length packets.
  TgEncoder(std::uint32_t tg_id, const RseCode& code,
            std::vector<std::vector<std::uint8_t>> data);

  std::uint32_t tg_id() const noexcept { return tg_id_; }
  std::size_t k() const noexcept { return code_->k(); }
  std::size_t n() const noexcept { return code_->n(); }

  /// DATA packet for data index i < k.
  Packet data_packet(std::size_t i) const;

  /// PARITY packet for parity index j < h (block index k + j); encodes on
  /// first use unless pre_encode() was called.
  Packet parity_packet(std::size_t j);

  /// Eagerly computes all h parities (sender-side pre-encoding).
  void pre_encode();

  /// Frames DATA packet i directly into `frame` (header + payload + CRC,
  /// byte-identical to serialize(data_packet(i)) with the incarnation
  /// stamped).  Returns the bytes written.  The zero-copy send path:
  /// arena frames are framed in place, no intermediate Packet/vector.
  std::size_t write_data_frame(std::size_t i, std::uint8_t incarnation,
                               std::span<std::uint8_t> frame) const;

  /// Frames PARITY j (block index k + j) directly into `frame`.  When the
  /// parity is not yet cached, the GF kernels encode it straight into the
  /// frame's payload region — the parity bytes are never materialised
  /// anywhere else.  Byte-identical to serialize(parity_packet(j)) with
  /// the incarnation stamped; counts toward parities_encoded() exactly
  /// like parity_packet().  Returns the bytes written.
  std::size_t write_parity_frame(std::size_t j, std::uint8_t incarnation,
                                 std::span<std::uint8_t> frame);

  /// Wire size of any frame of this group (all packets share one
  /// payload length).
  std::size_t frame_wire_size() const noexcept {
    return wire_size(data_.empty() ? 0 : data_[0].size());
  }

  /// Number of parities encoded so far (for processing-cost accounting).
  std::size_t parities_encoded() const noexcept { return encoded_count_; }

 private:
  std::uint32_t tg_id_;
  const RseCode* code_;
  std::vector<std::vector<std::uint8_t>> data_;
  std::vector<std::optional<std::vector<std::uint8_t>>> parity_;
  std::size_t encoded_count_ = 0;
};

/// Receive side of one TG.  Every shard is copied once, into a single
/// slab allocated at the first stored packet: data packet i lands at
/// data slot i (its final offset), and the parities needed to cover
/// missing data are stored beside the k data slots.  decode() rebuilds
/// only the missing data slots, in place, and release() frees the slab
/// once the TG is consumed — the counters keep answering afterwards.
class TgDecoder {
 public:
  TgDecoder(std::uint32_t tg_id, const RseCode& code, std::size_t packet_len);

  std::uint32_t tg_id() const noexcept { return tg_id_; }

  /// Feeds a DATA or PARITY packet of this block.  Duplicate or foreign
  /// packets are ignored (returns false); fresh packets return true.
  /// Once the TG is decoded every further packet is a duplicate.
  bool add(const PacketView& packet);
  bool add(const Packet& packet) { return add(view_of(packet)); }

  std::size_t received() const noexcept { return received_count_; }
  /// Number of additional packets needed to reconstruct: max(0, k - received).
  std::size_t needed() const noexcept;
  bool decodable() const noexcept { return received_count_ >= code_->k(); }

  /// Number of duplicate/ignored packets seen (unnecessary receptions,
  /// a metric the paper tracks in Section 2.1).
  std::size_t duplicates() const noexcept { return duplicates_; }

  /// Rebuilds the missing data slots in the slab; requires decodable().
  /// A TG that lost no data packet does no GF work.  Idempotent.
  void decode();
  bool decoded() const noexcept { return decoded_; }

  /// Data packet i < k of a decoded TG, where it sits in the slab (or in
  /// the reconstruct() copy).  Valid until release().
  std::span<const std::uint8_t> data(std::size_t i) const;

  /// Reconstructs and returns the k data packets as owned vectors;
  /// requires decodable().  Idempotent: later calls return the same
  /// cached copy.  The slab is freed once the copy exists.
  const std::vector<std::vector<std::uint8_t>>& reconstruct();

  /// Frees every payload byte this decoder holds; requires decoded().
  /// received(), needed(), duplicates() and decoded_packets() keep
  /// answering, and later packets still count as duplicates.
  void release();

  /// Payload bytes held (slab plus reconstruct() copy): 0 before the
  /// first stored packet and after release().
  std::size_t storage_bytes() const noexcept;

  /// Number of data packets that were actually rebuilt by RSE decoding
  /// (l in the paper; the per-receiver decode cost is proportional to it).
  std::size_t decoded_packets() const noexcept { return decoded_packets_; }

 private:
  std::uint8_t* slot(std::size_t s) noexcept {
    return slab_.get() + s * packet_len_;
  }
  bool has(std::size_t idx) const noexcept {
    return (have_[idx / 64] >> (idx % 64)) & 1u;
  }

  std::uint32_t tg_id_;
  const RseCode* code_;
  std::size_t packet_len_;
  /// k data slots, then up to min(h, k) parity slots in arrival order.
  std::unique_ptr<std::uint8_t[]> slab_;
  std::array<std::uint64_t, 4> have_{};          ///< block indices seen (n <= 255)
  std::array<std::uint8_t, 255> parity_index_{};  ///< block index per parity slot
  std::size_t data_count_ = 0;    ///< data slots filled
  std::size_t parity_count_ = 0;  ///< parity slots filled
  std::size_t received_count_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t decoded_packets_ = 0;
  bool decoded_ = false;
  bool released_ = false;
  std::optional<std::vector<std::vector<std::uint8_t>>> result_;
};

}  // namespace pbl::fec
