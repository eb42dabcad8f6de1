#include "fec/fec_block.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "fec/packet.hpp"
#include "util/rng.hpp"

namespace pbl::fec {
namespace {

std::vector<std::vector<std::uint8_t>> random_data(std::size_t k,
                                                   std::size_t len,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> d(k);
  for (auto& p : d) {
    p.resize(len);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  }
  return d;
}

TEST(Packet, SerializeRoundTrip) {
  Packet p;
  p.header.type = PacketType::kParity;
  p.header.tg = 12345;
  p.header.index = 9;
  p.header.k = 7;
  p.header.n = 10;
  p.header.count = 3;
  p.header.seq = 777;
  p.payload = {1, 2, 3, 4, 5};
  p.header.payload_len = 5;
  const auto bytes = serialize(p);
  EXPECT_EQ(bytes.size(), kHeaderWireSize + 5 + kCrcWireSize);
  const Packet q = deserialize(bytes);
  EXPECT_EQ(p, q);
}

TEST(Packet, DeserializeRejectsTruncated) {
  Packet p;
  p.payload = {1, 2, 3};
  auto bytes = serialize(p);
  bytes.pop_back();
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
  EXPECT_THROW(deserialize(std::vector<std::uint8_t>(3)), std::invalid_argument);
}

TEST(Packet, DeserializeRejectsUnknownType) {
  Packet p;
  auto bytes = serialize(p);
  bytes[0] = 0x7F;
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
}

TEST(Packet, CorruptionDetectedByCrc) {
  Packet p;
  p.payload = {9, 8, 7, 6};
  p.header.payload_len = 4;
  auto bytes = serialize(p);
  // Flip one payload bit: must be rejected, not silently accepted.
  bytes[kHeaderWireSize + 1] ^= 0x10;
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
  // Header corruption is caught too.
  auto bytes2 = serialize(p);
  bytes2[3] ^= 0x01;
  EXPECT_THROW(deserialize(bytes2), std::invalid_argument);
}

TEST(Packet, TrailerCorruptionDetected) {
  Packet p;
  p.payload = {1};
  p.header.payload_len = 1;
  auto bytes = serialize(p);
  bytes.back() ^= 0xFF;
  EXPECT_THROW(deserialize(bytes), std::invalid_argument);
}

TEST(Packet, FuzzDeserializeNeverCrashes) {
  // Random byte soup must either parse or throw invalid_argument — never
  // crash, hang or return garbage silently (the CRC catches the rest).
  Rng rng(123);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> buf(rng.below(64));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    try {
      (void)deserialize(buf);
      ++accepted;
    } catch (const std::invalid_argument&) {
      // expected for almost every input
    }
  }
  // A 32-bit CRC makes random acceptance vanishingly unlikely.
  EXPECT_EQ(accepted, 0);
}

TEST(Packet, FuzzMutatedRealPacketsRejectedOrEqual) {
  Packet p;
  p.header.type = PacketType::kData;
  p.header.tg = 7;
  p.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  p.header.payload_len = 8;
  const auto good = serialize(p);
  Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = good;
    const std::size_t pos = rng.below(mutated.size());
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << rng.below(8));
    mutated[pos] ^= bit;
    try {
      const Packet q = deserialize(mutated);
      // Only possible if the flip cancelled out — it cannot for 1 bit.
      ADD_FAILURE() << "single-bit corruption accepted at byte " << pos;
      (void)q;
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Packet, TypeNames) {
  EXPECT_EQ(to_string(PacketType::kData), "DATA");
  EXPECT_EQ(to_string(PacketType::kParity), "PARITY");
  EXPECT_EQ(to_string(PacketType::kPoll), "POLL");
  EXPECT_EQ(to_string(PacketType::kNak), "NAK");
}

TEST(TgEncoder, ValidatesInput) {
  RseCode code(4, 7);
  EXPECT_THROW(TgEncoder(0, code, random_data(3, 10, 1)), std::invalid_argument);
  auto bad = random_data(4, 10, 1);
  bad[2].resize(5);
  EXPECT_THROW(TgEncoder(0, code, std::move(bad)), std::invalid_argument);
}

TEST(TgEncoder, DataPacketsCarryHeaderAndPayload) {
  RseCode code(4, 7);
  const auto data = random_data(4, 10, 2);
  TgEncoder enc(42, code, data);
  for (std::size_t i = 0; i < 4; ++i) {
    const Packet p = enc.data_packet(i);
    EXPECT_EQ(p.header.type, PacketType::kData);
    EXPECT_EQ(p.header.tg, 42u);
    EXPECT_EQ(p.header.index, i);
    EXPECT_EQ(p.header.k, 4u);
    EXPECT_EQ(p.header.n, 7u);
    EXPECT_EQ(p.payload, data[i]);
  }
  EXPECT_THROW(enc.data_packet(4), std::out_of_range);
}

TEST(TgEncoder, LazyParityEncoding) {
  RseCode code(4, 7);
  TgEncoder enc(0, code, random_data(4, 10, 3));
  EXPECT_EQ(enc.parities_encoded(), 0u);
  const Packet p0 = enc.parity_packet(0);
  EXPECT_EQ(enc.parities_encoded(), 1u);
  EXPECT_EQ(p0.header.index, 4u);
  EXPECT_EQ(p0.header.type, PacketType::kParity);
  // Requesting the same parity again must not re-encode.
  const Packet p0again = enc.parity_packet(0);
  EXPECT_EQ(enc.parities_encoded(), 1u);
  EXPECT_EQ(p0.payload, p0again.payload);
  EXPECT_THROW(enc.parity_packet(3), std::out_of_range);
}

TEST(TgEncoder, PreEncodeComputesAll) {
  RseCode code(5, 11);
  TgEncoder enc(0, code, random_data(5, 10, 4));
  enc.pre_encode();
  EXPECT_EQ(enc.parities_encoded(), 6u);
  enc.pre_encode();  // idempotent
  EXPECT_EQ(enc.parities_encoded(), 6u);
}

TEST(TgDecoder, ReconstructsFromMixedPackets) {
  RseCode code(4, 8);
  const auto data = random_data(4, 20, 5);
  TgEncoder enc(7, code, data);
  TgDecoder dec(7, code, 20);

  EXPECT_EQ(dec.needed(), 4u);
  EXPECT_TRUE(dec.add(enc.data_packet(1)));
  EXPECT_TRUE(dec.add(enc.parity_packet(0)));
  EXPECT_EQ(dec.needed(), 2u);
  EXPECT_FALSE(dec.decodable());
  EXPECT_TRUE(dec.add(enc.parity_packet(2)));
  EXPECT_TRUE(dec.add(enc.data_packet(3)));
  EXPECT_TRUE(dec.decodable());
  EXPECT_EQ(dec.needed(), 0u);

  const auto& out = dec.reconstruct();
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], data[i]);
  EXPECT_EQ(dec.decoded_packets(), 2u);  // packets 0 and 2 were rebuilt
}

TEST(TgDecoder, DuplicatesCountedAndIgnored) {
  RseCode code(3, 5);
  TgEncoder enc(1, code, random_data(3, 8, 6));
  TgDecoder dec(1, code, 8);
  EXPECT_TRUE(dec.add(enc.data_packet(0)));
  EXPECT_FALSE(dec.add(enc.data_packet(0)));
  EXPECT_EQ(dec.duplicates(), 1u);
  EXPECT_EQ(dec.received(), 1u);
}

TEST(TgDecoder, ForeignPacketsIgnored) {
  RseCode code(3, 5);
  TgEncoder enc(2, code, random_data(3, 8, 7));
  TgDecoder dec(1, code, 8);
  EXPECT_FALSE(dec.add(enc.data_packet(0)));  // wrong TG id
  Packet poll;
  poll.header.type = PacketType::kPoll;
  poll.header.tg = 1;
  EXPECT_FALSE(dec.add(poll));  // control packets don't carry block data
  EXPECT_EQ(dec.received(), 0u);
}

TEST(TgDecoder, ReconstructBeforeDecodableThrows) {
  RseCode code(3, 5);
  TgDecoder dec(0, code, 8);
  EXPECT_THROW(dec.reconstruct(), std::logic_error);
}

TEST(TgDecoder, PacketsAfterReconstructionAreDuplicates) {
  RseCode code(2, 4);
  TgEncoder enc(0, code, random_data(2, 8, 8));
  TgDecoder dec(0, code, 8);
  dec.add(enc.data_packet(0));
  dec.add(enc.data_packet(1));
  (void)dec.reconstruct();
  EXPECT_FALSE(dec.add(enc.parity_packet(0)));
  EXPECT_EQ(dec.duplicates(), 1u);
}

TEST(TgDecoder, LengthMismatchRejected) {
  RseCode code(2, 4);
  TgEncoder enc(0, code, random_data(2, 8, 9));
  TgDecoder dec(0, code, 16);
  EXPECT_THROW(dec.add(enc.data_packet(0)), std::invalid_argument);
}

TEST(TgDecoder, ReconstructIsIdempotent) {
  RseCode code(2, 4);
  const auto data = random_data(2, 8, 10);
  TgEncoder enc(0, code, data);
  TgDecoder dec(0, code, 8);
  dec.add(enc.parity_packet(0));
  dec.add(enc.parity_packet(1));
  const auto& first = dec.reconstruct();
  const auto& second = dec.reconstruct();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first[0], data[0]);
  EXPECT_EQ(first[1], data[1]);
}

// ---- the in-place slab path ---------------------------------------------

/// Feeds `dec` the block indices in `order` through the view path.
void add_views(TgDecoder& dec, TgEncoder& enc,
               const std::vector<std::size_t>& order) {
  for (const std::size_t idx : order) {
    const Packet p = idx < enc.k() ? enc.data_packet(idx)
                                   : enc.parity_packet(idx - enc.k());
    EXPECT_TRUE(dec.add(view_of(p))) << "index " << idx;
  }
}

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

TEST(TgDecoderSlab, ParityOnlyDecodeRebuildsEveryDataSlot) {
  const RseCode code(4, 9);
  const auto data = random_data(4, 33, 21);
  TgEncoder enc(3, code, data);
  TgDecoder dec(3, code, 33);
  add_views(dec, enc, {8, 5, 4, 7});
  ASSERT_TRUE(dec.decodable());
  dec.decode();
  EXPECT_TRUE(dec.decoded());
  EXPECT_EQ(dec.decoded_packets(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(bytes_of(dec.data(i)), data[i]);
}

TEST(TgDecoderSlab, MixedDecodeKeepsReceivedDataInPlace) {
  const RseCode code(5, 10);
  const auto data = random_data(5, 64, 22);
  TgEncoder enc(0, code, data);
  TgDecoder dec(0, code, 64);
  add_views(dec, enc, {9, 1, 6, 3, 4});
  dec.decode();
  EXPECT_EQ(dec.decoded_packets(), 2u);  // data 0 and 2 were rebuilt
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(bytes_of(dec.data(i)), data[i]);
  // Every slot is one slab, in block order: decoding wrote the missing
  // slots between the received ones.
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_EQ(dec.data(i).data(), dec.data(0).data() + i * 64);
  const std::uint8_t* slot1 = dec.data(1).data();
  dec.decode();  // idempotent
  EXPECT_EQ(dec.decoded_packets(), 2u);
  EXPECT_EQ(dec.data(1).data(), slot1);
}

TEST(TgDecoderSlab, NoLossDecodeDoesNoRebuild) {
  const RseCode code(3, 6);
  const auto data = random_data(3, 10, 23);
  TgEncoder enc(1, code, data);
  TgDecoder dec(1, code, 10);
  add_views(dec, enc, {2, 0, 1});
  dec.decode();
  EXPECT_EQ(dec.decoded_packets(), 0u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(bytes_of(dec.data(i)), data[i]);
}

TEST(TgDecoderSlab, ViewAndPacketPathsReturnTheSameBytes) {
  // Random arrival orders with random losses, k..n packets delivered,
  // decode through the view path vs add(Packet) + reconstruct().
  const RseCode code(6, 14);
  Rng rng(24);
  for (int trial = 0; trial < 200; ++trial) {
    const auto data =
        random_data(6, 48, 100 + static_cast<std::uint64_t>(trial));
    TgEncoder enc(9, code, data);
    std::vector<std::size_t> order(14);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i-- > 1;)
      std::swap(order[i], order[rng.below(i + 1)]);
    order.resize(6 + rng.below(9));
    TgDecoder by_view(9, code, 48), by_packet(9, code, 48);
    for (const std::size_t idx : order) {
      const Packet p = idx < 6 ? enc.data_packet(idx)
                               : enc.parity_packet(idx - 6);
      EXPECT_TRUE(by_view.add(view_of(p)));
      EXPECT_TRUE(by_packet.add(p));
    }
    by_view.decode();
    const auto& rebuilt = by_packet.reconstruct();
    EXPECT_EQ(by_view.decoded_packets(), by_packet.decoded_packets());
    EXPECT_EQ(by_view.received(), by_packet.received());
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(bytes_of(by_view.data(i)), rebuilt[i]);
      EXPECT_EQ(rebuilt[i], data[i]);
    }
  }
}

TEST(TgDecoderSlab, ReleaseKeepsTheCountersAnswering) {
  const RseCode code(3, 7);
  TgEncoder enc(2, code, random_data(3, 16, 25));
  TgDecoder dec(2, code, 16);
  EXPECT_THROW(dec.release(), std::logic_error);  // nothing decoded yet
  add_views(dec, enc, {0, 5, 2});
  dec.decode();
  dec.release();
  EXPECT_EQ(dec.needed(), 0u);
  EXPECT_EQ(dec.received(), 3u);
  EXPECT_EQ(dec.decoded_packets(), 1u);
  EXPECT_TRUE(dec.decodable());
  // A duplicate after release is still counted, and so is a fresh index:
  // the TG is done.
  EXPECT_FALSE(dec.add(view_of(enc.data_packet(0))));
  EXPECT_FALSE(dec.add(view_of(enc.data_packet(1))));
  EXPECT_EQ(dec.duplicates(), 2u);
  EXPECT_EQ(dec.received(), 3u);
  EXPECT_THROW((void)dec.data(0), std::logic_error);
  EXPECT_THROW((void)dec.reconstruct(), std::logic_error);
}

TEST(TgDecoderSlab, ReleasedTgHoldsNoPayloadStorage) {
  const RseCode code(4, 12);
  TgEncoder enc(0, code, random_data(4, 1024, 26));
  TgDecoder dec(0, code, 1024);
  EXPECT_EQ(dec.storage_bytes(), 0u);  // nothing until the first shard
  add_views(dec, enc, {1, 9});
  // One slab: k data slots plus min(h, k) parity slots.
  EXPECT_EQ(dec.storage_bytes(), (4u + 4u) * 1024u);
  add_views(dec, enc, {10, 3});
  dec.decode();
  EXPECT_EQ(dec.storage_bytes(), (4u + 4u) * 1024u);  // decoded in place
  dec.release();
  EXPECT_EQ(dec.storage_bytes(), 0u);
}

TEST(TgDecoderSlab, ReconstructTradesTheSlabForItsCopy) {
  const RseCode code(2, 4);
  const auto data = random_data(2, 8, 27);
  TgEncoder enc(0, code, data);
  TgDecoder dec(0, code, 8);
  dec.add(enc.parity_packet(1));
  dec.add(enc.data_packet(1));
  EXPECT_EQ(dec.storage_bytes(), 4u * 8u);
  const auto& out = dec.reconstruct();
  EXPECT_EQ(dec.storage_bytes(), 2u * 8u);  // only the owned copy is left
  EXPECT_EQ(out, data);
  EXPECT_EQ(bytes_of(dec.data(0)), data[0]);
  dec.release();
  EXPECT_EQ(dec.storage_bytes(), 0u);
}

TEST(TgDecoderSlab, DataBeforeDecodeThrows) {
  const RseCode code(2, 4);
  TgEncoder enc(0, code, random_data(2, 8, 28));
  TgDecoder dec(0, code, 8);
  dec.add(enc.data_packet(0));
  EXPECT_THROW((void)dec.data(0), std::logic_error);
  EXPECT_THROW(dec.decode(), std::logic_error);
}

TEST(RseCodeShared, OneCodePerShapeAcrossThreads) {
  // Every thread asks for the same two shapes at once; each shape is
  // built once and every caller gets that one object.
  std::vector<const RseCode*> a(8), b(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < a.size(); ++t)
    threads.emplace_back([&, t] {
      a[t] = &RseCode::shared(16, 48);
      b[t] = &RseCode::shared(32, 96);
    });
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t], a[0]);
    EXPECT_EQ(b[t], b[0]);
  }
  EXPECT_NE(a[0], b[0]);
  EXPECT_EQ(a[0]->k(), 16u);
  EXPECT_EQ(a[0]->n(), 48u);
  EXPECT_EQ(b[0]->n(), 96u);
  // The shared code encodes exactly like a private one.
  const RseCode mine(16, 48);
  for (std::size_t i = 0; i < 48; ++i) {
    const auto x = a[0]->generator_row(i);
    const auto y = mine.generator_row(i);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()));
  }
}

}  // namespace
}  // namespace pbl::fec
