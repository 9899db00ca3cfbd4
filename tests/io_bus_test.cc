// Tests for the I/O bus model (slot pacing, round-robin sharing, gating).
#include "io/io_bus.h"

#include <vector>

#include <gtest/gtest.h>

#include "io/dma_transfer.h"
#include "io/transfer_pool.h"
#include "sim/simulator.h"

namespace dmasim {
namespace {

// Records every delivered chunk.
class RecordingSink : public DmaRequestSink {
 public:
  struct Delivery {
    std::uint64_t transfer_id;
    std::int64_t bytes;
    bool first;
    Tick when;
  };

  explicit RecordingSink(Simulator* simulator) : simulator_(simulator) {}

  void DeliverChunk(DmaTransfer* transfer, std::int64_t chunk_bytes,
                    bool first) override {
    deliveries_.push_back(
        Delivery{transfer->id, chunk_bytes, first, simulator_->Now()});
    if (gate_first_ && first) {
      transfer->blocked = true;
      return;
    }
    // Default behaviour: complete the chunk instantly and re-ready the
    // transfer (an infinitely fast memory).
    transfer->completed_bytes += chunk_bytes;
    if (!transfer->Complete()) bus_->MakeReady(transfer);
  }

  void SetBus(IoBus* bus) { bus_ = bus; }
  void GateFirstChunks(bool gate) { gate_first_ = gate; }
  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  Simulator* simulator_;
  IoBus* bus_ = nullptr;
  bool gate_first_ = false;
  std::vector<Delivery> deliveries_;
};

class IoBusFixture : public ::testing::Test {
 protected:
  IoBusFixture() : sink_(&simulator_), bus_(&simulator_, 0, 1.0e9, 8) {
    bus_.SetSink(&sink_);
    sink_.SetBus(&bus_);
  }

  DmaTransfer MakeTransfer(std::uint64_t id, std::int64_t bytes) {
    DmaTransfer transfer;
    transfer.id = id;
    transfer.bus_id = 0;
    transfer.total_bytes = bytes;
    transfer.start_time = simulator_.Now();
    return transfer;
  }

  Simulator simulator_;
  RecordingSink sink_;
  IoBus bus_;
};

TEST_F(IoBusFixture, SlotTimeMatchesBandwidth) {
  // 8 bytes at 1 GB/s = 8 ns per slot.
  EXPECT_EQ(bus_.SlotTime(), 8 * kNanosecond);
}

TEST_F(IoBusFixture, SingleTransferPacedAtSlotRate) {
  DmaTransfer transfer = MakeTransfer(1, 32);  // 4 chunks.
  bus_.StartTransfer(&transfer);
  simulator_.Run();
  ASSERT_EQ(sink_.deliveries().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink_.deliveries()[i].when,
              static_cast<Tick>(i) * bus_.SlotTime());
  }
  EXPECT_TRUE(transfer.Complete());
}

TEST_F(IoBusFixture, FirstFlagOnlyOnFirstChunk) {
  DmaTransfer transfer = MakeTransfer(1, 24);
  bus_.StartTransfer(&transfer);
  simulator_.Run();
  ASSERT_EQ(sink_.deliveries().size(), 3u);
  EXPECT_TRUE(sink_.deliveries()[0].first);
  EXPECT_FALSE(sink_.deliveries()[1].first);
  EXPECT_FALSE(sink_.deliveries()[2].first);
}

TEST_F(IoBusFixture, ShortFinalChunk) {
  DmaTransfer transfer = MakeTransfer(1, 20);  // 8 + 8 + 4.
  bus_.StartTransfer(&transfer);
  simulator_.Run();
  ASSERT_EQ(sink_.deliveries().size(), 3u);
  EXPECT_EQ(sink_.deliveries()[0].bytes, 8);
  EXPECT_EQ(sink_.deliveries()[1].bytes, 8);
  EXPECT_EQ(sink_.deliveries()[2].bytes, 4);
  EXPECT_TRUE(transfer.Complete());
}

TEST_F(IoBusFixture, TransferSmallerThanChunk) {
  DmaTransfer transfer = MakeTransfer(1, 4);
  bus_.StartTransfer(&transfer);
  simulator_.Run();
  ASSERT_EQ(sink_.deliveries().size(), 1u);
  EXPECT_EQ(sink_.deliveries()[0].bytes, 4);
  EXPECT_TRUE(sink_.deliveries()[0].first);
}

TEST_F(IoBusFixture, TwoTransfersShareSlotsRoundRobin) {
  DmaTransfer a = MakeTransfer(1, 16);
  DmaTransfer b = MakeTransfer(2, 16);
  bus_.StartTransfer(&a);
  bus_.StartTransfer(&b);
  simulator_.Run();
  ASSERT_EQ(sink_.deliveries().size(), 4u);
  // Slots alternate: a, b, a, b -- one chunk per slot time.
  EXPECT_EQ(sink_.deliveries()[0].transfer_id, 1u);
  EXPECT_EQ(sink_.deliveries()[1].transfer_id, 2u);
  EXPECT_EQ(sink_.deliveries()[2].transfer_id, 1u);
  EXPECT_EQ(sink_.deliveries()[3].transfer_id, 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink_.deliveries()[i].when,
              static_cast<Tick>(i) * bus_.SlotTime());
  }
}

TEST_F(IoBusFixture, GatedTransferIssuesNothingFurther) {
  sink_.GateFirstChunks(true);
  DmaTransfer gated = MakeTransfer(1, 64);
  DmaTransfer flowing = MakeTransfer(2, 16);
  bus_.StartTransfer(&gated);
  simulator_.RunUntil(bus_.SlotTime() / 2);
  sink_.GateFirstChunks(false);
  bus_.StartTransfer(&flowing);
  simulator_.Run();
  // Gated transfer delivered exactly one (buffered) chunk; the other
  // transfer proceeded to completion.
  int gated_chunks = 0;
  for (const auto& delivery : sink_.deliveries()) {
    if (delivery.transfer_id == 1) ++gated_chunks;
  }
  EXPECT_EQ(gated_chunks, 1);
  EXPECT_TRUE(flowing.Complete());
  EXPECT_TRUE(gated.blocked);
}

TEST_F(IoBusFixture, ReleasedTransferResumes) {
  sink_.GateFirstChunks(true);
  DmaTransfer transfer = MakeTransfer(1, 24);
  bus_.StartTransfer(&transfer);
  simulator_.Run();
  EXPECT_TRUE(transfer.blocked);
  // Release: complete the buffered first chunk and re-ready the transfer.
  sink_.GateFirstChunks(false);
  transfer.blocked = false;
  transfer.completed_bytes += 8;
  bus_.MakeReady(&transfer);
  simulator_.Run();
  EXPECT_TRUE(transfer.Complete());
}

TEST_F(IoBusFixture, CountsChunksAndTransfers) {
  DmaTransfer a = MakeTransfer(1, 16);
  DmaTransfer b = MakeTransfer(2, 8);
  bus_.StartTransfer(&a);
  bus_.StartTransfer(&b);
  simulator_.Run();
  EXPECT_EQ(bus_.TransfersStarted(), 2u);
  EXPECT_EQ(bus_.ChunksIssued(), 3u);
}

TEST_F(IoBusFixture, IdleBusResumesPacingFromNow) {
  DmaTransfer a = MakeTransfer(1, 8);
  bus_.StartTransfer(&a);
  simulator_.Run();
  const Tick idle_until = simulator_.Now() + 100 * bus_.SlotTime();
  simulator_.RunUntil(idle_until);
  DmaTransfer b = MakeTransfer(2, 8);
  bus_.StartTransfer(&b);
  simulator_.Run();
  // The second transfer's chunk goes out immediately, not at a stale slot.
  EXPECT_EQ(sink_.deliveries().back().when, idle_until);
}

TEST(IoBusChunkConfigTest, PciXDefaultsTwelveCyclesPerEightBytes) {
  Simulator simulator;
  const double pci_x = 8.0 / (12.0 * 625.0e-12);
  IoBus bus(&simulator, 3, pci_x, 8);
  EXPECT_EQ(bus.SlotTime(), 12 * 625);
  EXPECT_EQ(bus.id(), 3);
  EXPECT_EQ(bus.chunk_bytes(), 8);
}

TEST(TransferPoolTest, ForEachActiveVisitsEveryActiveDescriptorInSlabOrder) {
  // 300 descriptors span two 256-descriptor slabs; release every third
  // one plus a tail so the active set has holes in both slabs.
  TransferPool pool;
  std::vector<DmaTransfer*> acquired;
  for (std::uint64_t i = 0; i < 300; ++i) {
    acquired.push_back(pool.Acquire());
    acquired.back()->id = i;
  }
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 300; ++i) {
    if (i % 3 == 0 || i >= 290) {
      pool.Release(acquired[i]);
    } else {
      expected.push_back(i);
    }
  }
  // Reuse takes the most recently released descriptor (slot 299) and
  // visits it at its slab position.
  DmaTransfer* reused = pool.Acquire();
  EXPECT_EQ(reused, acquired[299]);
  reused->id = 1000;
  expected.push_back(1000);

  std::vector<std::uint64_t> visited;
  pool.ForEachActive(
      [&visited](DmaTransfer& transfer) { visited.push_back(transfer.id); });
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(visited.size(), pool.ActiveCount());
}

}  // namespace
}  // namespace dmasim
