#include "server/data_server.h"

#include <utility>

namespace dmasim {

DataServer::DataServer(Simulator* simulator, MemoryController* controller,
                       const ServerConfig& config)
    : simulator_(simulator),
      controller_(controller),
      config_(config),
      cache_(config.cache_pages),
      disks_(simulator, config.disk, config.disks, config.seed ^ 0xd15c),
      network_(config.network),
      rng_(config.seed) {
  DMASIM_EXPECTS(config.forced_miss_ratio <= 1.0);
}

int DataServer::PickBus() {
  // Network adapters and disk HBAs are spread over the I/O buses; spread
  // transfers uniformly (deterministically seeded).
  return static_cast<int>(
      rng_.NextBounded(static_cast<std::uint64_t>(controller_->bus_count())));
}

bool DataServer::IsMiss(std::uint64_t page) {
  if (config_.forced_miss_ratio >= 0.0) {
    cache_.Insert(page);  // Keep the index warm for inspection.
    return rng_.NextDouble() < config_.forced_miss_ratio;
  }
  const bool hit = cache_.Lookup(page);
  if (!hit) cache_.Insert(page);
  return !hit;
}

void DataServer::FinishRequest(Tick arrival, Tick dma_done,
                               std::int64_t reply_bytes,
                               ClientCallback& done) {
  const Tick finish = dma_done + network_.MessageTime(reply_bytes) +
                      config_.request_compute_time;
  response_time_.Add(static_cast<double>(finish - arrival));
  if (obs_.response_time != nullptr) {
    obs_.response_time->Add(static_cast<double>(finish - arrival));
  }
  if (obs_.tracer != nullptr) {
    // Writes acknowledge with an empty reply (reply_bytes == 0).
    obs_.tracer->ClientRequest(arrival, finish, /*is_write=*/reply_bytes == 0,
                               reply_bytes);
  }
  if (done) done(finish);
}

void DataServer::ClientRead(std::uint64_t page, std::int64_t bytes,
                            ClientCallback done) {
  ++stats_.reads;
  const Tick arrival = simulator_->Now();

  if (!IsMiss(page)) {
    ++stats_.hits;
    // Hit: network DMA straight out of memory.
    controller_->StartDmaTransfer(
        PickBus(), page, bytes, DmaKind::kNetwork,
        [this, arrival, bytes,
         done = std::move(done)](Tick dma_done) mutable {
          FinishRequest(arrival, dma_done, bytes, done);
        });
    return;
  }

  ++stats_.misses;
  // Miss: disk read -> disk DMA into memory -> network DMA out. The
  // continuation is move-only, so each stage hands it to the next with a
  // mutable move-capture.
  disks_.Read(
      page, bytes,
      [this, arrival, page, bytes,
       done = std::move(done)](Tick /*disk_done*/) mutable {
        controller_->StartDmaTransfer(
            PickBus(), page, bytes, DmaKind::kDisk,
            [this, arrival, page, bytes,
             done = std::move(done)](Tick /*loaded*/) mutable {
              controller_->StartDmaTransfer(
                  PickBus(), page, bytes, DmaKind::kNetwork,
                  [this, arrival, bytes,
                   done = std::move(done)](Tick dma_done) mutable {
                    FinishRequest(arrival, dma_done, bytes, done);
                  });
            });
      });
}

void DataServer::ClientWrite(std::uint64_t page, std::int64_t bytes,
                             ClientCallback done) {
  ++stats_.writes;
  const Tick arrival = simulator_->Now();
  if (config_.forced_miss_ratio < 0.0) cache_.Insert(page);

  // Network DMA in; acknowledge the client; write back to disk
  // asynchronously via a disk DMA out of memory.
  controller_->StartDmaTransfer(
      PickBus(), page, bytes, DmaKind::kNetwork,
      [this, arrival, page, bytes,
       done = std::move(done)](Tick dma_done) mutable {
        FinishRequest(arrival, dma_done, /*reply_bytes=*/0, done);
        controller_->StartDmaTransfer(
            PickBus(), page, bytes, DmaKind::kDisk,
            [this, page, bytes](Tick /*drained*/) {
              disks_.Read(page, bytes, {});  // Media write; same service law.
            });
      });
}

void DataServer::CpuAccess(std::uint64_t page, std::int64_t bytes) {
  ++stats_.cpu_accesses;
  controller_->CpuAccess(page, bytes);
}

}  // namespace dmasim
