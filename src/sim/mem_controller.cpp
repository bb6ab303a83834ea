#include "sim/mem_controller.hpp"

#include <algorithm>

#include "sim/bus_probe.hpp"

namespace sealdl::sim {

MemoryController::MemoryController(const GpuConfig& config,
                                   const SecureMap* secure_map)
    : config_(config),
      secure_map_(secure_map),
      dram_(config.dram_bytes_per_cycle_per_channel(),
            static_cast<Cycle>(config.dram_latency)),
      aes_(config.aes_bytes_per_cycle(),
           static_cast<Cycle>(config.engine.latency_cycles)) {
  if (config.scheme == EncryptionScheme::kCounter) {
    counter_cache_.emplace(static_cast<std::size_t>(config.counter_cache_kb) * 1024,
                           config.counter_cache_assoc, config.line_bytes);
  }
}

bool MemoryController::needs_encryption(Addr addr) const {
  if (config_.scheme == EncryptionScheme::kNone) return false;
  if (!config_.selective) return true;
  return secure_map_ == nullptr ||
         secure_map_->line_is_secure(addr, config_.line_bytes);
}

Addr MemoryController::counter_line_addr(Addr data_addr) const {
  const Addr counter_index = data_addr / static_cast<Addr>(config_.line_bytes);
  const Addr byte_addr =
      kCounterRegionBase +
      counter_index * static_cast<Addr>(config_.effective_counter_bytes());
  return byte_addr & ~static_cast<Addr>(config_.line_bytes - 1);
}

Cycle MemoryController::fetch_counter(Cycle now, Addr addr, bool for_write) {
  const Addr cline = counter_line_addr(addr);
  const auto result = counter_cache_->access(cline, /*mark_dirty=*/for_write);
  if (result.hit) return now;  // counter available immediately from on-chip SRAM

  // Miss: fetch the counter block from DRAM through this same channel.
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  counter_traffic_bytes_ += bytes;
  counter_fill_bytes_ += bytes;
  const Cycle done = dram_.schedule(now, bytes);
  if (probe_) probe_->on_transfer(cline, static_cast<std::uint32_t>(bytes), false, false);
  const auto insert = counter_cache_->insert(cline, /*dirty=*/for_write);
  if (insert.writeback) {
    counter_traffic_bytes_ += bytes;
    counter_writeback_bytes_ += bytes;
    dram_.schedule(done, bytes);
    if (probe_) {
      probe_->on_transfer(*insert.writeback, static_cast<std::uint32_t>(bytes), true, false);
    }
  }
  counter_busy_until_ = std::max(counter_busy_until_, dram_busy_until());
  return done;
}

Cycle MemoryController::read_line(Cycle now, Addr addr) {
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  read_bytes_ += bytes;
  const bool secure = needs_encryption(addr);
  if (probe_) probe_->on_transfer(addr, static_cast<std::uint32_t>(bytes), false, secure);

  if (!secure) {
    bypassed_bytes_ += config_.scheme == EncryptionScheme::kNone ? 0 : bytes;
    return dram_.schedule(now, bytes);
  }

  encrypted_bytes_ += bytes;
  switch (config_.scheme) {
    case EncryptionScheme::kNone:  // needs_encryption() is false throughout
      break;
    case EncryptionScheme::kDirect: {
      // Data must arrive before the (de)cipher can start.
      const Cycle data_done = dram_.schedule(now, bytes);
      return aes_.schedule(data_done, bytes);
    }
    case EncryptionScheme::kCounter: {
      // Pad generation starts as soon as the counter is known and overlaps
      // the data fetch; the final XOR costs one cycle.
      const Cycle data_done = dram_.schedule(now, bytes);
      const Cycle counter_done = fetch_counter(now, addr, /*for_write=*/false);
      const Cycle pad_done = aes_.schedule(counter_done, bytes);
      return std::max(data_done, pad_done) + 1;
    }
  }
  return dram_.schedule(now, bytes);
}

Cycle MemoryController::write_line(Cycle now, Addr addr) {
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  write_bytes_ += bytes;
  const bool secure = needs_encryption(addr);
  if (probe_) probe_->on_transfer(addr, static_cast<std::uint32_t>(bytes), true, secure);

  if (!secure) {
    bypassed_bytes_ += config_.scheme == EncryptionScheme::kNone ? 0 : bytes;
    return dram_.schedule(now, bytes);
  }

  encrypted_bytes_ += bytes;
  switch (config_.scheme) {
    case EncryptionScheme::kNone:  // needs_encryption() is false throughout
      break;
    case EncryptionScheme::kDirect: {
      const Cycle cipher_done = aes_.schedule(now, bytes);
      return dram_.schedule(cipher_done, bytes);
    }
    case EncryptionScheme::kCounter: {
      // Writes bump the per-line counter, so the counter fetch dirties its
      // counter-cache line; the encrypted payload drains after the pad XOR.
      const Cycle counter_done = fetch_counter(now, addr, /*for_write=*/true);
      const Cycle pad_done = aes_.schedule(counter_done, bytes);
      return dram_.schedule(pad_done + 1, bytes);
    }
  }
  return dram_.schedule(now, bytes);
}

void MemoryController::accumulate(SimStats& stats) const {
  stats.dram_read_bytes += read_bytes_;
  stats.dram_write_bytes += write_bytes_;
  stats.encrypted_bytes += encrypted_bytes_;
  stats.bypassed_bytes += bypassed_bytes_;
  stats.aes_busy_cycles += aes_busy_cycles();  // engine-summed, per the field doc
  stats.dram_busy_cycles += dram_.busy_cycles();
  stats.counter_traffic_bytes += counter_traffic_bytes_;
  stats.counter_fill_bytes += counter_fill_bytes_;
  stats.counter_writeback_bytes += counter_writeback_bytes_;
  stats.counter_flush_bytes += counter_flush_bytes_;
  if (counter_cache_) {
    stats.counter_hits += counter_cache_->hit_rate().hits;
    stats.counter_misses +=
        counter_cache_->hit_rate().total - counter_cache_->hit_rate().hits;
  }
}

Cycle MemoryController::flush(Cycle now) {
  if (!counter_cache_) return now;
  const auto bytes = static_cast<std::uint64_t>(config_.line_bytes);
  Cycle drained = now;
  for (const Addr cline : counter_cache_->flush_dirty()) {
    counter_traffic_bytes_ += bytes;
    counter_flush_bytes_ += bytes;
    drained = std::max(drained, dram_.schedule(now, bytes));
    if (probe_) probe_->on_transfer(cline, static_cast<std::uint32_t>(bytes), true, false);
  }
  counter_busy_until_ = std::max(counter_busy_until_, dram_busy_until());
  return drained;
}

}  // namespace sealdl::sim
