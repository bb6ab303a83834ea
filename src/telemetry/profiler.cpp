#include "telemetry/profiler.hpp"

#include <algorithm>
#include <cstddef>

#include "sim/gpu_simulator.hpp"
#include "util/json.hpp"

namespace sealdl::telemetry {

namespace {

/// Length of the prefix of the span [now, now + span) that a busy window
/// ending at `busy_until` covers. Exact because every memory-side busy
/// window starts at or before `now` (see the header contract).
std::uint64_t busy_prefix(sim::Cycle busy_until, sim::Cycle now,
                          std::uint64_t span) {
  if (busy_until <= now) return 0;
  return std::min<std::uint64_t>(busy_until - now, span);
}

}  // namespace

const char* cycle_cat_name(CycleCat cat) {
  switch (cat) {
    case CycleCat::kComputeIssue: return "compute_issue";
    case CycleCat::kMemIssue: return "mem_issue";
    case CycleCat::kBarrierWait: return "barrier_wait";
    case CycleCat::kWindowStall: return "window_stall";
    case CycleCat::kL2HitService: return "l2_hit_service";
    case CycleCat::kL2MissWait: return "l2_miss_wait";
    case CycleCat::kDramService: return "dram_service";
    case CycleCat::kCryptoService: return "crypto_service";
    case CycleCat::kCounterTraffic: return "counter_traffic";
    case CycleCat::kIdle: return "idle";
    case CycleCat::kDrain: return "drain";
    case CycleCat::kCount: break;
  }
  return "unknown";
}

std::uint64_t ComponentProfile::bucket_sum() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t b : buckets) sum += b;
  return sum;
}

std::uint64_t LayerCycleProfile::kind_bucket(const std::string& kind,
                                             CycleCat cat) const {
  std::uint64_t sum = 0;
  for (const ComponentProfile& comp : components) {
    if (comp.name.size() <= kind.size()) continue;
    if (comp.name.compare(0, kind.size(), kind) != 0) continue;
    const char next = comp.name[kind.size()];
    if (next < '0' || next > '9') continue;  // "sm" must not match "sm_foo"
    sum += comp.bucket(cat);
  }
  return sum;
}

void CycleProfiler::ensure_components(const sim::GpuSimulator& simulator) {
  if (initialized_) return;
  initialized_ = true;
  const int num_sms = simulator.num_sms();
  const int channels = simulator.num_channels();
  profile_.components.reserve(
      static_cast<std::size_t>(num_sms + 2 * channels));
  for (int i = 0; i < num_sms; ++i) {
    profile_.components.push_back({"sm" + std::to_string(i), {}, 0});
  }
  for (int c = 0; c < channels; ++c) {
    profile_.components.push_back({"l2_slice" + std::to_string(c), {}, 0});
  }
  for (int c = 0; c < channels; ++c) {
    profile_.components.push_back({"mc" + std::to_string(c), {}, 0});
  }
  sm_prev_.assign(static_cast<std::size_t>(num_sms), SmSnapshot{});
}

void CycleProfiler::account(const sim::GpuSimulator& simulator, sim::Cycle now,
                            sim::Cycle next) {
  ensure_components(simulator);
  if (next <= now) return;
  const std::uint64_t span = next - now;

  // SMs: a multi-cycle span only happens when no SM issued, so issue
  // categories always cover exactly one cycle; wait-state censuses are
  // constant across the span by construction of the fast-forward.
  const int num_sms = simulator.num_sms();
  for (int i = 0; i < num_sms; ++i) {
    const sim::SmCore& sm = simulator.sm(i);
    SmSnapshot& prev = sm_prev_[static_cast<std::size_t>(i)];
    const std::uint64_t instructions = sm.warp_instructions();
    const std::uint64_t mem_issued = sm.loads_issued() + sm.stores_issued();
    CycleCat cat;
    if (instructions != prev.instructions) {
      cat = mem_issued != prev.mem_issued ? CycleCat::kMemIssue
                                          : CycleCat::kComputeIssue;
    } else if (sm.window_waiters() > 0) {
      cat = CycleCat::kWindowStall;
    } else if (sm.barrier_waiters() > 0) {
      cat = CycleCat::kBarrierWait;
    } else {
      cat = CycleCat::kIdle;
    }
    add(static_cast<std::size_t>(i), cat, span);
    prev = {instructions, mem_issued};
  }

  const int channels = simulator.num_channels();
  const std::size_t l2_base = static_cast<std::size_t>(num_sms);
  const std::size_t mc_base = l2_base + static_cast<std::size_t>(channels);
  for (int c = 0; c < channels; ++c) {
    const sim::L2Slice& slice = simulator.l2_slice(c);
    const std::uint64_t hit = busy_prefix(slice.hit_busy_until(), now, span);
    const std::uint64_t miss =
        slice.has_pending_fills() ? span - hit : 0;
    const std::size_t l2 = l2_base + static_cast<std::size_t>(c);
    add(l2, CycleCat::kL2HitService, hit);
    add(l2, CycleCat::kL2MissWait, miss);
    add(l2, CycleCat::kIdle, span - hit - miss);

    // Memory controller: three nested busy prefixes with top-frame-wins
    // priority counter_traffic > crypto > dram data service.
    const sim::MemoryController& mc = simulator.controller(c);
    const std::uint64_t m1 = busy_prefix(mc.counter_busy_until(), now, span);
    const std::uint64_t m2 =
        std::max(m1, busy_prefix(mc.aes_busy_until(), now, span));
    const std::uint64_t m3 =
        std::max(m2, busy_prefix(mc.dram_busy_until(), now, span));
    const std::size_t idx = mc_base + static_cast<std::size_t>(c);
    add(idx, CycleCat::kCounterTraffic, m1);
    add(idx, CycleCat::kCryptoService, m2 - m1);
    add(idx, CycleCat::kDramService, m3 - m2);
    add(idx, CycleCat::kIdle, span - m3);
  }
}

void CycleProfiler::finish(const sim::GpuSimulator& simulator,
                           sim::Cycle loop_end, sim::Cycle finish) {
  ensure_components(simulator);  // degenerate zero-cycle runs still report
  const int num_sms = simulator.num_sms();
  const int channels = simulator.num_channels();
  if (finish > loop_end) {
    const std::uint64_t tail = finish - loop_end;
    for (int i = 0; i < num_sms; ++i) {
      add(static_cast<std::size_t>(i), CycleCat::kDrain, tail);
    }
    const std::size_t l2_base = static_cast<std::size_t>(num_sms);
    const std::size_t mc_base = l2_base + static_cast<std::size_t>(channels);
    for (int c = 0; c < channels; ++c) {
      add(l2_base + static_cast<std::size_t>(c), CycleCat::kDrain, tail);
      // The drain traffic itself (counter-cache flush writebacks) keeps its
      // attribution; only the quiet remainder of the tail becomes drain.
      const sim::MemoryController& mc = simulator.controller(c);
      const std::uint64_t m1 =
          busy_prefix(mc.counter_busy_until(), loop_end, tail);
      const std::uint64_t m2 =
          std::max(m1, busy_prefix(mc.aes_busy_until(), loop_end, tail));
      const std::uint64_t m3 =
          std::max(m2, busy_prefix(mc.dram_busy_until(), loop_end, tail));
      const std::size_t idx = mc_base + static_cast<std::size_t>(c);
      add(idx, CycleCat::kCounterTraffic, m1);
      add(idx, CycleCat::kCryptoService, m2 - m1);
      add(idx, CycleCat::kDramService, m3 - m2);
      add(idx, CycleCat::kDrain, tail - m3);
    }
  }
  profile_.total_cycles = finish;
  for (ComponentProfile& comp : profile_.components) {
    comp.total_cycles = finish;
  }
}

LayerCycleProfile CycleProfiler::take_profile() {
  LayerCycleProfile out = std::move(profile_);
  profile_ = {};
  sm_prev_.clear();
  initialized_ = false;
  return out;
}

void write_cycle_profile_json(util::JsonWriter& json,
                              const CycleProfile& profile) {
  json.begin_array();
  for (const LayerCycleProfile& layer : profile.layers) {
    json.begin_object();
    json.field("layer", std::string_view(layer.layer));
    json.field("total_cycles", layer.total_cycles);
    json.key("components").begin_array();
    for (const ComponentProfile& comp : layer.components) {
      json.begin_object();
      json.field("name", std::string_view(comp.name));
      json.field("total_cycles", comp.total_cycles);
      json.key("buckets").begin_object();
      for (std::size_t cat = 0; cat < kCycleCatCount; ++cat) {
        if (comp.buckets[cat] == 0) continue;
        json.field(cycle_cat_name(static_cast<CycleCat>(cat)),
                   comp.buckets[cat]);
      }
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

std::string cycle_profile_json(const CycleProfile& profile) {
  util::JsonWriter json;
  write_cycle_profile_json(json, profile);
  return json.str();
}

std::string collapsed_stack(const std::string& workload,
                            const CycleProfile& profile) {
  std::string out;
  for (const LayerCycleProfile& layer : profile.layers) {
    for (const ComponentProfile& comp : layer.components) {
      for (std::size_t cat = 0; cat < kCycleCatCount; ++cat) {
        if (comp.buckets[cat] == 0) continue;
        out += workload;
        out += ';';
        out += layer.layer;
        out += ';';
        out += comp.name;
        out += ';';
        out += cycle_cat_name(static_cast<CycleCat>(cat));
        out += ' ';
        out += std::to_string(comp.buckets[cat]);
        out += '\n';
      }
    }
  }
  return out;
}

}  // namespace sealdl::telemetry
