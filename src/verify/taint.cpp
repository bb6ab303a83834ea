#include "verify/taint.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "sim/mem_controller.hpp"
#include "verify/scheme_checkers.hpp"

namespace sealdl::verify {

const char* taint_class_name(TaintClass cls) {
  switch (cls) {
    case TaintClass::kWeightPlain: return "weight_plain";
    case TaintClass::kWeightCipher: return "weight_cipher";
    case TaintClass::kFmapPlain: return "fmap_plain";
    case TaintClass::kFmapCipher: return "fmap_cipher";
    case TaintClass::kCounterMeta: return "counter_meta";
    case TaintClass::kUntagged: return "untagged";
  }
  return "unknown";
}

void TaintLedger::record(sim::Addr line_addr, std::uint32_t bytes,
                         bool is_write, TaintClass cls) {
  const auto idx = static_cast<std::size_t>(cls);
  TaintCounts& entry = lines_[line_addr];
  if (is_write) {
    entry.write[idx] += bytes;
    totals_.write[idx] += bytes;
  } else {
    entry.read[idx] += bytes;
    totals_.read[idx] += bytes;
  }
}

void TaintLedger::capture(sim::Addr line_addr,
                          std::span<const std::uint8_t> wire, bool encrypted) {
  WireImage& image = captures_[line_addr];
  image.size = static_cast<std::uint32_t>(
      std::min<std::size_t>(wire.size(), image.bytes.size()));
  std::copy_n(wire.begin(), image.size, image.bytes.begin());
  image.encrypted = encrypted;
}

void TaintLedger::merge_from(const TaintLedger& other) {
  for (const auto& [addr, counts] : other.lines_) {
    TaintCounts& entry = lines_[addr];
    for (std::size_t i = 0; i < kTaintClassCount; ++i) {
      entry.read[i] += counts.read[i];
      entry.write[i] += counts.write[i];
      totals_.read[i] += counts.read[i];
      totals_.write[i] += counts.write[i];
    }
  }
  for (const auto& [addr, image] : other.captures_) captures_[addr] = image;
}

std::uint64_t TaintLedger::class_bytes(TaintClass cls) const {
  const auto idx = static_cast<std::size_t>(cls);
  return totals_.read[idx] + totals_.write[idx];
}

std::uint64_t TaintLedger::total_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kTaintClassCount; ++i) {
    total += totals_.read[i] + totals_.write[i];
  }
  return total;
}

std::uint64_t TaintLedger::digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(lines_.size());
  for (const auto& [addr, counts] : lines_) {
    mix(addr);
    for (const std::uint64_t v : counts.read) mix(v);
    for (const std::uint64_t v : counts.write) mix(v);
  }
  return hash;
}

void TaintLedger::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.field("lines", static_cast<std::uint64_t>(lines_.size()));
  json.field("captures", static_cast<std::uint64_t>(captures_.size()));
  json.field("total_bytes", total_bytes());
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest()));
  json.field("digest", buf);
  json.key("classes").begin_object();
  for (std::size_t i = 0; i < kTaintClassCount; ++i) {
    json.key(taint_class_name(static_cast<TaintClass>(i))).begin_object();
    json.field("read", totals_.read[i]);
    json.field("write", totals_.write[i]);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void TaintProbe::on_transfer(sim::Addr line_addr, std::uint32_t bytes,
                             bool is_write, bool encrypted) {
  ledger_->record(line_addr, bytes, is_write, classify(line_addr, encrypted));
}

void TaintProbe::on_data(sim::Addr line_addr,
                         std::span<const std::uint8_t> wire_bytes,
                         bool is_write, bool encrypted) {
  (void)is_write;
  ledger_->capture(line_addr, wire_bytes, encrypted);
}

TaintClass TaintProbe::classify(sim::Addr line_addr, bool encrypted) const {
  if (line_addr >= sim::kCounterRegionBase) return TaintClass::kCounterMeta;
  const Region* region = input_->region_at(line_addr);
  if (region == nullptr) return TaintClass::kUntagged;
  if (region->kind == Region::Kind::kWeights) {
    return encrypted ? TaintClass::kWeightCipher : TaintClass::kWeightPlain;
  }
  return encrypted ? TaintClass::kFmapCipher : TaintClass::kFmapPlain;
}

namespace {

/// One layer task's private probe + ledger; handed back whole to the auditor.
class RecordingTaintProbe final : public sim::BusProbe {
 public:
  explicit RecordingTaintProbe(const AnalysisInput* input)
      : probe_(input, &ledger_) {}

  void on_transfer(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
                   bool encrypted) override {
    probe_.on_transfer(line_addr, bytes, is_write, encrypted);
  }
  void on_data(sim::Addr line_addr, std::span<const std::uint8_t> wire_bytes,
               bool is_write, bool encrypted) override {
    probe_.on_data(line_addr, wire_bytes, is_write, encrypted);
  }

  [[nodiscard]] const TaintLedger& ledger() const { return ledger_; }

 private:
  TaintLedger ledger_;
  TaintProbe probe_;
};

}  // namespace

std::unique_ptr<sim::BusProbe> TaintAuditor::make_probe(std::size_t spec_index) {
  (void)spec_index;
  return std::make_unique<RecordingTaintProbe>(input_);
}

void TaintAuditor::merge_probe(std::unique_ptr<sim::BusProbe> probe,
                               std::size_t spec_index) {
  (void)spec_index;
  auto* recording = static_cast<RecordingTaintProbe*>(probe.get());
  ledger_.merge_from(recording->ledger());
}

Report TaintAuditor::check(sim::EncryptionScheme scheme, bool selective,
                           std::uint64_t counter_traffic_bytes) const {
  const auto registry = sim::scheme_registry();
  const auto entry = std::find_if(
      registry.begin(), registry.end(), [&](const sim::SchemeInfo& info) {
        return info.paper && info.family == scheme &&
               info.selective() == selective;
      });
  if (entry == registry.end()) {
    throw std::invalid_argument("TaintAuditor::check: no paper scheme matches");
  }
  SchemeRunEvidence evidence;
  evidence.input = input_;
  evidence.ledger = &ledger_;
  Report report;
  check_scheme_wire(*entry, evidence, report);
  check_scheme_boundary(*entry, evidence, report);
  check_scheme_metadata_ledger(*entry, ledger_, counter_traffic_bytes, report);
  return report;
}

}  // namespace sealdl::verify
