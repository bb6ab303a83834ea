// Pluggable secure-memory scheme models.
//
// A SchemeModel owns the encryption-path *timing shape* of one scheme: how a
// secure line read/write serializes DRAM service, AES work, and (for
// counter-family schemes) metadata fetches. The MemoryController owns the
// per-channel resources — DRAM pipe, AES pipe, counter cache, byte
// accounting — and exposes them to the model through the narrow
// SchemeModel::Host interface; the model is stateless and shared (one
// registry singleton serves every controller of every simulator), which is
// what lets schemes be registered once and resolved by name everywhere
// (sim/scheme_registry.hpp).
//
// Every model also *declares* what it promises, as a SchemeContract: which
// bytes may cross the wire in plaintext, how metadata traffic must reconcile
// with counter-cache events, and what serialization shape a secure read has.
// The scheme.* conformance analyzer (verify/scheme_checkers.hpp) proves each
// declared clause against the taint ledger, bus-probe counters, and SimStats
// of a real run — so a scheme that lies about its own dataflow is caught, and
// a new scheme gets the whole invariant suite for free by declaring honestly.
#pragma once

#include <cstdint>

#include "sim/request.hpp"

namespace sealdl::sim {

/// Which addresses a scheme protects (drives secure-map construction and the
/// scheme.boundary conformance clause).
enum class ProtectionScope : std::uint8_t {
  kNone,      ///< nothing protected (Baseline)
  kAll,       ///< every data address (full-encryption schemes)
  kPlanRows,  ///< the encryption plan's protected rows/channels (SEAL)
  kWeights,   ///< every weight byte, no activations (GuardNN-style)
};

[[nodiscard]] const char* protection_scope_name(ProtectionScope scope);

/// What a scheme's wire image must look like, per byte provenance class.
enum class WireVisibility : std::uint8_t {
  kFullPlain,     ///< all data plaintext (and zero ciphertext) on the bus
  kFullCipher,    ///< no plaintext data byte ever crosses the bus
  kPlanBoundary,  ///< plaintext exactly on the plan's unprotected rows
  kWeightsCipher, ///< weights ciphertext, activations plaintext
};

/// How a scheme's metadata traffic must reconcile.
enum class MetadataModel : std::uint8_t {
  kNone,          ///< zero metadata bytes, ever
  kCounterLines,  ///< metadata bytes == line-granular fills + writebacks +
                  ///< end-of-run flushes, fills == misses x line_bytes
};

/// Serialization shape of a secure line *read* (the scheme.timing clause).
enum class SerializationShape : std::uint8_t {
  kPassthrough,     ///< DRAM service only — no crypto on the critical path
  kAesAfterData,    ///< cipher starts after the data arrives (Direct / XEX)
  kPadOverlapsData, ///< pad generation overlaps the data fetch; it is hidden
                    ///< only on a counter hit, and a final XOR costs 1 cycle
};

/// The declarative conformance contract of one registered scheme. Every
/// clause maps to one scheme.* rule (docs/ANALYSIS.md, "Scheme conformance").
struct SchemeContract {
  ProtectionScope scope = ProtectionScope::kNone;
  WireVisibility wire = WireVisibility::kFullPlain;
  MetadataModel metadata = MetadataModel::kNone;
  SerializationShape read_shape = SerializationShape::kPassthrough;
  /// Every byte the scheme encrypts must book AES occupancy (scheme.coverage
  /// ties encrypted_bytes to aes_busy_cycles).
  bool pays_aes_occupancy = false;
};

/// Timing model of one secure-memory scheme. Implementations are stateless
/// and const: all mutable state (pipes, caches, counters) lives in the
/// MemoryController and is reached through Host.
class SchemeModel {
 public:
  /// Per-channel services a model schedules against. Implemented privately by
  /// MemoryController; the indirection is the entire surface a new scheme
  /// needs — nothing else in the simulator is scheme-aware.
  class Host {
   public:
    /// Books `bytes` on the DRAM channel; returns the completion cycle.
    virtual Cycle dram_schedule(Cycle now, std::uint64_t bytes) = 0;
    /// Books `bytes` of AES work; returns the cycle the block emerges.
    virtual Cycle aes_schedule(Cycle now, std::uint64_t bytes) = 0;
    /// Books the metadata fetch for `addr`'s counter: counter-cache lookup,
    /// and on a miss a line fill (plus a possible dirty writeback) through
    /// this same channel. Returns the cycle the counter value is available.
    virtual Cycle fetch_counter(Cycle now, Addr addr, bool for_write) = 0;

   protected:
    ~Host() = default;
  };

  virtual ~SchemeModel() = default;

  [[nodiscard]] virtual const SchemeContract& contract() const = 0;

  /// Completion cycle of a secure line read arriving at the controller at
  /// `now`. Only called for addresses the scheme protects.
  virtual Cycle read_secure(Host& host, Cycle now, Addr addr,
                            std::uint64_t bytes) const = 0;

  /// Completion (drain) cycle of a posted secure line write.
  virtual Cycle write_secure(Host& host, Cycle now, Addr addr,
                             std::uint64_t bytes) const = 0;

  /// Whether the controller must instantiate an on-chip counter cache.
  [[nodiscard]] virtual bool uses_counter_cache() const { return false; }
};

}  // namespace sealdl::sim
