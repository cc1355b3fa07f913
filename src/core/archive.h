// StateArchive: versioned, deterministic, endian-stable binary snapshot
// reader/writer (DESIGN.md §8 "Snapshot format & forking").
//
// One class serves both directions. Every primitive is symmetric and
// by-reference — `ar.u64(x)` appends x when writing and assigns x when
// reading — so each layer implements a single `archive_state()` that is its
// own inverse. All multi-byte values are encoded little-endian byte by byte,
// independent of host endianness; doubles travel as their IEEE-754 bit
// pattern. Named section markers catch save/load asymmetry bugs at the exact
// field where the streams diverge instead of as garbage 40 fields later.
//
// The file wrapper adds a magic string, a format version and an FNV-1a
// payload checksum, so a truncated or foreign file fails loudly before any
// state is touched.
//
// HandlerRegistry lives here too: it re-expresses the pointer-linked runtime
// state (StageJob completion handlers, held MemoryComponent references,
// route component pointers) through the stable ids PR 3 introduced
// (AgentId, instance_serial), which is what makes those pointers
// round-trippable at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.h"

namespace gdisim {

class Agent;
class StageCompletionHandler;
class MemoryComponent;

class StateArchive {
 public:
  enum class Mode { kWrite, kRead };

  static constexpr std::uint32_t kFormatVersion = 7;

  explicit StateArchive(Mode mode) : mode_(mode) {}

  /// Read-mode archive over an in-memory payload (unit tests, forking).
  static StateArchive reader(std::vector<std::uint8_t> payload);

  bool writing() const { return mode_ == Mode::kWrite; }
  bool reading() const { return mode_ == Mode::kRead; }

  // Symmetric primitives: append on write, assign on read.
  void u8(std::uint8_t& v);
  void u32(std::uint32_t& v);
  void u64(std::uint64_t& v);
  void i64(std::int64_t& v);
  void f64(double& v);
  void boolean(bool& v);
  void str(std::string& v);
  /// std::size_t helper (encoded as u64).
  void size_value(std::size_t& v);

  /// Stream marker. On write, records `name`; on read, verifies the next
  /// marker matches and throws std::runtime_error naming both sides if not.
  void section(const char* name);

  /// On read: require `v == expected` (structural invariant baked into the
  /// live object, e.g. a queue's server count). Message names the field.
  template <typename T>
  void expect_equal(const T& v, const T& expected, const char* what) {
    if (reading() && !(v == expected)) {
      throw std::runtime_error(std::string("snapshot mismatch: ") + what);
    }
  }

  const std::vector<std::uint8_t>& payload() const { return buf_; }
  std::size_t cursor() const { return cursor_; }
  /// True when a read-mode archive has consumed every payload byte.
  bool exhausted() const { return cursor_ >= buf_.size(); }

  void write_to_file(const std::string& path) const;
  static StateArchive read_file(const std::string& path);

 private:
  void put(const std::uint8_t* bytes, std::size_t n);
  void get(std::uint8_t* bytes, std::size_t n);

  Mode mode_;
  std::vector<std::uint8_t> buf_;
  std::size_t cursor_ = 0;
};

/// Stable-id key for a StageJob completion handler: the launching agent plus
/// the operation-instance serial it assigned (unique per launcher).
struct HandlerKey {
  AgentId owner = kInvalidAgent;
  std::uint64_t serial = 0;
};

/// Two-way translation between runtime pointers and stable snapshot ids,
/// rebuilt from scratch on every checkpoint *and* every restore. Software
/// agents bind their live operation instances while archiving; hardware
/// components then encode/decode the handler pointers buried in their
/// queues. Memory components (not agents) are keyed by the AgentId of the
/// CPU on the same server, bound by the snapshot orchestrator's topology
/// walk.
class HandlerRegistry {
 public:
  void bind(AgentId owner, std::uint64_t serial, StageCompletionHandler* handler);
  HandlerKey key_of(StageCompletionHandler* handler) const;
  StageCompletionHandler* resolve(const HandlerKey& key) const;

  void bind_memory(AgentId cpu_id, MemoryComponent* memory);
  AgentId memory_key(MemoryComponent* memory) const;
  MemoryComponent* resolve_memory(AgentId cpu_id) const;

  void set_agent_resolver(std::function<Agent*(AgentId)> resolver) {
    agent_resolver_ = std::move(resolver);
  }
  Agent* resolve_agent(AgentId id) const;

 private:
  // Pointer-keyed maps are lookup-only (never iterated), so allocator
  // addresses cannot influence any ordering decision.
  std::unordered_map<const StageCompletionHandler*, HandlerKey> key_by_handler_;  // NOLINT(gdisim-ptr-key-decl) lookup table; never iterated
  std::map<std::pair<AgentId, std::uint64_t>, StageCompletionHandler*> handler_by_key_;
  std::unordered_map<const MemoryComponent*, AgentId> key_by_memory_;  // NOLINT(gdisim-ptr-key-decl) lookup table; never iterated
  std::map<AgentId, MemoryComponent*> memory_by_key_;
  std::function<Agent*(AgentId)> agent_resolver_;
};

}  // namespace gdisim
