// Per-layer snapshot round trips (DESIGN.md §8). Each test archives
// mid-flight state, restores it into a freshly constructed object, and
// asserts (a) the re-snapshot is byte-identical — nothing was lost or
// reordered — and (b) the restored object behaves exactly like the original
// from that point on.
#include "sim/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/compat.h"
#include "config/loader.h"
#include "core/archive.h"
#include "core/rng.h"
#include "hardware/cpu.h"
#include "hardware/delay.h"
#include "hardware/link.h"
#include "hardware/network_switch.h"
#include "hardware/nic.h"
#include "hardware/raid.h"
#include "hardware/san.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"

namespace gdisim {
namespace {

// ---------------------------------------------------------------------------
// StateArchive itself.

TEST(StateArchive, PrimitivesRoundTrip) {
  StateArchive w(StateArchive::Mode::kWrite);
  std::uint8_t a = 0x7f;
  std::uint32_t b = 0xdeadbeef;
  std::uint64_t c = 0x0123456789abcdefULL;
  std::int64_t d = -42;
  double e = 3.141592653589793;
  bool f = true;
  std::string g = "two words";
  std::size_t h = 77;
  w.section("prim");
  w.u8(a);
  w.u32(b);
  w.u64(c);
  w.i64(d);
  w.f64(e);
  w.boolean(f);
  w.str(g);
  w.size_value(h);

  StateArchive r = StateArchive::reader(w.payload());
  std::uint8_t a2 = 0;
  std::uint32_t b2 = 0;
  std::uint64_t c2 = 0;
  std::int64_t d2 = 0;
  double e2 = 0;
  bool f2 = false;
  std::string g2;
  std::size_t h2 = 0;
  r.section("prim");
  r.u8(a2);
  r.u32(b2);
  r.u64(c2);
  r.i64(d2);
  r.f64(e2);
  r.boolean(f2);
  r.str(g2);
  r.size_value(h2);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);
  EXPECT_EQ(c2, c);
  EXPECT_EQ(d2, d);
  EXPECT_EQ(e2, e);
  EXPECT_EQ(f2, f);
  EXPECT_EQ(g2, g);
  EXPECT_EQ(h2, h);
}

TEST(StateArchive, SectionMismatchNamesBothSides) {
  StateArchive w(StateArchive::Mode::kWrite);
  w.section("written");
  StateArchive r = StateArchive::reader(w.payload());
  try {
    r.section("expected");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("written"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("expected"), std::string::npos) << e.what();
  }
}

TEST(StateArchive, FileWrapperDetectsCorruption) {
  StateArchive w(StateArchive::Mode::kWrite);
  std::uint64_t v = 12345;
  w.u64(v);
  const std::string path = std::string(::testing::TempDir()) + "corrupt.gdisnap";
  w.write_to_file(path);

  // A clean read works.
  StateArchive ok = StateArchive::read_file(path);
  std::uint64_t v2 = 0;
  ok.u64(v2);
  EXPECT_EQ(v2, v);

  // Flip one payload byte: the checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  EXPECT_THROW(StateArchive::read_file(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RNG stream.

TEST(SnapshotLayer, RngStreamRoundTrip) {
  Rng a(12345);
  for (int i = 0; i < 17; ++i) (void)a.next_u64();  // advance mid-stream

  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w);

  Rng b(999);  // deliberately different seed; restore overwrites position
  StateArchive r = StateArchive::reader(w.payload());
  b.archive_state(r);
  EXPECT_TRUE(r.exhausted());

  StateArchive w2(StateArchive::Mode::kWrite);
  b.archive_state(w2);
  EXPECT_EQ(w.payload(), w2.payload());

  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.next_exponential(3.0), b.next_exponential(3.0));
}

// ---------------------------------------------------------------------------
// Every kind of hardware station mid-service, including an undrained inbox.

struct RecordingHandler final : StageCompletionHandler {
  std::vector<std::pair<Tick, std::uint64_t>> done;
  void on_stage_complete(Component& /*at*/, Tick now, std::uint64_t tag) override {
    done.emplace_back(now, tag);
  }
};

/// One station under test. With 0.1 s ticks each station serves about 100
/// work units per tick, so jobs of 600, 250 and 100 units span several.
struct StationCase {
  const char* name;
  std::unique_ptr<Component> (*make)();
  double unit;           ///< work per job unit (the delay station counts seconds)
  unsigned parallelism;  ///< fork hint on every job; only the CPU honours it
};

void PrintTo(const StationCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<Component> make_nic() {
  NicSpec spec;
  spec.rate_bps = 1000.0;
  return std::make_unique<NicComponent>(spec);
}

std::unique_ptr<Component> make_switch() {
  SwitchSpec spec;
  spec.rate_bps = 1000.0;
  return std::make_unique<SwitchComponent>(spec);
}

std::unique_ptr<Component> make_link() {
  // One transfer at a time, so the second waits; 0.25 s in the latency pipe.
  LinkSpec spec;
  spec.bandwidth_bps = 1000.0;
  spec.latency_seconds = 0.25;
  spec.max_concurrent = 1;
  return std::make_unique<LinkComponent>(spec);
}

std::unique_ptr<Component> make_cpu() {
  // Four 250-cycle/s cores: a parallelism-4 job occupies all of them and the
  // next one's shares wait.
  return std::make_unique<CpuComponent>(CpuSpec{1, 4, 250.0, 1.0});
}

// Disk arrays: the controller stages pass both first jobs on in the first
// tick. Each disk controller then finishes the first job's share and part of
// the second's, so the snapshot holds shares in dcc and in hdd, and the dcc
// hits leave records with fewer outstanding shares than disks.
std::unique_ptr<Component> make_raid() {
  RaidSpec spec;
  spec.disks = 4;
  spec.dacc_rate_Bps = 1e4;
  spec.dcc_rate_Bps = 2000.0;
  spec.dcc_hit_rate = 0.5;
  spec.hdd_rate_Bps = 100.0;
  return std::make_unique<RaidComponent>(spec, Rng(7));
}

std::unique_ptr<Component> make_san() {
  SanSpec spec;
  spec.disks = 4;
  spec.fcsw_rate_Bps = spec.dacc_rate_Bps = spec.fcal_rate_Bps = 1e4;
  spec.dcc_rate_Bps = 2000.0;
  spec.dcc_hit_rate = 0.5;
  spec.hdd_rate_Bps = 100.0;
  return std::make_unique<SanComponent>(spec, Rng(8));
}

std::unique_ptr<Component> make_delay() { return std::make_unique<DelayComponent>(); }

class StationSnapshot : public ::testing::TestWithParam<StationCase> {};

TEST_P(StationSnapshot, MidServiceRoundTrip) {
  const StationCase& c = GetParam();
  const auto job = [&c](double units, StageCompletionHandler* h, std::uint64_t tag) {
    return StageJob{units * c.unit, h, tag, c.parallelism};
  };

  std::unique_ptr<Component> a = c.make();
  a->set_tick_seconds(0.1);
  a->set_id(3);
  RecordingHandler ha;
  a->submit(0, /*sender=*/1, /*seq=*/0, job(600.0, &ha, 11));
  a->submit(0, 1, 1, job(250.0, &ha, 22));
  a->on_interactions(0);
  a->on_tick(1);  // mid-service
  EXPECT_TRUE(ha.done.empty());
  EXPECT_GT(a->queue_length(), 0u);
  // A delivery that is still sitting in the inbox at snapshot time.
  a->submit(5, 1, 2, job(100.0, &ha, 33));

  HandlerRegistry rega;
  rega.bind(/*owner=*/7, /*serial=*/1, &ha);
  StateArchive w(StateArchive::Mode::kWrite);
  a->archive_state(w, rega);

  std::unique_ptr<Component> b = c.make();
  b->set_tick_seconds(0.1);
  b->set_id(3);
  RecordingHandler hb;
  HandlerRegistry regb;
  regb.bind(7, 1, &hb);
  StateArchive r = StateArchive::reader(w.payload());
  b->archive_state(r, regb);
  EXPECT_TRUE(r.exhausted());

  StateArchive w2(StateArchive::Mode::kWrite);
  b->archive_state(w2, regb);
  EXPECT_EQ(w.payload(), w2.payload());

  // Drive both through the same phases; completions must land on the same
  // ticks with the same tags, resolved through each side's own handler.
  for (Tick t = 2; t <= 60; ++t) {
    a->on_tick(t);
    a->on_interactions(t);
    b->on_tick(t);
    b->on_interactions(t);
    EXPECT_DOUBLE_EQ(a->utilization(), b->utilization()) << "tick " << t;
  }
  EXPECT_EQ(ha.done, hb.done);
  EXPECT_EQ(ha.done.size(), 3u);  // all three jobs completed on both sides
  EXPECT_EQ(a->queue_length(), 0u);
  EXPECT_EQ(b->queue_length(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Stations, StationSnapshot,
                         ::testing::Values(StationCase{"nic", make_nic, 1.0, 1},
                                           StationCase{"switch", make_switch, 1.0, 1},
                                           StationCase{"link", make_link, 1.0, 1},
                                           StationCase{"cpu", make_cpu, 1.0, 4},
                                           StationCase{"raid", make_raid, 1.0, 1},
                                           StationCase{"san", make_san, 1.0, 1},
                                           StationCase{"delay", make_delay, 0.001, 1}),
                         [](const ::testing::TestParamInfo<StationCase>& tpi) {
                           return std::string(tpi.param.name);
                         });

TEST(SnapshotLayer, InstantWorkKeepsItsTickAcrossRestore) {
  // Sub-tick work accounted in the interaction phase of iteration 0 is the
  // sample for tick 2, and it is still in its bucket at the snapshot. A job
  // then keeps the station busy in tick 2, so the sample must fold with that
  // busy tick, min(1, 1.0 + 0.4), in the uninterrupted and the restored run
  // alike. Folding it as an idle sample of an earlier tick would add 0.4.
  auto drive = [](NicComponent& nic, RecordingHandler& h) {
    nic.on_tick(1);
    nic.submit(2, /*sender=*/1, /*seq=*/0, StageJob{2e7, &h, 5, 1});
    nic.on_interactions(2);
    nic.on_tick(2);
    return nic.take_window_utilization(3);
  };
  NicComponent a(NicSpec{1e9});
  a.set_tick_seconds(0.01);
  a.on_tick(0);
  a.on_interactions(1);
  a.account_instant(4e6, 1);
  HandlerRegistry reg;
  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w, reg);

  NicComponent b(NicSpec{1e9});
  b.set_tick_seconds(0.01);
  StateArchive r = StateArchive::reader(w.payload());
  b.archive_state(r, reg);
  RecordingHandler ha;
  RecordingHandler hb;
  const double want = drive(a, ha);
  EXPECT_DOUBLE_EQ(want, 1.0 / 3.0);
  EXPECT_EQ(drive(b, hb), want);
}

TEST(SnapshotLayer, StationRejectsShareCountMismatch) {
  // A job table whose outstanding count disagrees with the queue entries
  // pointing at the record would leave a job that never completes: the load
  // fails instead.
  NicSpec spec;
  spec.rate_bps = 1000.0;
  NicComponent a(spec);
  a.set_tick_seconds(0.1);
  RecordingHandler h;
  a.submit(0, 1, 0, StageJob{600.0, &h, 11, 1});
  a.on_interactions(0);
  HandlerRegistry reg;
  reg.bind(7, 1, &h);
  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w, reg);

  // The record as the table writes it: work, handler owner and serial, tag,
  // parallelism; its outstanding count follows.
  StateArchive sig(StateArchive::Mode::kWrite);
  double work = 600.0;
  std::uint32_t owner = 7, parallelism = 1;
  std::uint64_t serial = 1, tag = 11;
  sig.f64(work);
  sig.u32(owner);
  sig.u64(serial);
  sig.u64(tag);
  sig.u32(parallelism);
  std::vector<std::uint8_t> payload = w.payload();
  const auto at = std::search(payload.begin(), payload.end(), sig.payload().begin(),
                              sig.payload().end());
  ASSERT_NE(at, payload.end());
  const auto outstanding = at + static_cast<std::ptrdiff_t>(sig.payload().size());
  ASSERT_EQ(*outstanding, 1u);
  *outstanding = 2;

  NicComponent b(spec);
  StateArchive r = StateArchive::reader(payload);
  try {
    b.archive_state(r, reg);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2 outstanding shares but 1 queue entries"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Background daemon mid-synchrep (full-stack mini scenario).

constexpr const char* kMiniScenario = R"(
tick 0.02
seed 5
master A

datacenter A
  switch 40
  san 1 8 15000
  tier app 1 2 8
  tier db 1 2 8
  tier fs 1 2 8
  tier idx 1 2 8
end

datacenter B
  switch 40
  san 1 8 15000
  tier fs 1 2 8
end

link A B 0.155 40 0.2

population P@B B CAD 5
  think 10
  size 25
end

growth A 2000
synchrep A 30
indexbuild A 15
)";

std::unique_ptr<GdiSimulator> make_mini(double think_s = 10.0) {
  std::string text = kMiniScenario;
  if (think_s != 10.0) {
    const auto pos = text.find("think 10");
    text.replace(pos, 8, "think " + std::to_string(static_cast<int>(think_s)));
  }
  std::istringstream is(text);
  Scenario s = load_scenario(is, "<mini>");
  return std::make_unique<GdiSimulator>(std::move(s), SimulatorConfig{});
}

TEST(SnapshotLayer, DaemonMidSynchrepRoundTrip) {
  // 45 s is mid-way through the second 30 s synchrep window, with client
  // operations, daemon cascades and the indexbuild all in flight.
  auto a = make_mini();
  a->run_until_seconds(45.0);
  const std::vector<std::uint8_t> snap = a->save_state();

  auto b = make_mini();
  b->load_state(snap);
  EXPECT_DOUBLE_EQ(b->now_seconds(), a->now_seconds());
  EXPECT_EQ(b->save_state(), snap);  // byte-identical re-snapshot

  // Equivalence from the restore point onward.
  a->run_until_seconds(90.0);
  b->run_until_seconds(90.0);
  EXPECT_EQ(result_fingerprint(*a), result_fingerprint(*b));
}

// ---------------------------------------------------------------------------
// Archive corruption: a payload that fails mid-decode must be rejected
// cleanly — the live simulator keeps its exact pre-load state (transactional
// rollback in GdiSimulator::load_state) and stays deterministic afterwards.

// Locates genuine section frames in a payload: kSectionMagic (0x5EC7105E,
// little-endian) followed by a plausible length-prefixed printable label.
std::vector<std::size_t> section_starts(const std::vector<std::uint8_t>& p) {
  static const std::uint8_t magic[4] = {0x5e, 0x10, 0xc7, 0x5e};
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i + 12 <= p.size(); ++i) {
    if (std::memcmp(p.data() + i, magic, 4) != 0) continue;
    std::uint64_t len = 0;
    for (int k = 0; k < 8; ++k) len |= static_cast<std::uint64_t>(p[i + 4 + k]) << (8 * k);
    if (len == 0 || len > 64 || i + 12 + len > p.size()) continue;
    bool printable = true;
    for (std::uint64_t k = 0; k < len; ++k) {
      const std::uint8_t c = p[i + 12 + k];
      if (c < 0x20 || c > 0x7e) {
        printable = false;
        break;
      }
    }
    if (printable) starts.push_back(i);
  }
  return starts;
}

// At most `n` evenly spaced picks, always including the first and last.
std::vector<std::size_t> sample(const std::vector<std::size_t>& v, std::size_t n) {
  if (v.size() <= n) return v;
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < n; ++k) out.push_back(v[k * (v.size() - 1) / (n - 1)]);
  return out;
}

TEST(ArchiveCorruption, PerSectionTruncationRollsBack) {
  auto sim = make_mini();
  sim->run_until_seconds(45.0);
  const std::vector<std::uint8_t> snap = sim->save_state();
  const auto sections = sample(section_starts(snap), 10);
  ASSERT_GT(sections.size(), 3u);

  // Cut the payload inside each sampled section frame, plus one byte short
  // of complete. Every truncated decode must throw, and after the throw the
  // simulator's state must be byte-identical to what it was before the
  // failed load — no partial mutation.
  std::vector<std::size_t> cuts;
  for (const std::size_t s : sections) cuts.push_back(s + 2);
  cuts.push_back(snap.size() - 1);
  for (const std::size_t cut : cuts) {
    const std::vector<std::uint8_t> truncated(snap.begin(),
                                              snap.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(sim->load_state(truncated), std::runtime_error) << "cut at " << cut;
    EXPECT_EQ(sim->save_state(), snap) << "cut at " << cut;
  }

  // The survivor behaves exactly like a simulator that never saw a bad load.
  auto control = make_mini();
  control->load_state(snap);
  sim->run_until_seconds(90.0);
  control->run_until_seconds(90.0);
  EXPECT_EQ(result_fingerprint(*sim), result_fingerprint(*control));
}

TEST(ArchiveCorruption, BitFlipRollsBack) {
  auto sim = make_mini();
  sim->run_until_seconds(45.0);
  const std::vector<std::uint8_t> snap = sim->save_state();
  const auto sections = sample(section_starts(snap), 8);
  ASSERT_GT(sections.size(), 3u);

  // Flip a bit in each sampled section's magic (stream desync) and in the
  // first byte of its label (section-name mismatch). Both corruptions are
  // guaranteed to be caught by the section framing mid-decode, which is the
  // interesting failure point: some state has already been overwritten when
  // the throw happens, so only the rollback keeps the simulator intact.
  for (const std::size_t s : sections) {
    for (const std::size_t off : {s, s + 12}) {
      std::vector<std::uint8_t> flipped = snap;
      flipped[off] ^= 0x01;
      EXPECT_THROW(sim->load_state(flipped), std::runtime_error) << "flip at " << off;
      EXPECT_EQ(sim->save_state(), snap) << "flip at " << off;
    }
  }
}

TEST(ArchiveCorruption, RestoreDiagnosticsNameFileAndByteOffset) {
  auto sim = make_mini();
  sim->run_until_seconds(10.0);
  const std::string path = std::string(::testing::TempDir()) + "diag.gdisnap";
  sim->checkpoint(path);

  // Truncate the file: the header validator reports `path:byte N: why`, the
  // same source:position shape the scenario loader uses.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 9u);
    bytes.resize(bytes.size() - 9);  // lose the checksum and one payload byte
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    sim->restore(path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path + ":byte ", 0), 0u) << msg;
  }
  EXPECT_DOUBLE_EQ(sim->now_seconds(), 10.0);  // pre-restore state survives

  // A well-formed file whose payload fails mid-decode gains the same prefix,
  // with the stream cursor as the offset.
  {
    StateArchive junk(StateArchive::Mode::kWrite);
    std::uint64_t v = 7;
    junk.u64(v);
    junk.write_to_file(path);
  }
  try {
    sim->restore(path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path + ":byte ", 0), 0u) << msg;
  }
  EXPECT_DOUBLE_EQ(sim->now_seconds(), 10.0);
  std::remove(path.c_str());

  // A missing file names the path.
  try {
    sim->restore("/nonexistent/nope.gdisnap");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/nope.gdisnap"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Compat descriptor.

TEST(SnapshotCompatTest, DiffIsEmptyForEqualDescriptors) {
  SnapshotCompat a;
  a.lines = {"tick 0.02", "agents 3"};
  EXPECT_EQ(SnapshotCompat::diff(a, a), "");
}

TEST(SnapshotCompatTest, DiffReportsBothSides) {
  SnapshotCompat a, b;
  a.lines = {"tick 0.02", "agent 0 cpu/A"};
  b.lines = {"tick 0.02", "agent 0 cpu/B"};
  const std::string d = SnapshotCompat::diff(a, b);
  EXPECT_NE(d.find("cpu/A"), std::string::npos) << d;
  EXPECT_NE(d.find("cpu/B"), std::string::npos) << d;
  EXPECT_NE(a.digest(), b.digest());
}

TEST(SnapshotCompatTest, RoundTripsThroughArchive) {
  SnapshotCompat a;
  a.lines = {"tick 0.05", "agents 7", "probe cpu/A/app"};
  StateArchive w(StateArchive::Mode::kWrite);
  a.archive_state(w);
  SnapshotCompat b;
  StateArchive r = StateArchive::reader(w.payload());
  b.archive_state(r);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace gdisim
