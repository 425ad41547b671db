// Integration of the Related Work baseline defenses with the cache
// hierarchy: SHARP's victim preference and alarms, BITP's restoration of
// back-invalidated lines, RIC's relaxed inclusion, and the
// DirectoryMonitor driving the same tag/pEvict/prefetch machinery as
// PiPoMonitor.
#include <gtest/gtest.h>

#include "sim/system.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

constexpr Addr kTarget = 0x0;
constexpr Addr kStride = 4096;  // L3-congruent line stride (bytes)

SystemConfig mini_with(DefenseKind kind) {
  SystemConfig cfg = testcfg::mini();
  cfg.defense = kind;
  cfg.monitor.enabled = (kind == DefenseKind::kPiPoMonitor);
  cfg.dir_monitor.sets = 256;
  cfg.dir_monitor.ways = 8;
  return cfg;
}

/// Loads 8 L3-congruent lines from `core` (fills one mini-config slice
/// set), returning the tick after the fills.
Tick fill_congruent(System& sys, Tick t, CoreId core, int round) {
  for (int i = 1; i <= 8; ++i) {
    sys.access(t, core,
               kTarget + static_cast<Addr>(round * 8 + i) * kStride,
               AccessType::kLoad);
    t += 300;
  }
  return t;
}

// ---------------------------------------------------------------- SHARP

TEST(SharpDefense, VictimLineSurvivesAttackerPrime) {
  // The victim holds kTarget privately; the attacker fills the set. SHARP
  // must evict attacker lines (unowned once their L1/L2 copies age out)
  // before touching the victim's line... with every line privately held,
  // at minimum the victim's line survives more often than under LRU.
  System sys(mini_with(DefenseKind::kSharp));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);
  t += 300;
  // The attacker primes with LLC-direct probes: its lines are unowned
  // (presence 0), so SHARP always victimizes them, never the target.
  for (int round = 0; round < 4; ++round) {
    for (int i = 1; i <= 8; ++i) {
      sys.access(t, 0, kTarget + static_cast<Addr>(round * 8 + i) * kStride,
                 AccessType::kLoad, /*bypass_private=*/true);
      t += 300;
    }
  }
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value())
      << "SHARP must prefer unowned victims over the victim's owned line";
  EXPECT_EQ(sys.stats().back_invalidations, 0u);
}

TEST(SharpDefense, AlarmsWhenAllCandidatesOwned) {
  System sys(mini_with(DefenseKind::kSharp));
  Tick t = 0;
  // Spread 8 congruent lines over all four cores (two per core, within
  // every private cache's associativity) so the whole 8-way LLC set is
  // privately owned; the 9th fill finds no unowned victim and must alarm.
  for (int i = 0; i < 8; ++i) {
    sys.access(t, static_cast<CoreId>(i % 4),
               kTarget + static_cast<Addr>(i + 1) * kStride,
               AccessType::kLoad);
    t += 300;
  }
  sys.access(t, 0, kTarget + 9 * kStride, AccessType::kLoad);
  EXPECT_GT(sys.sharp().alarms(), 0u);
}

// ----------------------------------------------------------------- BITP

TEST(BitpDefense, BackInvalidatedLineIsRestored) {
  System sys(mini_with(DefenseKind::kBitp));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);
  t += 300;
  t = fill_congruent(sys, t, 0, 0);  // evicts kTarget, back-invalidates
  ASSERT_GT(sys.stats().back_invalidations, 0u);
  sys.drain_prefetches(t + 10'000);
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value())
      << "BITP must prefetch the back-invalidated line back into the LLC";
  EXPECT_GT(sys.stats().prefetch_fills, 0u);
}

TEST(BitpDefense, NoReactionWithoutPrivateCopies) {
  System sys(mini_with(DefenseKind::kBitp));
  Tick t = 0;
  // LLC-direct fills (no private copies): evictions trigger no
  // back-invalidation, hence no BITP traffic.
  for (int round = 0; round < 3; ++round) {
    for (int i = 1; i <= 8; ++i) {
      sys.access(t, 0, kTarget + static_cast<Addr>(round * 8 + i) * kStride,
                 AccessType::kLoad, /*bypass_private=*/true);
      t += 300;
    }
  }
  sys.drain_prefetches(t + 10'000);
  EXPECT_EQ(sys.stats().prefetch_fills, 0u);
}

TEST(BitpDefense, FillsAreUntagged) {
  System sys(mini_with(DefenseKind::kBitp));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);
  t = fill_congruent(sys, t + 300, 0, 0);
  sys.drain_prefetches(t + 10'000);
  const auto slot = sys.l3().lookup(line_of(kTarget));
  ASSERT_TRUE(slot.has_value());
  EXPECT_FALSE(sys.l3().line_for(line_of(kTarget), *slot).pp_tag);
  EXPECT_EQ(sys.stats().pevicts, 0u);
}

// ------------------------------------------------------------------ RIC

TEST(RicDefense, ReadOnlyPrivateCopySurvivesLlcEviction) {
  System sys(mini_with(DefenseKind::kRic));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);  // read-only so far
  t += 300;
  t = fill_congruent(sys, t, 0, 0);  // evicts kTarget from L3
  EXPECT_EQ(sys.stats().back_invalidations, 0u);
  EXPECT_GT(sys.stats().ric_exemptions, 0u);
  // The victim still hits privately: the attacker learned nothing and the
  // victim pays no re-fetch.
  const auto out = sys.access(t, 1, kTarget, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL1);
}

TEST(RicDefense, WrittenLineStillBackInvalidated) {
  System sys(mini_with(DefenseKind::kRic));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kStore);  // written: inclusion holds
  t += 300;
  t = fill_congruent(sys, t, 0, 0);
  EXPECT_GT(sys.stats().back_invalidations, 0u);
  const auto out = sys.access(t, 1, kTarget, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kMemory)
      << "a written line keeps strict inclusion and pays the miss";
}

TEST(RicDefense, SilentUpgradeDetectedThroughDirtyMerge) {
  System sys(mini_with(DefenseKind::kRic));
  Tick t = 0;
  // Load grants Exclusive; the store upgrades silently (no LLC message).
  sys.access(t, 1, kTarget, AccessType::kLoad);
  sys.access(t + 300, 1, kTarget, AccessType::kStore);
  // A read from another core downgrades the M copy and marks the LLC
  // line dirty + ever_written.
  sys.access(t + 600, 2, kTarget, AccessType::kLoad);
  t = fill_congruent(sys, t + 900, 0, 0);
  EXPECT_GT(sys.stats().back_invalidations, 0u)
      << "once the write surfaces, RIC must enforce inclusion again";
}

TEST(RicDefense, LlcHitWithoutHoldersGrantsSharedNotExclusive) {
  // Core 1 loads the target, then drops it from its L2 with four lines
  // that share its L2 set but not its L3 set: the LLC keeps the line
  // with no holder left. Core 2's load then hits the L3 with presence 0.
  System sys(mini_with(DefenseKind::kRic));
  Tick t = 0;
  sys.access(t, 1, kTarget, AccessType::kLoad);
  constexpr Addr kL2Stride = 32 * kLineSizeBytes;  // mini() L2: 32 sets
  for (Addr k : {1, 3, 5, 7}) {
    t += 300;
    sys.access(t, 1, kTarget + k * kL2Stride, AccessType::kLoad);
  }
  const LineAddr target = line_of(kTarget);
  ASSERT_FALSE(sys.l2(1).lookup(target).has_value());
  ASSERT_TRUE(sys.l3().lookup(target).has_value());
  t += 300;
  EXPECT_EQ(sys.access(t, 2, kTarget, AccessType::kLoad).level,
            HitLevel::kL3);
  // Relaxed inclusion forfeits silent-upgradable grants, as on the
  // memory-fill path: an Exclusive copy would outlive the LLC entry
  // as an orphan and turn Modified without the directory seeing it.
  const auto slot = sys.l2(2).lookup(target);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(sys.l2(2).line(*slot).state, Mesi::kShared);
  t = fill_congruent(sys, t + 300, 0, 0);  // the clean line is exempted
  EXPECT_GT(sys.stats().ric_exemptions, 0u);
  sys.access(t, 2, kTarget, AccessType::kStore);
  EXPECT_EQ(sys.check_invariants(), "");
}

// ---------------------------------------------- DirectoryMonitor defense

TEST(DirectoryDefense, CapturesAndPrefetchesLikePipo) {
  System sys(mini_with(DefenseKind::kDirectoryMonitor));
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = fill_congruent(sys, t, 0, round);
  }
  sys.drain_prefetches(t + 10'000);
  EXPECT_GT(sys.directory_monitor().captures(), 0u);
  EXPECT_GT(sys.stats().prefetch_fills, 0u);
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value());
}

TEST(DirectoryDefense, PipoMonitorObjectStaysInert) {
  System sys(mini_with(DefenseKind::kDirectoryMonitor));
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = fill_congruent(sys, t, 0, round);
  }
  EXPECT_EQ(sys.monitor().accesses(), 0u);
  EXPECT_EQ(sys.monitor().captures(), 0u);
}

// ------------------------------------------------------------- plumbing

TEST(DefenseConfig, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(DefenseKind::kNone), "baseline");
  EXPECT_STREQ(to_string(DefenseKind::kPiPoMonitor), "PiPoMonitor");
  EXPECT_STREQ(to_string(DefenseKind::kDirectoryMonitor),
               "DirectoryMonitor");
  EXPECT_STREQ(to_string(DefenseKind::kSharp), "SHARP");
  EXPECT_STREQ(to_string(DefenseKind::kBitp), "BITP");
  EXPECT_STREQ(to_string(DefenseKind::kRic), "RIC");
}

TEST(DefenseConfig, WithDefenseFactorySetsMonitorFlag) {
  EXPECT_TRUE(SystemConfig::with_defense(DefenseKind::kPiPoMonitor)
                  .monitor.enabled);
  EXPECT_FALSE(SystemConfig::with_defense(DefenseKind::kSharp)
                   .monitor.enabled);
  EXPECT_EQ(SystemConfig::baseline().defense, DefenseKind::kNone);
}

TEST(DefenseConfig, BaselineSystemHasNoDefenseActivity) {
  System sys(mini_with(DefenseKind::kNone));
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = fill_congruent(sys, t, 0, round);
  }
  sys.drain_prefetches(t + 10'000);
  EXPECT_EQ(sys.stats().prefetch_fills, 0u);
  EXPECT_EQ(sys.stats().pp_tag_fills, 0u);
  EXPECT_EQ(sys.active_monitor().prefetches_issued(), 0u);
}

}  // namespace
}  // namespace pipo
