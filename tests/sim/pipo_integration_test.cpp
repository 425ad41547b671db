// Integration of PiPoMonitor with the cache hierarchy: Ping-Pong capture,
// LLC tagging, pEvict, delayed prefetch, and the anti-over-protection
// rule (Section IV end-to-end).
#include <vector>

#include <gtest/gtest.h>

#include "sim/system.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

using testcfg::mini;
using testcfg::mini_baseline;

constexpr Addr kTarget = 0x0;
constexpr Addr kStride = 4096;  // L3-congruent line stride (bytes)

/// Evicts kTarget from the LLC by touching 8 congruent lines (8-way
/// slice sets in the mini config). Returns the tick after the fills.
Tick evict_target(System& sys, Tick t, CoreId core, int round) {
  for (int i = 1; i <= 8; ++i) {
    sys.access(t, core,
               kTarget + static_cast<Addr>(round * 8 + i) * kStride,
               AccessType::kLoad);
    t += 300;
  }
  return t;
}

TEST(PipoIntegration, PingPongLineGetsTaggedAfterSecThrRefetches) {
  System sys(mini());
  Tick t = 0;
  // Four fetch-evict rounds: Security 0,1,2,3 -> capture on the 4th.
  for (int round = 0; round < 4; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  sys.access(t, 1, kTarget, AccessType::kLoad);
  const auto slot = sys.l3().lookup(line_of(kTarget));
  ASSERT_TRUE(slot.has_value());
  EXPECT_TRUE(sys.l3().line_for(line_of(kTarget), *slot).pp_tag);
  EXPECT_GT(sys.stats().pp_tag_fills, 0u);
  EXPECT_GT(sys.monitor().captures(), 0u);
}

TEST(PipoIntegration, EvictionOfTaggedLineTriggersPEvictAndPrefetch) {
  System sys(mini());
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  // By round 4 the target was tagged; its eviction sent pEvict and the
  // prefetch landed during the subsequent fill traffic.
  EXPECT_GT(sys.stats().pevicts, 0u);
  EXPECT_GT(sys.monitor().prefetches_issued(), 0u);
  EXPECT_GT(sys.stats().prefetch_fills, 0u);
}

TEST(PipoIntegration, PrefetchRestoresLineSoVictimHitsL3) {
  System sys(mini());
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  // Let any pending prefetch land.
  sys.drain_prefetches(t + 10'000);
  const auto out = sys.access(t + 10'000, 1, kTarget, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kL3)
      << "prefetch should have restored the Ping-Pong line into the LLC";
}

TEST(PipoIntegration, NextDrainDueIsTheFirstTickWithDrainWork) {
  System sys(mini());
  EXPECT_EQ(sys.next_drain_due(), kNeverTick);
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  // Walk the prefetch pipeline from due tick to due tick: a drain one
  // tick early changes nothing, a drain at the due tick makes progress.
  const auto snapshot = [&sys] {
    const System::Stats& st = sys.stats();
    return std::vector<std::uint64_t>{st.prefetch_fills, st.prefetch_drops,
                                      st.pevicts, sys.mem().prefetch_fetches(),
                                      sys.next_drain_due()};
  };
  int steps = 0;
  for (; sys.next_drain_due() != kNeverTick && steps < 100; ++steps) {
    const Tick due = sys.next_drain_due();
    const auto before = snapshot();
    if (due > 0) sys.drain_prefetches(due - 1);
    EXPECT_EQ(snapshot(), before) << "drain before the due tick " << due;
    sys.drain_prefetches(due);
    EXPECT_NE(snapshot(), before) << "drain at the due tick " << due;
  }
  EXPECT_GT(steps, 0);
  EXPECT_EQ(sys.next_drain_due(), kNeverTick);
  EXPECT_GT(sys.stats().prefetch_fills, 0u);
}

TEST(PipoIntegration, PrefetchedLineStartsUnaccessed) {
  System sys(mini());
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  sys.drain_prefetches(t + 10'000);
  const auto slot = sys.l3().lookup(line_of(kTarget));
  ASSERT_TRUE(slot.has_value());
  const CacheLine& l = sys.l3().line_for(line_of(kTarget), *slot);
  EXPECT_TRUE(l.pp_tag);
  EXPECT_FALSE(l.pp_accessed);
  EXPECT_EQ(l.presence, 0u);  // prefetch fills the LLC only
}

TEST(PipoIntegration, UntouchedPrefetchedLineNotRePrefetchedStrictGate) {
  // Anti-over-protection, strict kAccessedOnly gate: evicting a
  // prefetched-but-never-accessed line must NOT re-arm the prefetcher.
  SystemConfig cfg = mini();
  cfg.monitor.gate = PrefetchGate::kAccessedOnly;
  System sys(cfg);
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  sys.drain_prefetches(t + 10'000);
  ASSERT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value());
  const auto prefetches_before = sys.monitor().prefetches_issued();
  // Evict the untouched prefetched line: pEvict is sent but dropped.
  Tick t2 = evict_target(sys, t + 20'000, 0, 99);
  sys.drain_prefetches(t2 + 10'000);
  EXPECT_EQ(sys.monitor().prefetches_issued(), prefetches_before);
  EXPECT_GT(sys.monitor().pevicts_dropped(), 0u);
  EXPECT_FALSE(sys.l3().lookup(line_of(kTarget)).has_value());
}

TEST(PipoIntegration, UntouchedPrefetchedLineRestoredWhileCaptured) {
  // Default kCapturedInFilter gate: the same eviction re-arms the
  // prefetch because the filter still remembers the line as Ping-Pong.
  // This sustains Fig 6(b)'s blinding across quiet probe rounds.
  System sys(mini());
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  sys.drain_prefetches(t + 10'000);
  ASSERT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value());
  const auto prefetches_before = sys.monitor().prefetches_issued();
  Tick t2 = evict_target(sys, t + 20'000, 0, 99);
  sys.drain_prefetches(t2 + 10'000);
  EXPECT_GT(sys.monitor().prefetches_issued(), prefetches_before);
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value());
}

TEST(PipoIntegration, DemandAccessReArmsPrefetch) {
  System sys(mini());
  Tick t = 0;
  for (int round = 0; round < 5; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  sys.drain_prefetches(t + 10'000);
  // Victim touches the prefetched line: accessed = true again.
  sys.access(t + 20'000, 1, kTarget, AccessType::kLoad);
  const auto pevicts_before = sys.stats().pevicts;
  Tick t2 = evict_target(sys, t + 30'000, 0, 50);
  (void)t2;
  EXPECT_GT(sys.stats().pevicts, pevicts_before);
}

TEST(PipoIntegration, BaselineSystemNeverTagsOrPrefetches) {
  System sys(mini_baseline());
  Tick t = 0;
  for (int round = 0; round < 6; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  EXPECT_EQ(sys.stats().pp_tag_fills, 0u);
  EXPECT_EQ(sys.stats().pevicts, 0u);
  EXPECT_EQ(sys.monitor().prefetches_issued(), 0u);
  EXPECT_EQ(sys.stats().prefetch_fills, 0u);
  // Victim keeps paying memory latency forever: the unprotected pattern.
  const auto out = sys.access(t, 1, kTarget, AccessType::kLoad);
  EXPECT_EQ(out.level, HitLevel::kMemory);
}

TEST(PipoIntegration, PrefetchDroppedWhenDemandBeatsIt) {
  System sys(mini());
  Tick t = 0;
  for (int round = 0; round < 4; ++round) {
    sys.access(t, 1, kTarget, AccessType::kLoad);
    t += 300;
    t = evict_target(sys, t, 0, round);
  }
  // Final eviction of the now-tagged line with no tick gaps, so the
  // pEvict -> delay -> DRAM pipeline is still in flight when the victim
  // demand-refetches the line one cycle later.
  for (int i = 1; i <= 8; ++i) {
    sys.access(t + i, 0, kTarget + static_cast<Addr>(900 + i) * kStride,
               AccessType::kLoad);
  }
  sys.access(t + 9, 1, kTarget, AccessType::kLoad);
  sys.drain_prefetches(t + 10'000);
  EXPECT_GT(sys.stats().prefetch_drops, 0u)
      << "the in-flight prefetch must be dropped when the demand fetch "
         "restored the line first";
  EXPECT_TRUE(sys.l3().lookup(line_of(kTarget)).has_value());
}

TEST(PipoIntegration, MonitorObservesOnlyLlcMisses) {
  System sys(mini());
  sys.access(0, 0, 0x9000, AccessType::kLoad);   // miss -> observed
  sys.access(300, 0, 0x9000, AccessType::kLoad); // L1 hit -> not observed
  sys.access(600, 0, 0x9000, AccessType::kLoad);
  EXPECT_EQ(sys.monitor().accesses(), 1u);
}

}  // namespace
}  // namespace pipo
