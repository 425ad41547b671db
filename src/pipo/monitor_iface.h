// Common interface of LLC-miss monitors that drive the tag/pEvict/
// prefetch machinery in the simulated memory controller: the PiPoMonitor
// (the paper's contribution), the directory-extension stateful baseline
// (CacheGuard-style, Related Work), and the BITP back-invalidation
// prefetcher. The System routes its three observation points (Access,
// pEvict, back-invalidation) through this interface and drains the
// monitor's prefetch queue into the LLC.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace pipo {

/// Result of one observed Access.
struct MonitorAccessResult {
  std::uint32_t security = 0;  ///< detector's counter value (Response)
  bool ping_pong = false;      ///< capture: tag the returning fill
};

/// Pure per-line routing work a shard worker may have precomputed off the
/// critical path (sim/shard_engine.h): the monitor-filter hash triple —
/// the paper's (xi_x, mu_x, sigma_x). Everything here is a pure function
/// of the line address and immutable configuration, so a hinted access is
/// bit-identical to an unhinted one; the serial-vs-sharded oracle in
/// tests/oracle/ enforces that. Plain integers only: this header is the
/// monitor contract and must not pull in the filter implementation.
struct AccessRouteHints {
  std::uint32_t fprint = 0;    ///< filter fingerprint xi_x
  std::uint64_t bucket1 = 0;   ///< candidate bucket mu_x
  std::uint64_t bucket2 = 0;   ///< candidate bucket sigma_x
  bool has_filter_triple = false;
};

/// A prefetch request ready to enter the MC fetch queue; `ready` is the
/// tick at which the monitor issued it, which the system uses to
/// backdate the fetch when draining lazily.
struct MonitorPrefetchRequest {
  Tick ready = 0;
  LineAddr line = 0;
  /// Whether the LLC fill should carry the Ping-Pong tag (detection-based
  /// monitors re-tag their restored lines; BITP's fills are plain).
  bool tag = true;
};

class MonitorIface {
 public:
  virtual ~MonitorIface() = default;

  /// A demand Access from the LLC to memory for `line`.
  virtual MonitorAccessResult on_access(LineAddr line) = 0;

  /// Hinted variant: `hints` may carry the precomputed filter hash triple
  /// from a shard worker. Monitors without hashed state (and monitors
  /// that simply have not been taught hints) fall back to the plain
  /// observation — results are identical either way by construction.
  virtual MonitorAccessResult on_access(LineAddr line,
                                        const AccessRouteHints& hints) {
    (void)hints;
    return on_access(line);
  }

  /// A monitor-generated prefetch fetch reaching memory.
  virtual void on_prefetch_fetch(LineAddr line) { (void)line; }

  /// pEvict from the LLC: a tagged line was evicted. Returns whether a
  /// prefetch was scheduled.
  virtual bool on_pevict(Tick now, LineAddr line, bool accessed,
                         bool demand_caused) = 0;

  /// A private copy was back-invalidated by an LLC eviction (only BITP
  /// reacts to this).
  virtual void on_back_invalidation(Tick now, LineAddr line) {
    (void)now;
    (void)line;
  }

  /// Pops every scheduled prefetch whose issue time is <= now.
  virtual std::vector<MonitorPrefetchRequest> take_due_prefetches(
      Tick now) = 0;

  /// Issue time of the earliest scheduled prefetch — the smallest `now`
  /// at which take_due_prefetches() returns anything — or kNeverTick
  /// when none is scheduled. Lets the simulation driver sleep until a
  /// prefetch actually falls due instead of polling.
  virtual Tick next_prefetch_due() const = 0;

  // --- statistics common to all monitors ---
  virtual std::uint64_t captures() const = 0;
  virtual std::uint64_t prefetches_issued() const = 0;
};

/// Monitor of the undefended baseline: observes nothing, issues nothing.
class NullMonitor final : public MonitorIface {
 public:
  using MonitorIface::on_access;
  MonitorAccessResult on_access(LineAddr) override { return {}; }
  bool on_pevict(Tick, LineAddr, bool, bool) override { return false; }
  std::vector<MonitorPrefetchRequest> take_due_prefetches(Tick) override {
    return {};
  }
  Tick next_prefetch_due() const override { return kNeverTick; }
  std::uint64_t captures() const override { return 0; }
  std::uint64_t prefetches_issued() const override { return 0; }
};

}  // namespace pipo
