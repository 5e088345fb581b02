//! Seeded property tests of the simulator's load-bearing invariants.
//!
//! Each property runs over many inputs drawn from the workspace's own
//! deterministic [`Rng`], so a failure reproduces bit-for-bit from the
//! seed and case number in its message:
//!
//! 1. **Clock jumps** — one `MemorySystem::advance` jump over an idle
//!    span is indistinguishable from advancing every cycle, under the
//!    timekeeping prefetcher, the base machine and the dead-time victim
//!    filter (DESIGN.md §2c).
//! 2. **Tick boundaries** — `GlobalTicker`'s jump arithmetic names the
//!    exact first cycle of each tick.
//! 3. **Cache model** — `SetAssocCache` agrees with a reference LRU
//!    under mixed access/invalidate streams.
//! 4. **Snapshots** — `RunResult` and the core statistics types render
//!    to JSON and parse back bit-exactly.

use timekeeping::snapshot::{Json, Snapshot};
use timekeeping::{
    Addr, CacheGeometry, CorrelationConfig, CorrelationStats, Cycle, DbcpConfig, DbcpStats,
    GlobalTicker, Histogram, LiveTimeVariability, MissBreakdown, Pc, Timeliness, TimelinessStats,
    VictimStats,
};
use tk_sim::cache::{ProbeResult, SetAssocCache};
use tk_sim::trace::MemRef;
use tk_sim::{run_workload, HierarchyStats, MemorySystem, PrefetchMode, SystemConfig, VictimMode};
use tk_workloads::rng::Rng;
use tk_workloads::SpecBenchmark;

// ------------------------------------------------------------ clock jumps

/// Drives two memory systems through one random access schedule — one
/// advanced cycle by cycle, the other in a single jump per idle gap —
/// asserts every access outcome and final statistic agrees, and returns
/// the (shared) hierarchy statistics.
fn assert_jump_equals_stepping(cfg: SystemConfig, rng: &mut Rng, case: u64) -> HierarchyStats {
    // A loop over a few conflicting lines (tags 32 KiB apart collide in
    // the direct-mapped L1), revisited in a fixed order so the victim
    // cache sees reuse and the correlation table trains and fires.
    let lines: Vec<Addr> = (0..rng.below(16) + 4)
        .map(|_| Addr::new(0x40_0000 + rng.below(4) * 32 * 1024 + rng.below(4) * 32))
        .collect();
    let mut jump = MemorySystem::new(cfg);
    let mut step = MemorySystem::new(cfg);
    let mut now = 0u64;
    for i in 0..rng.below(240) + 1 {
        // Mostly sub-tick gaps, some same-cycle bursts, a few long idle
        // spans that cross many tick boundaries.
        let gap = match rng.below(16) {
            0..=2 => rng.below(3),
            3 => rng.below(8_192) + 1,
            _ => rng.below(600) + 1,
        };
        let prev = now;
        now += gap;
        for c in prev + 1..=now {
            step.advance(Cycle::new(c));
        }
        jump.advance(Cycle::new(now));
        let addr = if rng.chance(1, 8) {
            Addr::new(0x40_0000 + rng.below(8) * 32 * 1024 + rng.below(64) * 32)
        } else {
            lines[i as usize % lines.len()]
        };
        let mref = MemRef::new(addr, Pc::new(0x400 + 4 * rng.below(4)));
        let is_store = rng.chance(1, 4);
        let a = jump.access(&mref, is_store, Cycle::new(now));
        let b = step.access(&mref, is_store, Cycle::new(now));
        assert_eq!(a, b, "case {case}: outcome diverged at cycle {now}");
    }
    jump.finish(Cycle::new(now));
    step.finish(Cycle::new(now));
    assert_eq!(jump.stats(), step.stats(), "case {case}: hierarchy stats");
    assert_eq!(
        jump.miss_breakdown(),
        step.miss_breakdown(),
        "case {case}: miss breakdown"
    );
    assert_eq!(
        jump.pf_queue_discards(),
        step.pf_queue_discards(),
        "case {case}: prefetch-queue discards"
    );
    assert_eq!(
        jump.victim_stats(),
        step.victim_stats(),
        "case {case}: victim stats"
    );
    assert_eq!(
        jump.correlation_stats(),
        step.correlation_stats(),
        "case {case}: correlation stats"
    );
    jump.stats()
}

/// The event-driven `advance` replays every intermediate wake-up (global
/// tick, prefetch arrival, issue-gate opening) at its true timestamp, so
/// jumping over idle cycles never changes an access outcome or a
/// statistic.
#[test]
fn advance_jump_equals_stepping() {
    let tk = SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
    let victim = SystemConfig::with_victim(VictimMode::paper_dead_time());
    for (i, cfg) in [tk, SystemConfig::base(), victim].into_iter().enumerate() {
        let mut rng = Rng::new(0xad7a_0000 + i as u64);
        let (mut pf_fills, mut vc_hits) = (0, 0);
        for case in 0..256 {
            let s = assert_jump_equals_stepping(cfg, &mut rng, case);
            pf_fills += s.pf_fills;
            vc_hits += s.vc_hits;
        }
        // The schedules must exercise the mechanism under test.
        if cfg == tk {
            assert!(pf_fills > 0, "no timekeeping prefetch ever arrived");
        }
        if cfg == victim {
            assert!(vc_hits > 0, "the dead-time victim cache never hit");
        }
    }
}

// ---------------------------------------------------------- tick boundary

/// `cycle_of_tick` is the exact left inverse of `tick_of`, and the
/// boundary it names is the first cycle of its tick: hopping the clock
/// straight to the next boundary crosses exactly one tick.
#[test]
fn ticker_jump_boundaries() {
    let mut rng = Rng::new(0x71c_4e5);
    for case in 0..100_000u64 {
        let period = rng.below(10_000) + 1;
        let c = Cycle::new(rng.below(10_000_000));
        let t = GlobalTicker::new(period);
        let tick = t.tick_of(c);
        let boundary = t.cycle_of_tick(tick);
        let next = t.cycle_of_tick(tick + 1);
        assert_eq!(t.tick_of(boundary), tick, "case {case}");
        assert!(boundary <= c, "case {case}: tick starts after {c}");
        assert!(c < next, "case {case}: {c} not before the next boundary");
        assert_eq!(t.ticks_between(c, next), 1, "case {case}");
        assert!(
            !t.ticked_between(boundary, Cycle::new(next.get() - 1)),
            "case {case}: a tick inside the span"
        );
    }
}

// ------------------------------------------------------------ cache model

/// Reference model: per-set tag vectors in LRU-to-MRU order.
struct RefCache {
    geom: CacheGeometry,
    sets: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> Self {
        RefCache {
            geom,
            sets: vec![Vec::new(); geom.num_sets() as usize],
        }
    }

    fn set(&mut self, addr: Addr) -> &mut Vec<u64> {
        &mut self.sets[self.geom.index_of(addr) as usize]
    }

    /// Applies one access; returns whether it hit.
    fn access(&mut self, addr: Addr) -> bool {
        let (tag, assoc) = (self.geom.tag_of(addr), self.geom.assoc() as usize);
        let set = self.set(addr);
        let hit = match set.iter().position(|&t| t == tag) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => false,
        };
        set.push(tag);
        if set.len() > assoc {
            set.remove(0);
        }
        hit
    }

    /// Drops the line; returns whether it was resident.
    fn invalidate(&mut self, addr: Addr) -> bool {
        let tag = self.geom.tag_of(addr);
        let set = self.set(addr);
        let pos = set.iter().position(|&t| t == tag);
        pos.map(|p| set.remove(p)).is_some()
    }
}

/// probe/fill/invalidate agree with the reference LRU on every operation
/// of a mixed stream: hits and misses match, a missing probe names the
/// frame and victim that the following fill uses, and an invalidated line
/// misses on its next access.
#[test]
fn cache_matches_reference_lru() {
    let mut rng = Rng::new(0xcac4e);
    for case in 0..512u64 {
        let geom = CacheGeometry::new(1024, 1 << rng.below(3), 32).unwrap();
        let mut cache = SetAssocCache::new(geom);
        let mut reference = RefCache::new(geom);
        let mut accesses = 0u64;
        for _ in 0..rng.below(400) + 1 {
            let addr = Addr::new(rng.below(512) * 32 + rng.below(32));
            if rng.chance(1, 5) {
                let expected = reference.invalidate(addr);
                match cache.peek(addr) {
                    Some(frame) => {
                        assert!(expected, "case {case}: cache holds a dropped line");
                        assert_eq!(cache.invalidate(frame), Some(geom.line_of(addr)));
                    }
                    None => assert!(!expected, "case {case}: cache lost a line"),
                }
                continue;
            }
            accesses += 1;
            let expected_hit = reference.access(addr);
            match cache.probe(addr) {
                ProbeResult::Hit(frame) => {
                    assert!(expected_hit, "case {case}: model missed, cache hit");
                    assert_eq!(cache.line_in_frame(frame), Some(geom.line_of(addr)));
                }
                ProbeResult::Miss {
                    victim_frame,
                    evicted,
                } => {
                    assert!(!expected_hit, "case {case}: model hit, cache missed");
                    assert_eq!(cache.fill(addr), (victim_frame, evicted), "case {case}");
                }
            }
        }
        assert_eq!(cache.hits() + cache.misses(), accesses, "case {case}");
    }
}

// -------------------------------------------------------------- snapshots

/// Renders, parses and reconstructs a snapshot, asserting the text is
/// reproduced bit-exactly and the value survives unchanged.
fn assert_snapshot_roundtrips<T>(value: &T, what: &str)
where
    T: Snapshot + PartialEq + std::fmt::Debug,
{
    let doc = value.to_json().render();
    let parsed = Json::parse(&doc).expect("rendered snapshots parse back");
    assert_eq!(parsed.render(), doc, "{what}: render→parse→render");
    let back = T::from_json(&parsed).expect("snapshot shape matches");
    assert_eq!(&back, value, "{what}: from_json(to_json(x)) != x");
}

/// A counter value skewed towards the edges of the `u64` range, where a
/// lossy (float) encoding would first show.
fn counter(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => rng.below(16),
        1 => u64::MAX - rng.below(16),
        _ => rng.next_u64(),
    }
}

/// A complete `RunResult` — core, hierarchy, breakdown, metrics and the
/// optional victim/prefetch/DBCP sections — round-trips on every machine
/// that populates them.
#[test]
fn run_result_snapshot_roundtrips() {
    let machines = [
        SystemConfig::base(),
        SystemConfig::with_victim(VictimMode::Collins),
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        SystemConfig::with_prefetch(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
        SystemConfig::with_prefetch(PrefetchMode::Stride(timekeeping::StrideConfig::default())),
    ];
    let mut rng = Rng::new(0x05a9_5407);
    for (i, cfg) in machines.into_iter().enumerate() {
        let bench = SpecBenchmark::ALL[rng.below(SpecBenchmark::ALL.len() as u64) as usize];
        let mut w = bench.build(rng.below(1_000));
        let r = run_workload(&mut w, cfg, 20_000);
        assert_snapshot_roundtrips(&r, &format!("machine {i} on {bench}"));
    }
}

/// The core statistics types round-trip for arbitrary contents,
/// including counters at the extremes of the `u64` range.
#[test]
fn stats_snapshots_roundtrip() {
    let mut rng = Rng::new(0x57a75);
    for case in 0..256u64 {
        let [a, b, c, d] = [(); 4].map(|()| counter(&mut rng));
        let what = format!("case {case}");
        assert_snapshot_roundtrips(
            &MissBreakdown {
                cold: a,
                conflict: b,
                capacity: c,
            },
            &what,
        );
        assert_snapshot_roundtrips(
            &VictimStats {
                offered: a,
                admitted: b,
                probes: c,
                hits: d,
            },
            &what,
        );
        assert_snapshot_roundtrips(
            &CorrelationStats {
                lookups: a,
                hits: b,
                updates: c,
                allocations: d,
            },
            &what,
        );
        assert_snapshot_roundtrips(
            &DbcpStats {
                lookups: a,
                predictions: b,
                prefetches: c,
                updates: d,
            },
            &what,
        );

        let mut h = Histogram::new(rng.below(5_000) + 1, rng.below(63) as usize + 1);
        for _ in 0..rng.below(200) {
            h.record(counter(&mut rng));
        }
        assert_snapshot_roundtrips(&h, &what);

        let mut v = LiveTimeVariability::new();
        for _ in 0..rng.below(100) {
            v.record(rng.below(1_000_000) + 1, rng.below(1_000_000) + 1);
        }
        assert_snapshot_roundtrips(&v, &what);

        let mut t = TimelinessStats::new();
        for _ in 0..rng.below(200) {
            let class = Timeliness::ALL[rng.below(Timeliness::ALL.len() as u64) as usize];
            t.record(rng.chance(1, 2), class);
        }
        assert_snapshot_roundtrips(&t, &what);
    }
}
