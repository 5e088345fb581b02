//! Trace-driven out-of-order core timing model.
//!
//! An 8-wide, 128-entry-window machine in the style of the paper's
//! SimpleScalar configuration: instructions enter the window in program
//! order (up to `issue_width` per cycle, blocking when the window is
//! full), execute with their individual latencies (memory operations ask
//! the [`MemorySystem`] for a completion
//! time, which embeds cache, bus and MSHR contention), and retire in
//! order (up to `commit_width` per cycle). Memory-level parallelism
//! emerges naturally: independent misses overlap until the window fills.
//!
//! One loop drives 1..N cores: a single-core run is N=1 over a
//! [`MemorySystem`], a multi-core run is N cores over the coherent
//! [`MultiCoreSystem`](crate::multicore::MultiCoreSystem). Both sit
//! behind the crate-private `CorePort` trait.

use timekeeping::snapshot::{Json, Snapshot, SnapshotError};
use timekeeping::Cycle;

use crate::config::SystemConfig;
use crate::hierarchy::MemorySystem;
use crate::trace::{Instr, MemRef, Workload};

/// Execution statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Software prefetches executed (0 if dropped by config).
    pub sw_prefetches: u64,
    /// Cycles in which no instruction could enter the window
    /// (window-full stalls).
    pub window_full_cycles: u64,
}

impl CoreStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

impl Snapshot for CoreStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("instructions", Json::U64(self.instructions)),
            ("cycles", Json::U64(self.cycles)),
            ("loads", Json::U64(self.loads)),
            ("stores", Json::U64(self.stores)),
            ("sw_prefetches", Json::U64(self.sw_prefetches)),
            ("window_full_cycles", Json::U64(self.window_full_cycles)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, SnapshotError> {
        Ok(CoreStats {
            instructions: v.u64_field("instructions")?,
            cycles: v.u64_field("cycles")?,
            loads: v.u64_field("loads")?,
            stores: v.u64_field("stores")?,
            sw_prefetches: v.u64_field("sw_prefetches")?,
            window_full_cycles: v.u64_field("window_full_cycles")?,
        })
    }
}

/// The memory side of the core loop: one hierarchy shared by every core
/// the loop drives, addressed by core index. [`MemorySystem`] is the
/// one-core port; [`crate::multicore::MultiCoreSystem`] the N-core one.
pub(crate) trait CorePort {
    /// The configuration the port was built from (the loop reads
    /// `ignore_sw_prefetch` and `step_every_cycle`).
    fn config(&self) -> &SystemConfig;
    /// Replays the port's own scheduled events up to `now`.
    fn advance(&mut self, now: Cycle);
    /// One memory access by `core` at `now`; returns the data-ready cycle.
    fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle;
    /// The port's earliest self-scheduled event after `now`, if any.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;
    /// Closes the run at `now`.
    fn finish(&mut self, now: Cycle);
}

impl CorePort for MemorySystem {
    fn config(&self) -> &SystemConfig {
        MemorySystem::config(self)
    }
    fn advance(&mut self, now: Cycle) {
        MemorySystem::advance(self, now)
    }
    #[inline]
    fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle {
        debug_assert_eq!(core, 0, "the single-core hierarchy serves core 0 only");
        MemorySystem::access(self, mref, is_store, now).ready_at
    }
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        MemorySystem::next_event(self, now)
    }
    fn finish(&mut self, now: Cycle) {
        MemorySystem::finish(self, now)
    }
}

/// The core model: one out-of-order window and its run state. Drive it
/// with [`run`](OooCore::run).
#[derive(Debug)]
pub struct OooCore {
    issue_width: usize,
    window_size: usize,
    commit_width: usize,
    /// Completion cycles of in-flight instructions, in program order.
    window: std::collections::VecDeque<Cycle>,
    /// A fetched chained load waiting for its address to become available.
    stalled: Option<Instr>,
    /// Completion time of the most recent chained load: the next chained
    /// load's address is not known before this.
    chain_ready: Cycle,
    fetched: u64,
    /// Whether this core has retired its whole budget.
    done: bool,
    stats: CoreStats,
}

impl OooCore {
    /// Creates a core with the window parameters of `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let m = &cfg.machine;
        OooCore {
            issue_width: m.issue_width as usize,
            window_size: m.window_size as usize,
            commit_width: m.commit_width as usize,
            window: std::collections::VecDeque::with_capacity(m.window_size as usize),
            stalled: None,
            chain_ready: Cycle::ZERO,
            fetched: 0,
            done: false,
            stats: CoreStats::default(),
        }
    }

    /// Runs `max_instructions` instructions of `workload` against `mem`,
    /// returning the core statistics. Deterministic for a given workload
    /// state.
    pub fn run<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        mem: &mut MemorySystem,
        max_instructions: u64,
    ) -> CoreStats {
        drive(
            std::slice::from_mut(self),
            mem,
            |_| workload.next_instr(),
            max_instructions,
        );
        self.stats
    }

    /// This core's statistics of the last [`drive`].
    pub(crate) fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The cycle this core's next instruction can issue or retire at, or
    /// `None` if it can issue in the very next cycle.
    fn wake_if_blocked(&self, max_instructions: u64) -> Option<Cycle> {
        let blocked = self.fetched >= max_instructions
            || self.window.len() >= self.window_size
            || self.stalled.is_some();
        if !blocked {
            return None;
        }
        let mut wake = self.window.front().copied().unwrap_or(Cycle::new(u64::MAX));
        if self.stalled.is_some() {
            wake = wake.min(self.chain_ready);
        }
        Some(wake)
    }
}

/// The core loop: runs `max_instructions` instructions on every core of
/// `cores`, feeding core `c` from `next_instr(c)`, against one shared
/// `port`. Within a cycle cores are serviced in index order, which fixes
/// the order of their memory accesses. Each core's statistics end up in
/// the core ([`OooCore::stats`]); a core's `cycles` is the cycle it
/// retired its last instruction.
pub(crate) fn drive<P: CorePort + ?Sized>(
    cores: &mut [OooCore],
    port: &mut P,
    mut next_instr: impl FnMut(usize) -> Instr,
    max_instructions: u64,
) {
    let ignore_swpf = port.config().ignore_sw_prefetch;
    let step_every_cycle = port.config().step_every_cycle;
    for core in cores.iter_mut() {
        core.window.clear();
        core.stalled = None;
        core.chain_ready = Cycle::ZERO;
        core.fetched = 0;
        core.done = false;
        core.stats = CoreStats::default();
    }
    let mut cycle = Cycle::ZERO;
    loop {
        port.advance(cycle);
        let mut all_done = true;
        for (c, core) in cores.iter_mut().enumerate() {
            if core.done {
                continue;
            }
            // Retire in order.
            let mut retired = 0;
            while retired < core.commit_width {
                match core.window.front() {
                    Some(&ready) if ready <= cycle => {
                        core.window.pop_front();
                        core.stats.instructions += 1;
                        retired += 1;
                    }
                    _ => break,
                }
            }
            if core.stats.instructions >= max_instructions && core.window.is_empty() {
                core.done = true;
                core.stats.cycles = cycle.get();
                continue;
            }
            all_done = false;

            // Issue in order while the window has room.
            let mut issued = 0;
            let mut window_was_full = false;
            while issued < core.issue_width && core.fetched < max_instructions {
                if core.window.len() >= core.window_size {
                    window_was_full = true;
                    break;
                }
                let instr = match core.stalled.take() {
                    Some(i) => i,
                    None => next_instr(c),
                };
                // A chained load cannot access the cache before the
                // previous chained load has produced its address; issue
                // stalls until then.
                if let Instr::ChainedLoad(_) = instr {
                    if core.chain_ready > cycle {
                        core.stalled = Some(instr);
                        break;
                    }
                }
                let ready = match instr {
                    Instr::Op => cycle + 1,
                    Instr::Load(m) => {
                        core.stats.loads += 1;
                        port.access(c, &m, false, cycle)
                    }
                    Instr::ChainedLoad(m) => {
                        core.stats.loads += 1;
                        let ready = port.access(c, &m, false, cycle);
                        core.chain_ready = ready;
                        ready
                    }
                    Instr::Store(m) => {
                        core.stats.stores += 1;
                        // Stores retire through the write buffer: the cache
                        // is updated but the core does not wait for data.
                        port.access(c, &m, true, cycle);
                        cycle + 1
                    }
                    Instr::SwPrefetch(m) => {
                        if ignore_swpf {
                            cycle + 1
                        } else {
                            core.stats.sw_prefetches += 1;
                            // Treated as a normal memory reference (§2.2)
                            // that does not block retirement.
                            port.access(c, &m, false, cycle);
                            cycle + 1
                        }
                    }
                };
                core.window.push_back(ready);
                core.fetched += 1;
                issued += 1;
            }
            if window_was_full {
                core.stats.window_full_cycles += 1;
            }
        }
        if all_done {
            break;
        }

        // Event-driven clock hopping: when no live core can issue or
        // retire in the next cycle (window head not ready, window full,
        // nothing left to fetch, or a stalled chained load whose address
        // is not ready), every cycle up to the earliest wake-up source is
        // provably a no-op — the windows' completion times are fixed at
        // issue, and the port replays its own events inside `advance`.
        // Hop straight there, bulk-accounting the skipped span.
        // `step_every_cycle` keeps the per-cycle reference loop for
        // differential testing.
        let mut next = cycle + 1;
        if !step_every_cycle {
            let blocked_until = cores
                .iter()
                .filter(|c| !c.done)
                .try_fold(Cycle::new(u64::MAX), |wake, core| {
                    core.wake_if_blocked(max_instructions).map(|w| wake.min(w))
                });
            if let Some(mut wake) = blocked_until {
                if let Some(e) = port.next_event(cycle) {
                    wake = wake.min(e);
                }
                if wake > next {
                    // Every skipped cycle would have counted as a
                    // window-full stall iff the issue loop ran and hit a
                    // full window — exactly this condition.
                    for core in cores.iter_mut().filter(|c| !c.done) {
                        if core.window.len() >= core.window_size && core.fetched < max_instructions
                        {
                            core.stats.window_full_cycles += wake.get() - next.get();
                        }
                    }
                    next = wake;
                }
            }
        }
        cycle = next;
    }
    port.finish(cycle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekeeping::{Addr, Pc};

    /// All-ALU workload: IPC should approach the issue width.
    struct AllOps;
    impl Workload for AllOps {
        fn next_instr(&mut self) -> Instr {
            Instr::Op
        }
        fn name(&self) -> &str {
            "all-ops"
        }
    }

    /// Pointer-chase-like: every instruction is a load to a new line,
    /// serialized by nothing but bandwidth. Strides one 64 B L2 block per
    /// access, so every reference opens a new line at both cache levels.
    struct MissStream(u64);
    impl Workload for MissStream {
        fn next_instr(&mut self) -> Instr {
            self.0 += 1;
            Instr::Load(MemRef::new(Addr::new(self.0 * 64), Pc::new(4)))
        }
        fn name(&self) -> &str {
            "miss-stream"
        }
    }

    /// Loads that always hit one cached line.
    struct HitStream;
    impl Workload for HitStream {
        fn next_instr(&mut self) -> Instr {
            Instr::Load(MemRef::new(Addr::new(0x40), Pc::new(4)))
        }
        fn name(&self) -> &str {
            "hit-stream"
        }
    }

    #[test]
    fn alu_ipc_approaches_issue_width() {
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut AllOps, &mut mem, 10_000);
        assert_eq!(stats.instructions, 10_000);
        assert!(
            stats.ipc() > 7.0,
            "ALU-only IPC must be near 8, got {}",
            stats.ipc()
        );
    }

    #[test]
    fn hit_stream_is_fast() {
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut HitStream, &mut mem, 10_000);
        assert!(
            stats.ipc() > 6.0,
            "L1-hit IPC must be high, got {}",
            stats.ipc()
        );
        assert_eq!(stats.loads, 10_000);
    }

    #[test]
    fn miss_stream_strides_exactly_one_l2_block() {
        // Pin the intended stride: one 64 B L2 block (and therefore a new
        // 32 B L1 line) per access. A double-scaling bug here once made the
        // stride 4096 B, turning the "new line every load" workload into an
        // 8-set conflict sweep.
        let mut w = MissStream(0);
        let addr_of = |i: Instr| match i {
            Instr::Load(m) => m.addr.get(),
            other => panic!("MissStream must produce loads, got {other:?}"),
        };
        let mut prev = addr_of(w.next_instr());
        for _ in 0..16 {
            let cur = addr_of(w.next_instr());
            assert_eq!(cur - prev, 64, "stride must be one 64 B L2 block");
            prev = cur;
        }
    }

    #[test]
    fn miss_stream_is_memory_bound() {
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut MissStream(0), &mut mem, 5_000);
        // Every load misses to memory; the window and MSHRs bound MLP.
        assert!(
            stats.ipc() < 4.0,
            "all-miss IPC must be memory-bound, got {}",
            stats.ipc()
        );
        assert!(mem.stats().l1_misses() >= 4_999);
        assert!(
            stats.window_full_cycles > 0,
            "the window must fill under misses"
        );
    }

    #[test]
    fn misses_overlap_up_to_window() {
        // With a 128-entry window and 64 MSHRs, independent misses overlap:
        // total time must be far below misses x full-latency.
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut MissStream(10_000), &mut mem, 2_000);
        let serial_estimate = 2_000u64 * 88; // full cold-miss latency each
        assert!(
            stats.cycles < serial_estimate / 4,
            "MLP must overlap misses: {} cycles vs serial {}",
            stats.cycles,
            serial_estimate
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig::base();
        let run = || {
            let mut core = OooCore::new(&cfg);
            let mut mem = MemorySystem::new(cfg);
            core.run(&mut MissStream(42), &mut mem, 3_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ignore_sw_prefetch_config() {
        struct PfStream;
        impl Workload for PfStream {
            fn next_instr(&mut self) -> Instr {
                Instr::SwPrefetch(MemRef::new(Addr::new(0x40), Pc::new(4)))
            }
            fn name(&self) -> &str {
                "pf-stream"
            }
        }
        let mut cfg = SystemConfig::base();
        cfg.ignore_sw_prefetch = true;
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut PfStream, &mut mem, 1_000);
        assert_eq!(stats.sw_prefetches, 0);
        assert_eq!(mem.stats().l1_accesses, 0);

        let cfg2 = SystemConfig::base();
        let mut core2 = OooCore::new(&cfg2);
        let mut mem2 = MemorySystem::new(cfg2);
        let stats2 = core2.run(&mut PfStream, &mut mem2, 1_000);
        assert_eq!(stats2.sw_prefetches, 1_000);
        assert_eq!(mem2.stats().l1_accesses, 1_000);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        struct StoreMissStream(u64);
        impl Workload for StoreMissStream {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                Instr::Store(MemRef::new(Addr::new(self.0 * 64 * 1024), Pc::new(4)))
            }
            fn name(&self) -> &str {
                "store-miss"
            }
        }
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut StoreMissStream(0), &mut mem, 2_000);
        assert!(
            stats.ipc() > 4.0,
            "store misses retire through the write buffer, got {}",
            stats.ipc()
        );
        assert_eq!(stats.stores, 2_000);
    }
}
