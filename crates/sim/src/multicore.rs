//! Multi-core MESI-coherent hierarchy: N timing cores with private L1s
//! and victim caches over a shared inclusive L2.
//!
//! This module generalizes the single-core machine of
//! [`crate::hierarchy`] to `--cores=N` (see [`SystemConfig::cores`]).
//! Each core runs the single-core observer plane of [`crate::pipeline`]
//! (generation tracking, metric distributions, predict-only timekeeping
//! prefetcher scoring, the victim cache and its admission filter) on the
//! same Hit, Miss, Fill and Evict events, beside its own ground-truth
//! miss classification. A snooping MESI protocol arbitrated by a
//! [`SnoopBus`] keeps the private L1s coherent:
//!
//! * **BusRd** (read miss): data comes from the owning core's modified
//!   copy (a cache-to-cache transfer that also flushes the dirty data to
//!   the L2), from the shared L2, or from memory. Remaining M/E copies
//!   degrade to S.
//! * **BusRdX** (write miss) and **upgrade** (write hit on a shared
//!   copy): every other copy — L1 *and* victim cache — is invalidated.
//! * **Inclusion**: an L2 eviction back-invalidates both L1-sized halves
//!   of the departing L2 block in every core.
//!
//! The timekeeping consequence is a second way for a generation to die:
//! a coherence or inclusion kill emits an Evict event with
//! [`EvictCause::Invalidate`], which the victim filter is never offered,
//! where a replacement emits [`EvictCause::Demand`]. [`CoherenceStats`]
//! splits live/dead time along that axis, which is what the
//! `mesi_compare` report plots.
//!
//! Determinism and clock hopping: [`MultiCoreSystem::run`] hands the N
//! cores to the one core loop of [`crate::core`] (a single-core run is
//! the same loop at N=1), which services them in (cycle, core-index)
//! order, so the global bus-transaction order is a pure function of the
//! workload. The hierarchy schedules no background events (multi-core
//! runs reject issuing prefetchers and decay at `build()`, and
//! predict-only ticks are synchronized lazily at access time), so the
//! event-driven clock hop is provably equivalent to per-cycle stepping
//! — the `step_equivalence` suite checks bit-identity over
//! multiprogrammed mixes.
//!
//! [`CoherentChecker`] verifies the hierarchy against a timing-free
//! mirror built from the same tag model as the single-core
//! [`FunctionalOracle`](crate::oracle::FunctionalOracle).

use timekeeping::snapshot::{Json, Snapshot, SnapshotError};
use timekeeping::{
    Addr, CorrelationStats, Cycle, EvictCause, FullyAssocShadow, GenerationRecord, GlobalTicker,
    LineAddr, LineMap, LineSet, MetricsCollector, MissBreakdown, PrefetchRequest, VictimStats,
};

use crate::bus::{Bus, SnoopBus};
use crate::cache::{ProbeResult, SetAssocCache};
use crate::config::{SystemConfig, VictimMode};
use crate::core::{CorePort, CoreStats, OooCore};
use crate::dram::MemBackend;
use crate::hierarchy::HierarchyStats;
use crate::obs::{self, TraceObserver};
use crate::oracle::{ShadowTags, ShadowVictim};
use crate::pipeline::{
    C2cEvent, CoherenceKind, EvictEvent, FillEvent, HitEvent, InvalidateEvent, MemObserver,
    MissEvent, Observers, PrefetcherImpl, Reactions, SnoopEvent, VictimUnit,
};
use crate::system::{RunResult, WeightedSum};
use crate::trace::{MemRef, Workload};

// ------------------------------------------------------------------- MESI

/// Per-frame MESI coherence state of a private L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// No valid copy (the frame is empty or was invalidated).
    Invalid,
    /// A clean copy that other caches may also hold.
    Shared,
    /// The only cached copy, still clean — a store upgrades it to
    /// [`Mesi::Modified`] silently (no bus transaction).
    Exclusive,
    /// The only cached copy, dirty; supplied cache-to-cache on a remote
    /// miss.
    Modified,
}

// ------------------------------------------------------- coherence stats

/// Aggregate coherence-plane counters of a multi-core run.
///
/// The generation-death split (`evict_*` vs `inval_*`) is the module's
/// reason to exist: it separates replacement-death timekeeping (the
/// single-core paper's subject) from invalidation-death, where another
/// core's write ends a generation the local replacement policy never
/// chose to end. Flush-closed generations at end of run are counted in
/// neither bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// BusRd transactions granted (read misses).
    pub bus_reads: u64,
    /// BusRdX transactions granted (write misses).
    pub bus_read_exclusives: u64,
    /// Upgrade transactions granted (write hits on shared copies).
    pub bus_upgrades: u64,
    /// Misses supplied cache-to-cache from a modified remote copy.
    pub c2c_transfers: u64,
    /// L1/VC copies killed by BusRdX or upgrade transactions.
    pub coherence_invalidations: u64,
    /// L1/VC copies recalled by inclusive-L2 evictions.
    pub inclusion_invalidations: u64,
    /// Of all invalidations, the copies that lived in a victim cache.
    pub vc_invalidations: u64,
    /// Misses to lines this core previously lost to an invalidation —
    /// the coherence analogue of a conflict miss.
    pub inval_refetches: u64,
    /// Generations ended by replacement (demand eviction).
    pub evict_deaths: u64,
    /// Total live time of replacement-ended generations.
    pub evict_live_time: u64,
    /// Total dead time of replacement-ended generations.
    pub evict_dead_time: u64,
    /// Generations ended by invalidation.
    pub inval_deaths: u64,
    /// Total live time of invalidation-ended generations.
    pub inval_live_time: u64,
    /// Total dead time of invalidation-ended generations.
    pub inval_dead_time: u64,
}

impl CoherenceStats {
    /// All bus transactions granted.
    pub fn transactions(&self) -> u64 {
        self.bus_reads + self.bus_read_exclusives + self.bus_upgrades
    }

    /// Fraction of generation deaths caused by invalidation.
    pub fn invalidation_death_fraction(&self) -> Option<f64> {
        let total = self.evict_deaths + self.inval_deaths;
        (total > 0).then(|| self.inval_deaths as f64 / total as f64)
    }

    /// Mean dead time of replacement-ended generations.
    pub fn mean_evict_dead_time(&self) -> Option<f64> {
        (self.evict_deaths > 0).then(|| self.evict_dead_time as f64 / self.evict_deaths as f64)
    }

    /// Mean dead time of invalidation-ended generations.
    pub fn mean_inval_dead_time(&self) -> Option<f64> {
        (self.inval_deaths > 0).then(|| self.inval_dead_time as f64 / self.inval_deaths as f64)
    }

    /// Mean live time of invalidation-ended generations.
    pub fn mean_inval_live_time(&self) -> Option<f64> {
        (self.inval_deaths > 0).then(|| self.inval_live_time as f64 / self.inval_deaths as f64)
    }
}

impl Snapshot for CoherenceStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bus_reads", Json::U64(self.bus_reads)),
            ("bus_read_exclusives", Json::U64(self.bus_read_exclusives)),
            ("bus_upgrades", Json::U64(self.bus_upgrades)),
            ("c2c_transfers", Json::U64(self.c2c_transfers)),
            (
                "coherence_invalidations",
                Json::U64(self.coherence_invalidations),
            ),
            (
                "inclusion_invalidations",
                Json::U64(self.inclusion_invalidations),
            ),
            ("vc_invalidations", Json::U64(self.vc_invalidations)),
            ("inval_refetches", Json::U64(self.inval_refetches)),
            ("evict_deaths", Json::U64(self.evict_deaths)),
            ("evict_live_time", Json::U64(self.evict_live_time)),
            ("evict_dead_time", Json::U64(self.evict_dead_time)),
            ("inval_deaths", Json::U64(self.inval_deaths)),
            ("inval_live_time", Json::U64(self.inval_live_time)),
            ("inval_dead_time", Json::U64(self.inval_dead_time)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, SnapshotError> {
        Ok(CoherenceStats {
            bus_reads: v.u64_field("bus_reads")?,
            bus_read_exclusives: v.u64_field("bus_read_exclusives")?,
            bus_upgrades: v.u64_field("bus_upgrades")?,
            c2c_transfers: v.u64_field("c2c_transfers")?,
            coherence_invalidations: v.u64_field("coherence_invalidations")?,
            inclusion_invalidations: v.u64_field("inclusion_invalidations")?,
            vc_invalidations: v.u64_field("vc_invalidations")?,
            inval_refetches: v.u64_field("inval_refetches")?,
            evict_deaths: v.u64_field("evict_deaths")?,
            evict_live_time: v.u64_field("evict_live_time")?,
            evict_dead_time: v.u64_field("evict_dead_time")?,
            inval_deaths: v.u64_field("inval_deaths")?,
            inval_live_time: v.u64_field("inval_live_time")?,
            inval_dead_time: v.u64_field("inval_dead_time")?,
        })
    }
}

// ---------------------------------------------------------- per-core plane

/// One core's private slice of the hierarchy: L1 tags, MESI states, the
/// classification shadow and the single-core observer plane (generation
/// tracking, metrics, predict-only prefetcher scoring, victim cache).
#[derive(Debug)]
struct CorePlane {
    l1: SetAssocCache,
    /// MESI state per L1 frame (parallel to the tag array).
    mesi: Vec<Mesi>,
    shadow: FullyAssocShadow,
    obs: Observers,
    /// Cycle up to which global ticks have been applied to a predict-only
    /// timekeeping prefetcher.
    last_sync: Cycle,
    /// Reusable buffer for tick-fired requests (discarded: predict-only).
    tick_scratch: Vec<PrefetchRequest>,
    /// In-flight demand fills: line → data-ready cycle. Tags allocate at
    /// miss time (as in the single-core model), so a subsequent access
    /// to an in-flight line hits in the tag array; this map supplies the
    /// true data-ready time for that hit-under-miss case.
    pending: LineMap<u64>,
    /// Lines this core lost to an invalidation and has not refetched yet.
    inval_lost: LineSet,
    stats: HierarchyStats,
}

impl CorePlane {
    fn new(cfg: &SystemConfig, ticker: GlobalTicker) -> Self {
        let num_frames = cfg.machine.l1d.num_frames() as usize;
        CorePlane {
            l1: SetAssocCache::new(cfg.machine.l1d),
            mesi: vec![Mesi::Invalid; num_frames],
            shadow: FullyAssocShadow::new(num_frames),
            obs: Observers::new(cfg, ticker),
            last_sync: Cycle::ZERO,
            tick_scratch: Vec::new(),
            pending: LineMap::default(),
            inval_lost: LineSet::default(),
            stats: HierarchyStats::default(),
        }
    }

    /// Applies every global tick boundary crossed since the last access
    /// to the predict-only prefetcher (fired requests are discarded).
    /// Lazy, cycle-count-based synchronization keeps hop and per-cycle
    /// stepping bit-identical.
    fn sync_ticks(&mut self, now: Cycle, ticker: &GlobalTicker) {
        if let PrefetcherImpl::Tk(p) = &mut self.obs.predictors.prefetcher {
            for _ in 0..ticker.ticks_between(self.last_sync, now) {
                self.tick_scratch.clear();
                p.tick_into(&mut self.tick_scratch);
            }
            self.tick_scratch.clear();
            self.last_sync = now;
        }
    }

    /// The victim cache and its filter, if configured.
    fn vc(&mut self) -> Option<&mut VictimUnit> {
        self.obs.victim.unit.as_mut()
    }

    /// Whether this core holds a copy of `line` (L1 or victim cache).
    fn holds(&self, addr: Addr, line: LineAddr) -> bool {
        let vc = self.obs.victim.unit.as_ref();
        self.l1.peek(addr).is_some() || vc.is_some_and(|v| v.cache.contains(line))
    }
}

// --------------------------------------------------------------- checker

/// Hierarchy level that serviced a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServiceLevel {
    L1,
    VictimCache,
    CacheToCache,
    L2,
    Memory,
}

/// What the timing model reports to the functional mirror per access.
#[derive(Debug)]
struct AccessReport {
    core: usize,
    line: LineAddr,
    is_store: bool,
    /// L1 line displaced by the fill, with the victim-filter admission
    /// decision (policy input the mirror cannot recompute).
    l1_victim: Option<(LineAddr, bool)>,
    /// L2 line evicted by a memory fill.
    l2_victim: Option<LineAddr>,
    /// Copies killed by this access's coherence transaction.
    invalidated: Vec<(usize, LineAddr)>,
}

/// One core's slice of the [`CoherentChecker`] mirror.
#[derive(Debug)]
struct MirrorCore {
    l1: ShadowTags,
    /// MESI state of every line resident in `l1`.
    mesi: LineMap<Mesi>,
    vc: Option<ShadowVictim>,
}

impl MirrorCore {
    /// Whether the core holds a copy of `line` (L1 or victim buffer).
    fn holds(&self, line: LineAddr) -> bool {
        self.l1.contains(line) || self.vc.as_ref().is_some_and(|v| v.contains(line))
    }

    /// Drops `line` from the L1, with its state.
    fn drop_l1(&mut self, line: LineAddr) {
        self.mesi.remove(&line.get());
        self.l1.remove(line);
    }

    /// Kills every copy of `line` (L1 and victim buffer).
    fn kill(&mut self, line: LineAddr) {
        self.drop_l1(line);
        if let Some(v) = self.vc.as_mut() {
            v.take(line);
        }
    }

    /// Fills `line` into the L1 in `state`. The fill's set has room: the
    /// replacement victim was dropped first, as in the timing model.
    fn fill(&mut self, line: LineAddr, state: Mesi) {
        let evicted = self.l1.fill(line);
        debug_assert!(evicted.is_none(), "victim dropped before the fill");
        self.mesi.insert(line.get(), state);
    }
}

/// A timing-free functional mirror of the coherent hierarchy.
///
/// Keeps per-core L1 tags and victim buffers plus a shared L2 in the
/// single-core oracle's timing-free tag model (true-LRU recency rows,
/// deliberately distinct from the simulator's stamp-based tag arrays),
/// and a MESI state per resident L1 line. It replays every access in
/// the simulator's global order, asserting that service level,
/// replacement victims at both cache levels, and coherence-invalidation
/// sets all agree. Any divergence panics with a diagnostic report. The
/// only simulator fact it consumes without rederiving is the
/// victim-filter admission bit (a policy decision, not cache state).
#[derive(Debug)]
pub struct CoherentChecker {
    cores: Vec<MirrorCore>,
    l2: ShadowTags,
    accesses: u64,
}

impl CoherentChecker {
    fn new(cfg: &SystemConfig) -> Self {
        let m = &cfg.machine;
        let core = || MirrorCore {
            l1: ShadowTags::new(m.l1d),
            mesi: LineMap::default(),
            vc: (cfg.victim != VictimMode::None).then(|| ShadowVictim::new(m.victim_entries)),
        };
        CoherentChecker {
            cores: (0..cfg.cores).map(|_| core()).collect(),
            l2: ShadowTags::new(m.l2),
            accesses: 0,
        }
    }

    /// Accesses verified so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    fn fail(&self, r: &AccessReport, what: &str, detail: String) -> ! {
        panic!(
            "coherent-oracle divergence at access #{}: {what}\n  core {} {} line {:#x}\n  {detail}",
            self.accesses,
            r.core,
            if r.is_store { "store" } else { "load" },
            r.line.get(),
            detail = detail
        );
    }

    /// Fails with `what` unless the mirror's `expected` value is what the
    /// timing model `reported`.
    fn agree<T: PartialEq + std::fmt::Debug>(
        &self,
        r: &AccessReport,
        what: &str,
        expected: T,
        reported: T,
    ) {
        if expected != reported {
            let detail =
                format!("oracle expected {expected:?}, timing model reported {reported:?}");
            self.fail(r, what, detail);
        }
    }

    /// The cores other than `core`.
    fn others(&self, core: usize) -> impl Iterator<Item = &MirrorCore> {
        self.cores
            .iter()
            .enumerate()
            .filter(move |&(c, _)| c != core)
            .map(|(_, m)| m)
    }

    /// Replays one access, which the timing model serviced at
    /// `reported`, against the mirror and asserts agreement.
    fn verify(&mut self, r: &AccessReport, reported: ServiceLevel) {
        let line = r.line;
        let addr = self.cores[r.core].l1.geom.addr_of_line(line);
        let l2_line = self.l2.geom.line_of(addr);

        // 1. Independently determine the service level.
        let me = &self.cores[r.core];
        let level = if me.l1.contains(line) {
            ServiceLevel::L1
        } else if me.vc.as_ref().is_some_and(|v| v.contains(line)) {
            ServiceLevel::VictimCache
        } else if self
            .others(r.core)
            .any(|o| o.mesi.get(&line.get()) == Some(&Mesi::Modified))
        {
            ServiceLevel::CacheToCache
        } else if self.l2.contains(l2_line) {
            ServiceLevel::L2
        } else {
            ServiceLevel::Memory
        };
        self.agree(r, "service level mismatch", level, reported);

        // 2. Independently determine the coherence-invalidation set.
        let mut expected: Vec<(usize, u64)> = if r.is_store {
            (0..self.cores.len())
                .filter(|&c| c != r.core && self.cores[c].holds(line))
                .map(|c| (c, line.get()))
                .collect()
        } else {
            Vec::new()
        };
        expected.sort_unstable();
        let mut got: Vec<(usize, u64)> = r.invalidated.iter().map(|&(c, l)| (c, l.get())).collect();
        got.sort_unstable();
        self.agree(r, "invalidation set mismatch", expected, got);

        // 3. Apply the transition.
        let new_state = |mirror: &Self| {
            if r.is_store {
                Mesi::Modified
            } else if mirror.others(r.core).any(|o| o.holds(line)) {
                Mesi::Shared
            } else {
                Mesi::Exclusive
            }
        };
        match level {
            ServiceLevel::L1 => {
                self.cores[r.core].l1.touch(line);
                if r.is_store {
                    self.kill_others(r.core, line);
                    self.cores[r.core].mesi.insert(line.get(), Mesi::Modified);
                }
            }
            ServiceLevel::VictimCache => {
                self.cores[r.core]
                    .vc
                    .as_mut()
                    .expect("level checked")
                    .take(line);
                self.check_l1_victim(r, true);
                if r.is_store {
                    self.kill_others(r.core, line);
                }
                let st = new_state(self);
                self.cores[r.core].fill(line, st);
            }
            ServiceLevel::CacheToCache | ServiceLevel::L2 | ServiceLevel::Memory => {
                self.check_l1_victim(r, false);
                if r.is_store {
                    self.kill_others(r.core, line);
                } else {
                    // BusRd: remaining M/E copies degrade to Shared.
                    for (c, o) in self.cores.iter_mut().enumerate() {
                        if c != r.core {
                            if let Some(st) = o.mesi.get_mut(&line.get()) {
                                *st = Mesi::Shared;
                            }
                        }
                    }
                }
                if level == ServiceLevel::Memory {
                    let evicted = self.l2.fill(l2_line);
                    self.agree(r, "L2 replacement victim mismatch", evicted, r.l2_victim);
                    if let Some(e2) = evicted {
                        self.back_invalidate(e2);
                    }
                } else if !self.l2.touch(l2_line) {
                    // The transaction touched the shared L2 (LRU bump).
                    self.fail(
                        r,
                        "inclusion violation",
                        format!("L2 line {l2_line} absent while L1 copies exist"),
                    );
                }
                let st = new_state(self);
                self.cores[r.core].fill(line, st);
            }
        }
        self.accesses += 1;
    }

    /// Kills every copy of `line` outside `core`.
    fn kill_others(&mut self, core: usize, line: LineAddr) {
        for (c, o) in self.cores.iter_mut().enumerate() {
            if c != core {
                o.kill(line);
            }
        }
    }

    /// Checks the reported L1 replacement victim against the mirror's own
    /// LRU choice and applies the eviction (with VC insertion when
    /// admitted). `swap` marks the victim-cache swap path, where the
    /// displaced block always enters the buffer.
    fn check_l1_victim(&mut self, r: &AccessReport, swap: bool) {
        let expected = self.cores[r.core].l1.peek_victim(r.line);
        let reported = r.l1_victim.map(|(l, _)| l);
        self.agree(r, "L1 replacement victim mismatch", expected, reported);
        if let Some(victim) = expected {
            let me = &mut self.cores[r.core];
            me.drop_l1(victim);
            let admitted = swap || r.l1_victim.is_some_and(|(_, a)| a);
            if let Some(vc) = me.vc.as_mut().filter(|_| admitted) {
                vc.insert(victim);
            }
        }
    }

    /// Recalls both L1-sized halves of an evicted L2 line from every
    /// mirror cache (inclusion).
    fn back_invalidate(&mut self, l2_line: LineAddr) {
        let l1_geom = self.cores[0].l1.geom;
        let base = self.l2.geom.addr_of_line(l2_line);
        for off in (0..self.l2.geom.block_bytes() as u64).step_by(l1_geom.block_bytes() as usize) {
            let half = l1_geom.line_of(base.offset(off));
            for o in &mut self.cores {
                o.kill(half);
            }
        }
    }
}

// ---------------------------------------------------------------- system

/// The N-core MESI-coherent memory system.
///
/// Build with [`MultiCoreSystem::new`] from a validated multi-core
/// [`SystemConfig`], then drive with [`run`](MultiCoreSystem::run) over
/// per-core instruction streams. [`crate::run_workload`] routes here
/// automatically when `cfg.cores > 1`.
#[derive(Debug)]
pub struct MultiCoreSystem {
    cfg: SystemConfig,
    ticker: GlobalTicker,
    cores: Vec<CorePlane>,
    l2: SetAssocCache,
    snoop_bus: SnoopBus,
    l2mem_bus: Bus,
    backend: Box<dyn MemBackend>,
    coh: CoherenceStats,
    trace: Option<Box<TraceObserver>>,
    checker: Option<Box<CoherentChecker>>,
    /// What the access in progress reports to the checker (`None` when
    /// no checker is installed).
    report: Option<AccessReport>,
    finished: bool,
}

impl MultiCoreSystem {
    /// Builds the coherent hierarchy described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores < 2` — single-core configurations run the
    /// original bit-exact hierarchy in [`crate::hierarchy`].
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            cfg.cores >= 2,
            "MultiCoreSystem requires cores >= 2 (cores=1 runs the single-core hierarchy)"
        );
        let m = cfg.machine;
        let ticker = GlobalTicker::new(m.tick_period);
        MultiCoreSystem {
            ticker,
            cores: (0..cfg.cores)
                .map(|_| CorePlane::new(&cfg, ticker))
                .collect(),
            cfg,
            l2: SetAssocCache::new(m.l2),
            // The snoop bus doubles as the L1↔L2 data path, so coherence
            // transactions occupy it for one block transfer each.
            snoop_bus: SnoopBus::new(m.l1l2_bus_occupancy),
            l2mem_bus: Bus::new(m.l2mem_bus_occupancy),
            backend: crate::dram::build_backend(cfg.memory, m.mem_latency),
            coh: CoherenceStats::default(),
            trace: obs::trace_from_global(m.l1d),
            checker: None,
            report: None,
            finished: false,
        }
    }

    /// Installs the coherent functional mirror ([`CoherentChecker`]):
    /// every access is replayed into a timing-free reference model and
    /// any divergence panics with a diagnostic report.
    ///
    /// # Panics
    ///
    /// Panics if the system has already performed accesses.
    pub fn install_checker(&mut self) {
        assert!(
            self.cores.iter().all(|c| c.stats.l1_accesses == 0),
            "checker must be installed before any access"
        );
        self.checker = Some(Box::new(CoherentChecker::new(&self.cfg)));
    }

    /// Whether the coherent functional mirror is installed.
    pub fn checker_active(&self) -> bool {
        self.checker.is_some()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Coherence-plane counters.
    pub fn coherence(&self) -> &CoherenceStats {
        &self.coh
    }

    /// One core's hierarchy counters.
    pub fn core_stats(&self, core: usize) -> HierarchyStats {
        self.cores[core].stats
    }

    /// Hierarchy counters summed over all cores.
    pub fn stats(&self) -> HierarchyStats {
        crate::system::sum(self.cores.iter().map(|c| &c.stats))
    }

    /// Hands a coherence event to the shared trace observer, if one is
    /// installed.
    fn trace(&mut self, emit: impl FnOnce(&mut TraceObserver, &mut Reactions)) {
        if let Some(t) = self.trace.as_deref_mut() {
            emit(t, &mut Reactions::default());
        }
    }

    /// The core (and its L1 frame) holding a modified copy of `addr`,
    /// excluding `except`. At most one M copy can exist.
    fn m_owner(&self, except: usize, addr: Addr) -> Option<(usize, usize)> {
        let owned = |p: &CorePlane| p.l1.peek(addr).filter(|&f| p.mesi[f] == Mesi::Modified);
        (0..self.cores.len())
            .filter(|&i| i != except)
            .find_map(|i| Some((i, owned(&self.cores[i])?)))
    }

    /// Whether any other core holds a copy of `line` (L1 or victim
    /// cache). Sharer discovery scans the actual structures — there is
    /// no directory to go stale.
    fn other_copy_exists(&self, except: usize, addr: Addr, line: LineAddr) -> bool {
        (0..self.cores.len()).any(|i| i != except && self.cores[i].holds(addr, line))
    }

    /// Records a closed generation's death in the coherence split.
    fn record_death(&mut self, rec: &GenerationRecord) {
        match rec.cause {
            EvictCause::Demand => {
                self.coh.evict_deaths += 1;
                self.coh.evict_live_time += rec.live_time;
                self.coh.evict_dead_time += rec.dead_time;
            }
            EvictCause::Invalidate => {
                self.coh.inval_deaths += 1;
                self.coh.inval_live_time += rec.live_time;
                self.coh.inval_dead_time += rec.dead_time;
            }
            _ => {}
        }
    }

    /// Flushes a modified remote copy's data into the shared L2 (the L2
    /// holds the line by inclusion; marking it dirty stands in for the
    /// data movement in this tags-only model).
    fn flush_to_l2(&mut self, addr: Addr) {
        if let Some(f2) = self.l2.peek(addr) {
            self.l2.mark_dirty(f2);
        }
    }

    /// Kills core `c`'s copy of `line` (L1 frame or victim-cache entry),
    /// if it holds one, with the coherence-plane bookkeeping: an L1
    /// copy's generation ends with an [`EvictCause::Invalidate`] Evict
    /// event. `recall` marks an inclusion recall: the L2 copy is leaving
    /// too, so dirty data goes straight to memory. Otherwise this is a
    /// coherence invalidation and dirty data drains to the L2.
    fn kill_in(&mut self, c: usize, line: LineAddr, addr: Addr, at: Cycle, recall: bool) -> bool {
        let p = &mut self.cores[c];
        let frame = p.l1.peek(addr);
        if let Some(f) = frame {
            let was_modified = p.mesi[f] == Mesi::Modified;
            p.l1.invalidate(f);
            p.mesi[f] = Mesi::Invalid;
            let ev = EvictEvent::new(p.l1.geometry(), f, line, EvictCause::Invalidate, None, at);
            let rx = p.obs.evict(&ev);
            if was_modified {
                p.stats.l1_writebacks += 1;
                if recall {
                    self.backend.write(addr, at);
                } else {
                    self.flush_to_l2(addr);
                }
            }
            if let Some(rec) = &rx.generation {
                self.record_death(rec);
            }
        } else if p.vc().is_some_and(|v| v.cache.invalidate(line)) {
            self.coh.vc_invalidations += 1;
        } else {
            return false;
        }
        self.cores[c].inval_lost.insert(line.get());
        if recall {
            self.coh.inclusion_invalidations += 1;
        } else {
            self.coh.coherence_invalidations += 1;
        }
        let ev = InvalidateEvent {
            line,
            owner: c as u32,
            frame,
            at,
        };
        self.trace(|t, rx| t.on_invalidate(&ev, rx));
        true
    }

    /// Invalidates every other core's copy of `line`, listing the kills
    /// in the checker report.
    fn invalidate_others(&mut self, except: usize, addr: Addr, at: Cycle) {
        let line = self.cfg.machine.l1d.line_of(addr);
        for c in (0..self.cores.len()).filter(|&c| c != except) {
            if self.kill_in(c, line, addr, at, false) {
                if let Some(r) = self.report.as_mut() {
                    r.invalidated.push((c, line));
                }
            }
        }
    }

    /// The upgrade transaction: `core` claims ownership of a copy it
    /// already holds (a write hit on a shared line, or a store swapped in
    /// from the victim cache while others share it), and every other copy
    /// is invalidated.
    fn upgrade(&mut self, core: usize, addr: Addr, now: Cycle) {
        let grant = self.snoop_bus.grant_upgrade(now);
        self.coh.bus_upgrades += 1;
        let ev = SnoopEvent {
            line: self.cfg.machine.l1d.line_of(addr),
            requester: core as u32,
            kind: CoherenceKind::Upgrade,
            at: grant,
        };
        self.trace(|t, rx| t.on_snoop(&ev, rx));
        self.invalidate_others(core, addr, grant);
    }

    /// Closes the displaced resident of `core`'s L1 `frame` at `now`: a
    /// Demand-cause Evict event ends its generation (and offers it to the
    /// victim filter), dirty data drains to the L2 and the frame is
    /// cleared. Returns the filter's admission verdict.
    fn close_displaced(
        &mut self,
        core: usize,
        frame: usize,
        displaced: LineAddr,
        incoming_tag: Option<u64>,
        now: Cycle,
    ) -> bool {
        let geom = self.cfg.machine.l1d;
        let p = &mut self.cores[core];
        let dirty = p.l1.frame_dirty(frame);
        p.l1.invalidate(frame);
        p.mesi[frame] = Mesi::Invalid;
        let ev = EvictEvent::new(
            &geom,
            frame,
            displaced,
            EvictCause::Demand,
            incoming_tag,
            now,
        );
        let rx = p.obs.evict(&ev);
        if dirty {
            // The victim buffer holds clean data only; the L2 holds the
            // line by inclusion.
            p.stats.l1_writebacks += 1;
            self.flush_to_l2(geom.addr_of_line(displaced));
        }
        if let Some(rec) = &rx.generation {
            self.record_death(rec);
        }
        rx.vc_admitted == Some(true)
    }

    /// The install step of a miss: tags `mref`'s line into `core`'s L1
    /// `frame` in its new MESI state (Modified for a store, else Shared
    /// or Exclusive by whether another copy exists) and emits the Fill
    /// event.
    fn install(
        &mut self,
        core: usize,
        mref: &MemRef,
        frame: usize,
        is_store: bool,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) {
        let geom = self.cfg.machine.l1d;
        let line = geom.line_of(mref.addr);
        let state = if is_store {
            Mesi::Modified
        } else if self.other_copy_exists(core, mref.addr, line) {
            Mesi::Shared
        } else {
            Mesi::Exclusive
        };
        let p = &mut self.cores[core];
        p.l1.fill_frame(frame, mref.addr);
        if is_store {
            p.l1.mark_dirty(frame);
        }
        p.mesi[frame] = state;
        let ev = FillEvent::new(&geom, frame, line, Some(mref.pc), evicted, now);
        let rx = p.obs.fill(&ev);
        p.stats.score_addr(rx.addr_scored);
    }

    /// Recalls both L1-sized halves of an evicted L2 line from every
    /// core (strict inclusion over L1 ∪ victim cache).
    fn back_invalidate(&mut self, l2_line: LineAddr, at: Cycle) {
        let (l1_geom, l2_geom) = (self.cfg.machine.l1d, self.cfg.machine.l2);
        let base = l2_geom.addr_of_line(l2_line);
        for off in (0..l2_geom.block_bytes() as u64).step_by(l1_geom.block_bytes() as usize) {
            let half_addr = base.offset(off);
            for c in 0..self.cores.len() {
                self.kill_in(c, l1_geom.line_of(half_addr), half_addr, at, true);
            }
        }
    }

    /// One demand access by `core` at `now`. Returns the cycle at which
    /// the data is available to the core.
    pub fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle {
        self.cores[core].sync_ticks(now, &self.ticker);
        self.cores[core].stats.l1_accesses += 1;
        if self.checker.is_some() {
            self.report = Some(AccessReport {
                core,
                line: self.cfg.machine.l1d.line_of(mref.addr),
                is_store,
                l1_victim: None,
                l2_victim: None,
                invalidated: Vec::new(),
            });
        }
        let (ready, level) = match self.cores[core].l1.probe(mref.addr) {
            ProbeResult::Hit(frame) => {
                (self.hit(core, mref, frame, is_store, now), ServiceLevel::L1)
            }
            ProbeResult::Miss {
                victim_frame,
                evicted,
            } => self.miss(core, mref, victim_frame, evicted, is_store, now),
        };
        if let (Some(checker), Some(r)) = (self.checker.as_mut(), self.report.take()) {
            checker.verify(&r, level);
        }
        ready
    }

    /// An L1 hit: the Hit event, hit-under-miss timing and, for a store,
    /// the move to Modified (an upgrade if the copy is shared).
    fn hit(
        &mut self,
        core: usize,
        mref: &MemRef,
        frame: usize,
        is_store: bool,
        now: Cycle,
    ) -> Cycle {
        let line = self.cfg.machine.l1d.line_of(mref.addr);
        let plane = &mut self.cores[core];
        plane.stats.l1_hits += 1;
        plane.shadow.on_access(line);
        plane.obs.hit(&HitEvent {
            line,
            frame,
            pc: mref.pc,
            now,
        });
        // Hit-under-miss: the tag allocated at miss time, but the data
        // may still be in flight.
        let data_ready = plane
            .pending
            .get(&line.get())
            .copied()
            .filter(|&r| r > now.get());
        if data_ready.is_none() {
            plane.pending.remove(&line.get());
        }
        if is_store {
            if matches!(plane.mesi[frame], Mesi::Shared | Mesi::Invalid) {
                self.upgrade(core, mref.addr, now);
            }
            self.cores[core].mesi[frame] = Mesi::Modified;
            self.cores[core].l1.mark_dirty(frame);
        }
        let base = now + self.cfg.machine.l1_hit_latency;
        data_ready.map_or(base, |r| Cycle::new(r).max(base))
    }

    /// An L1 miss: classification and the Miss event, then the
    /// victim-cache swap or a bus transaction, then the install. Returns
    /// the data-ready cycle and the level that serviced the miss.
    fn miss(
        &mut self,
        core: usize,
        mref: &MemRef,
        victim_frame: usize,
        evicted: Option<LineAddr>,
        is_store: bool,
        now: Cycle,
    ) -> (Cycle, ServiceLevel) {
        let m = self.cfg.machine;
        let (addr, line) = (mref.addr, m.l1d.line_of(mref.addr));
        let plane = &mut self.cores[core];
        let kind = plane.shadow.classify_miss(line);
        plane.obs.miss(&MissEvent {
            line,
            addr,
            kind,
            now,
        });
        if plane.inval_lost.remove(&line.get()) {
            self.coh.inval_refetches += 1;
        }

        if plane.vc().is_some_and(|v| v.cache.take(line)) {
            // Swap: the buffered block returns to the L1 and the displaced
            // resident enters the buffer whatever the filter's verdict.
            plane.stats.vc_hits += 1;
            if let Some(displaced) = evicted {
                self.close_displaced(core, victim_frame, displaced, None, now);
                let v = self.cores[core].vc().expect("vc hit");
                v.cache.insert(displaced);
                v.swap_fills += 1;
                if let Some(r) = self.report.as_mut() {
                    r.l1_victim = Some((displaced, true));
                }
            }
            if is_store && self.other_copy_exists(core, addr, line) {
                self.upgrade(core, addr, now);
            }
            self.install(core, mref, victim_frame, is_store, evicted, now);
            return (now + m.l1_hit_latency + 1, ServiceLevel::VictimCache);
        }

        // Full miss. Close and clear the victim frame first, so inclusion
        // recalls during the transaction cannot race with it.
        if let Some(displaced) = evicted {
            let incoming = Some(m.l1d.tag_of_line(line));
            let admitted = self.close_displaced(core, victim_frame, displaced, incoming, now);
            if let Some(r) = self.report.as_mut() {
                r.l1_victim = Some((displaced, admitted));
            }
        }
        let (ready, level) = self.bus_transaction(core, addr, is_store, now);
        // Install the tag now (as the single-core model does); the
        // data-ready time covers the in-flight window.
        self.install(core, mref, victim_frame, is_store, evicted, now);
        if ready > now {
            self.cores[core].pending.insert(line.get(), ready.get());
        }
        (ready, level)
    }

    /// The bus transaction of a full miss (BusRd, or BusRdX for a store):
    /// data from the modified owner (cache to cache), the shared L2 or
    /// memory, then the remote copies' state change. Returns the
    /// data-ready cycle and the level that supplied the data.
    fn bus_transaction(
        &mut self,
        core: usize,
        addr: Addr,
        is_store: bool,
        now: Cycle,
    ) -> (Cycle, ServiceLevel) {
        let m = self.cfg.machine;
        let line = m.l1d.line_of(addr);
        self.cores[core].stats.l2_accesses += 1;
        let (grant, kind) = if is_store {
            self.coh.bus_read_exclusives += 1;
            let grant = self.snoop_bus.grant_read_exclusive(now);
            (grant, CoherenceKind::BusRdX)
        } else {
            self.coh.bus_reads += 1;
            (self.snoop_bus.grant_read(now), CoherenceKind::BusRd)
        };
        let ev = SnoopEvent {
            line,
            requester: core as u32,
            kind,
            at: grant,
        };
        self.trace(|t, rx| t.on_snoop(&ev, rx));

        let m_owner = self.m_owner(core, addr);
        let others = self.other_copy_exists(core, addr, line);
        let l2_probe = self.l2.probe(addr);

        let supplied = if let Some((owner, owner_frame)) = m_owner {
            // Cache-to-cache supply from the modified copy; the flush also
            // refreshes the L2's data.
            self.snoop_bus.note_c2c();
            self.coh.c2c_transfers += 1;
            let ev = C2cEvent {
                line,
                from: owner as u32,
                to: core as u32,
                at: grant,
            };
            self.trace(|t, rx| t.on_c2c(&ev, rx));
            if let ProbeResult::Hit(f2) = l2_probe {
                self.l2.mark_dirty(f2);
            }
            if !is_store {
                // BusRd: the owner keeps a now-clean copy. The flush
                // cleaned it (a Shared line must not write back again on
                // eviction), but a snoop is not a use by the owner, so its
                // LRU position stays put.
                let o = &mut self.cores[owner];
                o.stats.l1_writebacks += 1;
                o.mesi[owner_frame] = Mesi::Shared;
                o.l1.clean_frame(owner_frame);
            }
            let ready = grant + m.l1_hit_latency + 2 * m.l1l2_bus_occupancy;
            (ready, ServiceLevel::CacheToCache)
        } else if let ProbeResult::Hit(_) = l2_probe {
            self.cores[core].stats.l2_hits += 1;
            (
                grant + m.l2_latency + m.l1l2_bus_occupancy,
                ServiceLevel::L2,
            )
        } else {
            // True L2 miss (no cached copy anywhere, by inclusion): fetch
            // from memory and fill the L2.
            debug_assert!(!others, "inclusion: sharers imply an L2 copy");
            self.cores[core].stats.mem_accesses += 1;
            let reply = self.backend.issue(addr, grant + m.l2_latency);
            let xfer = self.l2mem_bus.schedule(reply.done);
            let l2_at = xfer + m.l2mem_bus_occupancy;
            let (l2_victim_frame, l2_evicted) = self.l2.peek_victim(addr);
            if let Some(l2_line) = l2_evicted {
                if self.l2.frame_dirty(l2_victim_frame) {
                    self.cores[core].stats.l2_writebacks += 1;
                    self.backend.write(m.l2.addr_of_line(l2_line), grant);
                    self.l2mem_bus.schedule(grant);
                }
                self.back_invalidate(l2_line, grant);
            }
            self.l2.fill(addr);
            if let Some(r) = self.report.as_mut() {
                r.l2_victim = l2_evicted;
            }
            (l2_at + m.l1l2_bus_occupancy, ServiceLevel::Memory)
        };

        // Remote-state change for the remaining copies.
        if is_store {
            if others {
                self.invalidate_others(core, addr, grant);
            }
        } else {
            // BusRd: surviving Exclusive copies degrade to Shared (the
            // Modified owner was handled above).
            for (c, p) in self.cores.iter_mut().enumerate() {
                match p.l1.peek(addr) {
                    Some(f) if c != core && p.mesi[f] == Mesi::Exclusive => {
                        p.mesi[f] = Mesi::Shared
                    }
                    _ => {}
                }
            }
        }
        supplied
    }

    /// Closes every open generation and finalizes observers. Idempotent.
    pub fn finish(&mut self, now: Cycle) {
        if std::mem::replace(&mut self.finished, true) {
            return;
        }
        for p in &mut self.cores {
            p.obs.flush(now);
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.finish();
        }
    }

    /// Runs `instructions` instructions on every core, one stream per
    /// core, and returns the aggregated core statistics (`cycles` is the
    /// last core's completion time; the rest are sums).
    ///
    /// The cores run on the one core loop of [`crate::core`], which
    /// services them in index order within each cycle and so fixes the
    /// global coherence-transaction order.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != cfg.cores`.
    pub fn run(&mut self, streams: &mut [Box<dyn Workload>], instructions: u64) -> CoreStats {
        assert_eq!(
            streams.len(),
            self.cores.len(),
            "one instruction stream per core"
        );
        let mut cores: Vec<OooCore> = streams.iter().map(|_| OooCore::new(&self.cfg)).collect();
        crate::core::drive(&mut cores, self, |c| streams[c].next_instr(), instructions);
        let mut agg: CoreStats = crate::system::sum(cores.iter().map(OooCore::stats));
        // The run lasts until its slowest core finishes.
        agg.cycles = cores.iter().map(|c| c.stats().cycles).max().unwrap_or(0);
        agg
    }

    /// Consumes the system into a [`RunResult`]: hierarchy counters,
    /// victim and correlation statistics summed over cores, metric
    /// distributions merged, plus the coherence plane.
    pub fn into_result(mut self, workload: &str, core: CoreStats) -> RunResult {
        self.finish(Cycle::new(core.cycles));
        let mut breakdown = MissBreakdown::default();
        let mut metrics = MetricsCollector::new();
        let mut victim: Option<VictimStats> = None;
        let mut victim_swap_fills: Option<u64> = None;
        let mut correlation: Option<CorrelationStats> = None;
        for p in &self.cores {
            breakdown.add_weighted(&p.shadow.breakdown(), 1);
            metrics.merge(&p.obs.metrics.collector);
            if let Some(v) = &p.obs.victim.unit {
                victim.add_weighted(&Some(v.cache.stats()), 1);
                victim_swap_fills.add_weighted(&Some(v.swap_fills), 1);
            }
            if let PrefetcherImpl::Tk(tk) = &p.obs.predictors.prefetcher {
                correlation.add_weighted(&Some(tk.table_stats()), 1);
            }
        }
        RunResult {
            workload: workload.to_owned(),
            core,
            hierarchy: self.stats(),
            breakdown,
            metrics,
            victim,
            victim_swap_fills,
            timeliness: timekeeping::TimelinessStats::new(),
            correlation,
            dbcp: None,
            pf_queue_discards: 0,
            dram: self.backend.snapshot(),
            sampled: None,
            coherence: Some(self.coh),
        }
    }
}

/// The coherent hierarchy as the core loop's N-core port.
impl CorePort for MultiCoreSystem {
    fn config(&self) -> &SystemConfig {
        &self.cfg
    }
    /// No background events: nothing to replay.
    fn advance(&mut self, _now: Cycle) {}
    fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle {
        MultiCoreSystem::access(self, core, mref, is_store, now)
    }
    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }
    fn finish(&mut self, now: Cycle) {
        MultiCoreSystem::finish(self, now)
    }
}

/// Runs `instructions` instructions per core of `workload`'s per-core
/// streams under a multi-core configuration. [`crate::run_workload`]
/// routes here when `cfg.cores > 1`; `checked` installs the
/// [`CoherentChecker`] functional mirror.
///
/// Statistical sampling is ignored at `cores > 1` (the result carries no
/// `sampled` tag, the same fallback signal single-core unsupported
/// configurations use).
///
/// # Panics
///
/// Panics if the workload cannot be split into per-core streams (see
/// [`Workload::per_core_streams`]), or on checker divergence.
pub fn run_multicore<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: SystemConfig,
    instructions: u64,
    checked: bool,
) -> RunResult {
    let mut streams = workload.per_core_streams(cfg.cores).unwrap_or_else(|| {
        panic!(
            "workload '{}' cannot be split into {} per-core streams (no fork)",
            workload.name(),
            cfg.cores
        )
    });
    assert_eq!(
        streams.len(),
        cfg.cores as usize,
        "per_core_streams must yield exactly cfg.cores streams"
    );
    let mut sys = MultiCoreSystem::new(cfg);
    if checked {
        sys.install_checker();
    }
    let core = sys.run(&mut streams, instructions);
    sys.into_result(workload.name(), core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchMode;
    use crate::trace::Instr;
    use timekeeping::{CacheGeometry, Pc};

    /// Per-core strided load stream over a private region.
    #[derive(Clone)]
    struct Private {
        next: u64,
        base: u64,
    }
    impl Workload for Private {
        fn next_instr(&mut self) -> Instr {
            self.next += 1;
            Instr::Load(MemRef::new(
                Addr::new(self.base + (self.next % 512) * 32),
                Pc::new(4),
            ))
        }
        fn name(&self) -> &str {
            "private"
        }
        fn fork(&self) -> Option<Box<dyn Workload>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Loads and stores ping-ponging over a small shared region: heavy
    /// coherence traffic when run on every core.
    #[derive(Clone)]
    struct SharedMix {
        next: u64,
        salt: u64,
    }
    impl Workload for SharedMix {
        fn next_instr(&mut self) -> Instr {
            self.next += 1;
            let addr = Addr::new(((self.next * 7 + self.salt) % 64) * 32);
            if (self.next + self.salt).is_multiple_of(3) {
                Instr::Store(MemRef::new(addr, Pc::new(8)))
            } else {
                Instr::Load(MemRef::new(addr, Pc::new(4)))
            }
        }
        fn name(&self) -> &str {
            "shared-mix"
        }
        fn fork(&self) -> Option<Box<dyn Workload>> {
            Some(Box::new(self.clone()))
        }
    }

    fn streams_of(n: u32, mk: impl Fn(u64) -> Box<dyn Workload>) -> Vec<Box<dyn Workload>> {
        (0..n as u64).map(mk).collect()
    }

    fn dual() -> SystemConfig {
        SystemConfig::builder().cores(2).build().unwrap()
    }

    #[test]
    fn private_streams_have_no_coherence_traffic() {
        let mut sys = MultiCoreSystem::new(dual());
        sys.install_checker();
        let mut s = streams_of(2, |i| {
            Box::new(Private {
                next: 0,
                base: i * 1024 * 1024,
            })
        });
        let agg = sys.run(&mut s, 5_000);
        assert_eq!(agg.instructions, 10_000);
        let coh = *sys.coherence();
        assert_eq!(coh.coherence_invalidations, 0);
        assert_eq!(coh.c2c_transfers, 0);
        assert_eq!(coh.bus_upgrades, 0);
        assert!(coh.bus_reads > 0);
    }

    #[test]
    fn store_sharing_invalidates_and_transfers() {
        let mut sys = MultiCoreSystem::new(dual());
        sys.install_checker();
        let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
        let agg = sys.run(&mut s, 20_000);
        assert_eq!(agg.instructions, 40_000);
        let coh = *sys.coherence();
        assert!(coh.bus_read_exclusives > 0, "{coh:?}");
        assert!(coh.coherence_invalidations > 0, "{coh:?}");
        assert!(coh.c2c_transfers > 0, "{coh:?}");
        assert!(coh.inval_deaths > 0, "{coh:?}");
        assert!(coh.inval_refetches > 0, "{coh:?}");
        assert!(coh.invalidation_death_fraction().unwrap() > 0.0);
    }

    #[test]
    fn upgrades_fire_on_shared_write_hits() {
        // Both cores load the line (S everywhere), then one stores it.
        let mut sys = MultiCoreSystem::new(dual());
        sys.install_checker();
        let a = MemRef::new(Addr::new(0x40), Pc::new(4));
        sys.access(0, &a, false, Cycle::new(0));
        sys.access(1, &a, false, Cycle::new(200));
        let coh_before = *sys.coherence();
        assert_eq!(coh_before.bus_upgrades, 0);
        sys.access(0, &a, true, Cycle::new(400));
        let coh = *sys.coherence();
        assert_eq!(coh.bus_upgrades, 1);
        assert_eq!(coh.coherence_invalidations, 1);
        assert_eq!(coh.inval_deaths, 1);
    }

    #[test]
    fn modified_remote_copy_supplies_cache_to_cache() {
        let mut sys = MultiCoreSystem::new(dual());
        sys.install_checker();
        let a = MemRef::new(Addr::new(0x80), Pc::new(4));
        // Core 0 writes (M), core 1 then reads: c2c, and both end Shared.
        sys.access(0, &a, true, Cycle::new(0));
        let ready = sys.access(1, &a, false, Cycle::new(500));
        let coh = *sys.coherence();
        assert_eq!(coh.c2c_transfers, 1);
        // c2c latency beats an L2 round-trip.
        let m = SystemConfig::base().machine;
        assert_eq!(
            ready,
            Cycle::new(500) + m.l1_hit_latency + 2 * m.l1l2_bus_occupancy
        );
        // A later write by core 1 needs an upgrade (both copies Shared).
        sys.access(1, &a, true, Cycle::new(1_000));
        assert_eq!(sys.coherence().bus_upgrades, 1);
    }

    #[test]
    fn c2c_owner_lru_matches_checker_with_assoc_l1() {
        // A 2-way L1 regression: a cache-to-cache transfer must touch
        // the *owner's* LRU stack too, or the owner later evicts the
        // wrong way and diverges from the coherent checker's mirror.
        let mut machine = crate::config::MachineConfig::paper_default();
        machine.l1d = CacheGeometry::new(32 * 1024, 2, 32).unwrap();
        let cfg = SystemConfig::builder()
            .machine(machine)
            .cores(2)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.install_checker();

        let a = MemRef::new(Addr::new(0), Pc::new(4)); // set 0
        let x = MemRef::new(Addr::new(16 * 1024), Pc::new(4)); // same set, other way
        let y = MemRef::new(Addr::new(32 * 1024), Pc::new(4)); // same set, third line

        // Core 1: store A (M, MRU), then load X (X MRU, A LRU).
        sys.access(1, &a, true, Cycle::new(0));
        sys.access(1, &x, false, Cycle::new(200));
        // Core 0: load A -> c2c from core 1.
        sys.access(0, &a, false, Cycle::new(400));
        assert_eq!(sys.coherence().c2c_transfers, 1);
        // Core 1: load Y -> set full, must evict its LRU way; the
        // checker panics here if the model and mirror disagree on which
        // way that is.
        sys.access(1, &y, false, Cycle::new(600));
        assert_eq!(sys.coherence().c2c_transfers, 1);
    }

    #[test]
    fn hop_matches_per_cycle_stepping() {
        let run = |step: bool| {
            let cfg = {
                let b = SystemConfig::builder().cores(2);
                let b = if step { b.step_every_cycle() } else { b };
                b.build().unwrap()
            };
            let mut sys = MultiCoreSystem::new(cfg);
            let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
            let agg = sys.run(&mut s, 8_000);
            (agg, sys.stats(), *sys.coherence())
        };
        assert_eq!(run(false), run(true));
    }

    /// Three shared lines that conflict in the direct-mapped L1, plus an
    /// occasional store: misses swap through the victim cache, and remote
    /// stores invalidate buffered copies.
    #[derive(Clone)]
    struct ConflictShare {
        next: u64,
        salt: u64,
    }
    impl Workload for ConflictShare {
        fn next_instr(&mut self) -> Instr {
            self.next += 1;
            let addr = Addr::new(((self.next + self.salt) % 3) * 32 * 1024);
            if self.next.is_multiple_of(7) {
                Instr::Store(MemRef::new(addr, Pc::new(8)))
            } else {
                Instr::Load(MemRef::new(addr, Pc::new(4)))
            }
        }
        fn name(&self) -> &str {
            "conflict-share"
        }
        fn fork(&self) -> Option<Box<dyn Workload>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn victim_cache_participates_in_coherence() {
        let cfg = SystemConfig::builder()
            .cores(2)
            .victim(VictimMode::Unfiltered)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.install_checker();
        let mut s = streams_of(2, |i| Box::new(ConflictShare { next: 0, salt: i }));
        sys.run(&mut s, 20_000);
        let stats = sys.stats();
        let coh = *sys.coherence();
        assert!(stats.vc_hits > 0, "{stats:?}");
        assert!(coh.vc_invalidations > 0, "{coh:?}");
    }

    #[test]
    fn one_admission_rule_for_every_core_count() {
        // The single-core rule at 2 cores: every generation a replacement
        // ends (swap closes included) is offered to the victim filter
        // exactly once, an invalidation-ended one never is, and no copy
        // a core lost to an invalidation stays in its victim cache.
        let cfg = SystemConfig::builder()
            .cores(2)
            .victim(VictimMode::Unfiltered)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.install_checker();
        let mut s = streams_of(2, |i| Box::new(ConflictShare { next: 0, salt: i }));
        sys.run(&mut s, 20_000);
        let coh = *sys.coherence();
        assert!(sys.stats().vc_hits > 0, "{:?}", sys.stats());
        assert!(coh.vc_invalidations > 0 && coh.inval_deaths > 0, "{coh:?}");
        fn vc(p: &CorePlane) -> &timekeeping::VictimCache {
            &p.obs.victim.unit.as_ref().expect("victim cache").cache
        }
        let offered: u64 = sys.cores.iter().map(|p| vc(p).stats().offered).sum();
        assert_eq!(offered, coh.evict_deaths, "{coh:?}");
        for p in &sys.cores {
            for &line in &p.inval_lost {
                let line = LineAddr::new(line);
                assert!(!vc(p).contains(line), "invalidated {line:?} is buffered");
            }
        }
    }

    #[test]
    fn inclusion_recalls_l1_copies_on_l2_eviction() {
        // Shrink the L2 to 8 KB so the 32 KB L1 working set forces L2
        // evictions whose halves are still L1-resident.
        let mut machine = crate::config::MachineConfig::paper_default();
        machine.l2 = CacheGeometry::new(8 * 1024, 4, 64).unwrap();
        let cfg = SystemConfig::builder()
            .machine(machine)
            .cores(2)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.install_checker();
        let mut s = streams_of(2, |i| {
            Box::new(Private {
                next: 0,
                base: i * 1024 * 1024,
            })
        });
        sys.run(&mut s, 20_000);
        assert!(sys.coherence().inclusion_invalidations > 0);
    }

    #[test]
    fn run_multicore_assembles_a_result() {
        let mut w = SharedMix { next: 0, salt: 0 };
        let r = run_multicore(&mut w, dual(), 5_000, true);
        assert_eq!(r.core.instructions, 10_000);
        assert_eq!(r.workload, "shared-mix");
        let coh = r.coherence.expect("multi-core result carries coherence");
        assert!(coh.transactions() > 0);
        assert!(r.hierarchy.l1_accesses > 0);
        assert!(r.breakdown.total() > 0);
        // Round-trips through JSON with the coherence block intact.
        let json = r.to_json();
        let back = RunResult::from_json(&json).unwrap();
        assert_eq!(back.coherence, r.coherence);
    }

    #[test]
    fn predict_only_tk_scores_addresses() {
        let cfg = SystemConfig::builder()
            .cores(2)
            .prefetch(PrefetchMode::Timekeeping(
                timekeeping::CorrelationConfig::PAPER_8KB,
            ))
            .predict_only()
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
        sys.run(&mut s, 30_000);
        let stats = sys.stats();
        assert!(stats.addr_predictions > 0, "{stats:?}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut w = SharedMix { next: 0, salt: 1 };
            run_multicore(&mut w, dual(), 6_000, false)
        };
        assert_eq!(run(), run());
    }
}
