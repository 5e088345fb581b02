//! Multi-core MESI-coherent hierarchy: N timing cores with private L1s
//! and victim caches over a shared inclusive L2.
//!
//! This module generalizes the single-core machine of
//! [`crate::hierarchy`] to `--cores=N` (see [`SystemConfig::cores`]).
//! Each core keeps the full single-core timekeeping plane — per-frame
//! generation tracking, ground-truth miss classification, metric
//! distributions, optional victim cache and predict-only timekeeping
//! prefetcher scoring — while a snooping MESI protocol arbitrated by a
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
//! [`EvictCause::Invalidate`] (coherence or inclusion kill) versus
//! [`EvictCause::Demand`] (replacement). [`CoherenceStats`] splits
//! live/dead time along that axis, which is what the `mesi_compare`
//! report plots.
//!
//! Determinism and clock hopping: cores are serviced in (cycle,
//! core-index) order by the driver loop in [`MultiCoreSystem::run`], so
//! the global bus-transaction order is a pure function of the workload.
//! The hierarchy schedules no background events (multi-core runs reject
//! issuing prefetchers and decay at `build()`, and predict-only ticks
//! are synchronized lazily at access time), so the event-driven clock
//! hop is provably equivalent to per-cycle stepping — the
//! `step_equivalence` suite checks bit-identity over multiprogrammed
//! mixes.
//!
//! Predict-only scoring note: at `cores > 1` only the timekeeping
//! prefetcher's predictor is scored; other predictor families
//! (`Dbcp`/`Markov`/`Stride`) pass validation with `predict_only` but
//! record no address predictions here.

use timekeeping::snapshot::{Json, Snapshot, SnapshotError};
use timekeeping::{
    AdaptiveDeadTimeFilter, Addr, CacheGeometry, CollinsFilter, Cycle, DeadTimeFilter, EvictCause,
    EvictionInfo, FullyAssocShadow, GenerationRecord, GenerationTracker, GlobalTicker, LineAddr,
    LineMap, LineSet, MetricsCollector, MissBreakdown, MissKind, NoFilter, PrefetchRequest,
    ReloadIntervalFilter, TimekeepingPrefetcher, VictimCache, VictimStats,
};

use crate::bus::{Bus, SnoopBus};
use crate::cache::{ProbeResult, SetAssocCache};
use crate::config::{PrefetchMode, SystemConfig, VictimMode};
use crate::core::CoreStats;
use crate::dram::MemBackend;
use crate::hierarchy::HierarchyStats;
use crate::obs::{self, TraceObserver};
use crate::pipeline::{
    C2cEvent, CoherenceKind, InvalidateEvent, MemObserver, Reactions, SnoopEvent, VictimUnit,
};
use crate::system::RunResult;
use crate::trace::{Instr, Workload};

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

/// Predict-only timekeeping-prefetcher scoring state of one core.
#[derive(Debug)]
struct TkPlane {
    pred: TimekeepingPrefetcher,
    /// Outstanding address prediction per frame, scored at the next fill
    /// (mirrors the single-core `PredictorObserver`).
    addr_pred: Vec<Option<u64>>,
    /// Cycle up to which global ticks have been applied.
    last_sync: Cycle,
    /// Reusable buffer for tick-fired requests (discarded: predict-only).
    scratch: Vec<PrefetchRequest>,
}

/// One core's private slice of the hierarchy: L1 tags, MESI states,
/// generation tracking, classification shadow, metrics, optional victim
/// cache, optional predict-only prefetcher scoring.
#[derive(Debug)]
struct CorePlane {
    l1: SetAssocCache,
    /// MESI state per L1 frame (parallel to the tag array).
    mesi: Vec<Mesi>,
    gens: GenerationTracker,
    shadow: FullyAssocShadow,
    metrics: MetricsCollector,
    victim: Option<VictimUnit>,
    tk: Option<TkPlane>,
    /// In-flight demand fills: line → data-ready cycle. Tags allocate at
    /// miss time (as in the single-core model), so a subsequent access
    /// to an in-flight line hits in the tag array; this map supplies the
    /// true data-ready time for that hit-under-miss case.
    pending: LineMap<u64>,
    /// Lines this core lost to an invalidation and has not refetched yet.
    inval_lost: LineSet,
    stats: HierarchyStats,
}

/// What [`CorePlane::kill_copy`] found and did.
struct KillOutcome {
    /// The L1 frame that held the copy (`None` = victim-cache copy).
    frame: Option<usize>,
    /// Whether the killed L1 copy was modified (needs a flush).
    was_modified: bool,
    /// The generation the invalidation closed, if one was open.
    rec: Option<GenerationRecord>,
}

impl CorePlane {
    fn new(cfg: &SystemConfig, ticker: GlobalTicker) -> Self {
        let m = &cfg.machine;
        let num_frames = m.l1d.num_frames() as usize;
        let num_sets = m.l1d.num_sets() as usize;
        let victim = match cfg.victim {
            VictimMode::None => None,
            VictimMode::Unfiltered => Some(VictimUnit {
                cache: VictimCache::new(m.victim_entries),
                filter: Box::new(NoFilter),
                swap_fills: 0,
            }),
            VictimMode::Collins => Some(VictimUnit {
                cache: VictimCache::new(m.victim_entries),
                filter: Box::new(CollinsFilter::new(num_sets)),
                swap_fills: 0,
            }),
            VictimMode::DeadTime { threshold } => Some(VictimUnit {
                cache: VictimCache::new(m.victim_entries),
                filter: Box::new(DeadTimeFilter::new(threshold, ticker)),
                swap_fills: 0,
            }),
            VictimMode::AdaptiveDeadTime => Some(VictimUnit {
                cache: VictimCache::new(m.victim_entries),
                filter: Box::new(AdaptiveDeadTimeFilter::new(ticker, m.victim_entries)),
                swap_fills: 0,
            }),
            VictimMode::ReloadInterval { threshold } => Some(VictimUnit {
                cache: VictimCache::new(m.victim_entries),
                filter: Box::new(ReloadIntervalFilter::new(threshold)),
                swap_fills: 0,
            }),
        };
        let tk = match cfg.prefetch {
            PrefetchMode::Timekeeping(tcfg) => Some(TkPlane {
                pred: TimekeepingPrefetcher::new(m.l1d, tcfg, ticker),
                addr_pred: vec![None; num_frames],
                last_sync: Cycle::ZERO,
                scratch: Vec::with_capacity(num_frames),
            }),
            _ => None,
        };
        CorePlane {
            l1: SetAssocCache::new(m.l1d),
            mesi: vec![Mesi::Invalid; num_frames],
            gens: GenerationTracker::new(num_frames),
            shadow: FullyAssocShadow::new(num_frames),
            metrics: MetricsCollector::new(),
            victim,
            tk,
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
        if let Some(tk) = &mut self.tk {
            let n = ticker.ticks_between(tk.last_sync, now);
            for _ in 0..n {
                tk.scratch.clear();
                tk.pred.tick_into(&mut tk.scratch);
            }
            tk.scratch.clear();
            tk.last_sync = now;
        }
    }

    /// Ends the generation in `frame` at `at`, feeding the metrics plane.
    fn close_generation(
        &mut self,
        frame: usize,
        at: Cycle,
        cause: EvictCause,
        collect: bool,
    ) -> Option<GenerationRecord> {
        let rec = self.gens.evict(frame, at, cause)?;
        if collect {
            self.metrics.on_generation(&rec);
        }
        Some(rec)
    }

    /// Starts a generation in `frame` and scores/updates the predict-only
    /// prefetcher exactly as the single-core `PredictorObserver` does.
    fn fill_bookkeeping(
        &mut self,
        frame: usize,
        line: LineAddr,
        now: Cycle,
        kind: MissKind,
        collect: bool,
        geom: &CacheGeometry,
    ) {
        let history = self.gens.line_meta(line).copied();
        let reload = self.gens.fill(frame, line, now);
        if collect {
            self.metrics.on_miss(kind, history.as_ref(), reload);
        }
        if let Some(tk) = &mut self.tk {
            let set = geom.index_of_line(line);
            let tag = geom.tag_of_line(line);
            if let Some(pred) = tk.addr_pred[frame].take() {
                self.stats.addr_predictions += 1;
                if pred == tag {
                    self.stats.addr_correct += 1;
                }
            }
            tk.pred.on_fill(frame, set, tag);
            tk.addr_pred[frame] = tk.pred.predicted_next(frame);
        }
    }

    /// Kills this core's copy of `line` (L1 frame or victim-cache entry),
    /// closing the open generation with [`EvictCause::Invalidate`].
    /// Returns `None` if the core holds no copy.
    fn kill_copy(
        &mut self,
        line: LineAddr,
        addr: Addr,
        at: Cycle,
        collect: bool,
    ) -> Option<KillOutcome> {
        if let Some(frame) = self.l1.peek(addr) {
            let was_modified = self.mesi[frame] == Mesi::Modified;
            self.l1.invalidate(frame);
            self.mesi[frame] = Mesi::Invalid;
            let rec = self.close_generation(frame, at, EvictCause::Invalidate, collect);
            self.inval_lost.insert(line.get());
            return Some(KillOutcome {
                frame: Some(frame),
                was_modified,
                rec,
            });
        }
        if let Some(v) = &mut self.victim {
            if v.cache.invalidate(line) {
                self.inval_lost.insert(line.get());
                return Some(KillOutcome {
                    frame: None,
                    was_modified: false,
                    rec: None,
                });
            }
        }
        None
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
    level: ServiceLevel,
    /// L1 line displaced by the fill, with the victim-filter admission
    /// decision (policy input the mirror cannot recompute).
    l1_victim: Option<(LineAddr, bool)>,
    /// L2 line evicted by a memory fill.
    l2_victim: Option<LineAddr>,
    /// Copies killed by this access's coherence transaction.
    invalidated: Vec<(usize, LineAddr)>,
}

/// A timing-free functional mirror of the coherent hierarchy.
///
/// Maintains its own per-core L1 LRU lists with MESI states, victim
/// buffers, and shared-L2 LRU lists — structures deliberately distinct
/// from the simulator's stamp-based tag arrays — and replays every
/// access in the simulator's global order, asserting that service level,
/// replacement victims at both cache levels, and coherence-invalidation
/// sets all agree. Any divergence panics with a diagnostic report. The
/// only simulator fact it consumes without rederiving is the
/// victim-filter admission bit (a policy decision, not cache state).
#[derive(Debug)]
pub struct CoherentChecker {
    l1_geom: CacheGeometry,
    l2_geom: CacheGeometry,
    vc_entries: usize,
    has_vc: bool,
    /// `[core][set]`, front = MRU: (L1 line, state).
    l1: Vec<Vec<Vec<(u64, Mesi)>>>,
    /// `[core]`, front = MRU.
    vc: Vec<Vec<u64>>,
    /// `[set]`, front = MRU: L2 lines.
    l2: Vec<Vec<u64>>,
    accesses: u64,
}

impl CoherentChecker {
    fn new(cfg: &SystemConfig) -> Self {
        let m = &cfg.machine;
        let cores = cfg.cores as usize;
        CoherentChecker {
            l1_geom: m.l1d,
            l2_geom: m.l2,
            vc_entries: m.victim_entries,
            has_vc: cfg.victim != VictimMode::None,
            l1: vec![vec![Vec::new(); m.l1d.num_sets() as usize]; cores],
            vc: vec![Vec::new(); cores],
            l2: vec![Vec::new(); m.l2.num_sets() as usize],
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

    /// Positions of `line` in a core's set list, if present.
    fn l1_pos(&self, core: usize, set: usize, line: u64) -> Option<usize> {
        self.l1[core][set].iter().position(|&(l, _)| l == line)
    }

    fn remove_copy_everywhere(&mut self, except: usize, set: usize, line: u64) -> Vec<usize> {
        let mut killed = Vec::new();
        for c in 0..self.l1.len() {
            if c == except {
                continue;
            }
            let mut hit = false;
            if let Some(p) = self.l1_pos(c, set, line) {
                self.l1[c][set].remove(p);
                hit = true;
            }
            if let Some(p) = self.vc[c].iter().position(|&l| l == line) {
                self.vc[c].remove(p);
                hit = true;
            }
            if hit {
                killed.push(c);
            }
        }
        killed
    }

    /// Inserts into a core's victim buffer with LRU drop at capacity.
    fn vc_insert(&mut self, core: usize, line: u64) {
        if let Some(p) = self.vc[core].iter().position(|&l| l == line) {
            self.vc[core].remove(p);
        } else if self.vc[core].len() == self.vc_entries {
            self.vc[core].pop();
        }
        self.vc[core].insert(0, line);
    }

    /// Replays one access against the mirror and asserts agreement.
    fn verify(&mut self, r: &AccessReport) {
        let line = r.line.get();
        let set = self.l1_geom.index_of_line(r.line) as usize;
        let addr = self.l1_geom.addr_of_line(r.line);
        let l2_line = self.l2_geom.line_of(addr).get();
        let l2_set = self.l2_geom.index_of_line(self.l2_geom.line_of(addr)) as usize;

        // 1. Independently determine the service level.
        let level = if self.l1_pos(r.core, set, line).is_some() {
            ServiceLevel::L1
        } else if self.has_vc && self.vc[r.core].contains(&line) {
            ServiceLevel::VictimCache
        } else if (0..self.l1.len()).any(|c| {
            c != r.core
                && self
                    .l1_pos(c, set, line)
                    .is_some_and(|p| self.l1[c][set][p].1 == Mesi::Modified)
        }) {
            ServiceLevel::CacheToCache
        } else if self.l2[l2_set].contains(&l2_line) {
            ServiceLevel::L2
        } else {
            ServiceLevel::Memory
        };
        if level != r.level {
            self.fail(
                r,
                "service level mismatch",
                format!(
                    "oracle expected {level:?}, timing model reported {:?}",
                    r.level
                ),
            );
        }

        // 2. Independently determine the coherence-invalidation set.
        let mut expected: Vec<(usize, u64)> = if r.is_store {
            (0..self.l1.len())
                .filter(|&c| {
                    c != r.core
                        && (self.l1_pos(c, set, line).is_some() || self.vc[c].contains(&line))
                })
                .map(|c| (c, line))
                .collect()
        } else {
            Vec::new()
        };
        expected.sort_unstable();
        let mut got: Vec<(usize, u64)> = r.invalidated.iter().map(|&(c, l)| (c, l.get())).collect();
        got.sort_unstable();
        if expected != got {
            self.fail(
                r,
                "invalidation set mismatch",
                format!("oracle expected {expected:?}, timing model reported {got:?}"),
            );
        }

        // 3. Apply the transition.
        let new_state = |mirror: &Self| {
            if r.is_store {
                Mesi::Modified
            } else if (0..mirror.l1.len()).any(|c| {
                c != r.core
                    && (mirror.l1_pos(c, set, line).is_some() || mirror.vc[c].contains(&line))
            }) {
                Mesi::Shared
            } else {
                Mesi::Exclusive
            }
        };
        match level {
            ServiceLevel::L1 => {
                let p = self.l1_pos(r.core, set, line).expect("level checked");
                let (l, mut st) = self.l1[r.core][set].remove(p);
                if r.is_store {
                    self.remove_copy_everywhere(r.core, set, line);
                    st = Mesi::Modified;
                }
                self.l1[r.core][set].insert(0, (l, st));
            }
            ServiceLevel::VictimCache => {
                let p = self.vc[r.core].iter().position(|&l| l == line).unwrap();
                self.vc[r.core].remove(p);
                self.check_l1_victim(r, set, true);
                if r.is_store {
                    self.remove_copy_everywhere(r.core, set, line);
                }
                let st = new_state(self);
                self.l1[r.core][set].insert(0, (line, st));
            }
            ServiceLevel::CacheToCache | ServiceLevel::L2 | ServiceLevel::Memory => {
                self.check_l1_victim(r, set, false);
                if r.is_store {
                    self.remove_copy_everywhere(r.core, set, line);
                } else {
                    // BusRd: remaining M/E copies degrade to Shared.
                    for c in 0..self.l1.len() {
                        if c == r.core {
                            continue;
                        }
                        if let Some(p) = self.l1_pos(c, set, line) {
                            self.l1[c][set][p].1 = Mesi::Shared;
                        }
                    }
                }
                if level == ServiceLevel::Memory {
                    let evicted = (self.l2[l2_set].len() == self.l2_geom.assoc() as usize)
                        .then(|| *self.l2[l2_set].last().expect("full set is nonempty"));
                    if evicted != r.l2_victim.map(|l| l.get()) {
                        self.fail(
                            r,
                            "L2 replacement victim mismatch",
                            format!(
                                "oracle expected {evicted:?}, timing model reported {:?}",
                                r.l2_victim.map(|l| l.get())
                            ),
                        );
                    }
                    if let Some(e2) = evicted {
                        self.l2[l2_set].pop();
                        self.back_invalidate(e2);
                    }
                    self.l2[l2_set].insert(0, l2_line);
                } else {
                    // The transaction touched the shared L2 (LRU bump).
                    if let Some(p) = self.l2[l2_set].iter().position(|&l| l == l2_line) {
                        let l = self.l2[l2_set].remove(p);
                        self.l2[l2_set].insert(0, l);
                    } else {
                        self.fail(
                            r,
                            "inclusion violation",
                            format!("L2 line {l2_line:#x} absent while L1 copies exist"),
                        );
                    }
                }
                let st = new_state(self);
                self.l1[r.core][set].insert(0, (line, st));
            }
        }
        self.accesses += 1;
    }

    /// Checks the reported L1 replacement victim against the mirror's own
    /// LRU choice and applies the eviction (with VC insertion when
    /// admitted). `swap` marks the victim-cache swap path, where the
    /// displaced block always enters the buffer.
    fn check_l1_victim(&mut self, r: &AccessReport, set: usize, swap: bool) {
        let full = self.l1[r.core][set].len() == self.l1_geom.assoc() as usize;
        let expected = full.then(|| self.l1[r.core][set].last().expect("full set").0);
        let reported = r.l1_victim.map(|(l, _)| l.get());
        if expected != reported {
            self.fail(
                r,
                "L1 replacement victim mismatch",
                format!("oracle expected {expected:?}, timing model reported {reported:?}"),
            );
        }
        if let Some(victim) = expected {
            self.l1[r.core][set].pop();
            let admitted = swap || r.l1_victim.map(|(_, a)| a).unwrap_or(false);
            if self.has_vc && admitted {
                self.vc_insert(r.core, victim);
            }
        }
    }

    /// Recalls both L1-sized halves of an evicted L2 line from every
    /// mirror cache (inclusion).
    fn back_invalidate(&mut self, l2_line: u64) {
        let base = self.l2_geom.addr_of_line(LineAddr::new(l2_line));
        let step = self.l1_geom.block_bytes() as u64;
        let mut off = 0;
        while off < self.l2_geom.block_bytes() as u64 {
            let half = self.l1_geom.line_of(base.offset(off));
            let set = self.l1_geom.index_of_line(half) as usize;
            for c in 0..self.l1.len() {
                if let Some(p) = self.l1_pos(c, set, half.get()) {
                    self.l1[c][set].remove(p);
                }
                if let Some(p) = self.vc[c].iter().position(|&l| l == half.get()) {
                    self.vc[c].remove(p);
                }
            }
            off += step;
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
    collect: bool,
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
        let cores = (0..cfg.cores)
            .map(|_| CorePlane::new(&cfg, ticker))
            .collect();
        MultiCoreSystem {
            ticker,
            cfg,
            cores,
            l2: SetAssocCache::new(m.l2),
            // The snoop bus doubles as the L1↔L2 data path, so coherence
            // transactions occupy it for one block transfer each.
            snoop_bus: SnoopBus::new(m.l1l2_bus_occupancy),
            l2mem_bus: Bus::new(m.l2mem_bus_occupancy),
            backend: crate::dram::build_backend(cfg.memory, m.mem_latency),
            coh: CoherenceStats::default(),
            trace: obs::trace_from_global(m.l1d),
            checker: None,
            collect: cfg.collect_metrics,
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
        let mut sum = HierarchyStats::default();
        for c in &self.cores {
            add_hierarchy(&mut sum, &c.stats);
        }
        sum
    }

    fn emit_snoop(&mut self, ev: SnoopEvent) {
        if let Some(t) = self.trace.as_deref_mut() {
            let mut rx = Reactions::default();
            t.on_snoop(&ev, &mut rx);
        }
    }

    fn emit_invalidate(&mut self, ev: InvalidateEvent) {
        if let Some(t) = self.trace.as_deref_mut() {
            let mut rx = Reactions::default();
            t.on_invalidate(&ev, &mut rx);
        }
    }

    fn emit_c2c(&mut self, ev: C2cEvent) {
        if let Some(t) = self.trace.as_deref_mut() {
            let mut rx = Reactions::default();
            t.on_c2c(&ev, &mut rx);
        }
    }

    /// The core (and its L1 frame) holding a modified copy of `addr`,
    /// excluding `except`. At most one M copy can exist.
    fn m_owner(&self, except: usize, addr: Addr) -> Option<(usize, usize)> {
        for (i, p) in self.cores.iter().enumerate() {
            if i == except {
                continue;
            }
            if let Some(f) = p.l1.peek(addr) {
                if p.mesi[f] == Mesi::Modified {
                    return Some((i, f));
                }
            }
        }
        None
    }

    /// Whether any other core holds a copy of `line` (L1 or victim
    /// cache). Sharer discovery scans the actual structures — there is
    /// no directory to go stale.
    fn other_copy_exists(&self, except: usize, addr: Addr, line: LineAddr) -> bool {
        self.cores.iter().enumerate().any(|(i, p)| {
            i != except
                && (p.l1.peek(addr).is_some()
                    || p.victim.as_ref().is_some_and(|v| v.cache.contains(line)))
        })
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

    /// Invalidates every other core's copy of `line`, returning the kill
    /// list for the checker report. `inclusion` selects which counter the
    /// kills land in.
    fn invalidate_others(
        &mut self,
        except: usize,
        line: LineAddr,
        addr: Addr,
        at: Cycle,
        inclusion: bool,
    ) -> Vec<(usize, LineAddr)> {
        let collect = self.collect;
        let mut killed = Vec::new();
        for c in 0..self.cores.len() {
            if c == except {
                continue;
            }
            let Some(k) = self.cores[c].kill_copy(line, addr, at, collect) else {
                continue;
            };
            if inclusion {
                self.coh.inclusion_invalidations += 1;
            } else {
                self.coh.coherence_invalidations += 1;
            }
            if k.frame.is_none() {
                self.coh.vc_invalidations += 1;
            }
            if k.was_modified {
                // The dying modified copy's data drains to the L2.
                self.cores[c].stats.l1_writebacks += 1;
                self.flush_to_l2(addr);
            }
            if let Some(rec) = &k.rec {
                self.record_death(rec);
            }
            self.emit_invalidate(InvalidateEvent {
                line,
                owner: c as u32,
                frame: k.frame,
                at,
            });
            killed.push((c, line));
        }
        killed
    }

    /// Recalls both L1-sized halves of an evicted L2 line from every
    /// core (strict inclusion over L1 ∪ victim cache).
    fn back_invalidate(&mut self, l2_line: LineAddr, at: Cycle) {
        let l1_geom = self.cfg.machine.l1d;
        let l2_geom = self.cfg.machine.l2;
        let base = l2_geom.addr_of_line(l2_line);
        let step = l1_geom.block_bytes() as u64;
        let collect = self.collect;
        let mut off = 0;
        while off < l2_geom.block_bytes() as u64 {
            let half_addr = base.offset(off);
            let half = l1_geom.line_of(half_addr);
            for c in 0..self.cores.len() {
                let Some(k) = self.cores[c].kill_copy(half, half_addr, at, collect) else {
                    continue;
                };
                self.coh.inclusion_invalidations += 1;
                if k.frame.is_none() {
                    self.coh.vc_invalidations += 1;
                }
                if k.was_modified {
                    // The L2 copy is leaving too: the recalled dirty data
                    // goes straight to memory.
                    self.cores[c].stats.l1_writebacks += 1;
                    self.backend.write(half_addr, at);
                }
                if let Some(rec) = &k.rec {
                    self.record_death(rec);
                }
                self.emit_invalidate(InvalidateEvent {
                    line: half,
                    owner: c as u32,
                    frame: k.frame,
                    at,
                });
            }
            off += step;
        }
    }

    /// One demand access by `core` at `now`. Returns the cycle at which
    /// the data is available to the core.
    pub fn access(
        &mut self,
        core: usize,
        mref: &crate::trace::MemRef,
        is_store: bool,
        now: Cycle,
    ) -> Cycle {
        let m = self.cfg.machine;
        let geom = m.l1d;
        let addr = mref.addr;
        let line = geom.line_of(addr);
        let collect = self.collect;
        let checking = self.checker.is_some();

        self.cores[core].sync_ticks(now, &self.ticker);
        self.cores[core].stats.l1_accesses += 1;

        let mut report = checking.then(|| AccessReport {
            core,
            line,
            is_store,
            level: ServiceLevel::L1,
            l1_victim: None,
            l2_victim: None,
            invalidated: Vec::new(),
        });

        let probe = self.cores[core].l1.probe(addr);
        let ready = match probe {
            ProbeResult::Hit(frame) => {
                let plane = &mut self.cores[core];
                plane.stats.l1_hits += 1;
                let interval = plane.gens.hit(frame, now);
                if collect {
                    plane.metrics.on_access_interval(interval);
                }
                plane.shadow.on_access(line);
                if let Some(tk) = &mut plane.tk {
                    tk.pred.on_hit(frame);
                }
                // Hit-under-miss: the tag allocated at miss time, but the
                // data may still be in flight.
                let data_ready = plane
                    .pending
                    .get(&line.get())
                    .copied()
                    .filter(|&r| r > now.get());
                if data_ready.is_none() {
                    plane.pending.remove(&line.get());
                }
                if is_store {
                    match self.cores[core].mesi[frame] {
                        Mesi::Modified => {}
                        Mesi::Exclusive => self.cores[core].mesi[frame] = Mesi::Modified,
                        Mesi::Shared | Mesi::Invalid => {
                            // Write hit on a shared copy: upgrade.
                            let grant = self.snoop_bus.grant_upgrade(now);
                            self.coh.bus_upgrades += 1;
                            self.emit_snoop(SnoopEvent {
                                line,
                                requester: core as u32,
                                kind: CoherenceKind::Upgrade,
                                at: grant,
                            });
                            let killed = self.invalidate_others(core, line, addr, grant, false);
                            if let Some(r) = report.as_mut() {
                                r.invalidated = killed;
                            }
                            self.cores[core].mesi[frame] = Mesi::Modified;
                        }
                    }
                    self.cores[core].l1.mark_dirty(frame);
                }
                let base = now + m.l1_hit_latency;
                data_ready.map_or(base, |r| Cycle::new(r).max(base))
            }
            ProbeResult::Miss {
                victim_frame,
                evicted,
            } => {
                let plane = &mut self.cores[core];
                let kind = plane.shadow.classify_miss(line);
                if plane.inval_lost.remove(&line.get()) {
                    self.coh.inval_refetches += 1;
                }

                // Victim-cache swap path: the buffered block returns to
                // the L1 and the displaced resident enters the buffer
                // unconditionally.
                let vc_hit = self.cores[core]
                    .victim
                    .as_mut()
                    .is_some_and(|v| v.cache.take(line));
                if vc_hit {
                    self.cores[core].stats.vc_hits += 1;
                    if let Some(displaced) = evicted {
                        let disp_addr = geom.addr_of_line(displaced);
                        let dirty = self.cores[core].l1.frame_dirty(victim_frame);
                        let rec = self.cores[core].close_generation(
                            victim_frame,
                            now,
                            EvictCause::Demand,
                            collect,
                        );
                        if let Some(rec) = &rec {
                            self.record_death(rec);
                        }
                        if dirty {
                            // The buffer holds clean data only: drain the
                            // dirty copy to the L2 before it enters.
                            self.cores[core].stats.l1_writebacks += 1;
                            self.flush_to_l2(disp_addr);
                        }
                        let v = self.cores[core].victim.as_mut().expect("vc hit");
                        v.cache.insert(displaced);
                        v.swap_fills += 1;
                        if let Some(r) = report.as_mut() {
                            r.l1_victim = Some((displaced, true));
                        }
                    }
                    self.cores[core].l1.fill_frame(victim_frame, addr);
                    let others = self.other_copy_exists(core, addr, line);
                    let state = if is_store {
                        if others {
                            let grant = self.snoop_bus.grant_upgrade(now);
                            self.coh.bus_upgrades += 1;
                            self.emit_snoop(SnoopEvent {
                                line,
                                requester: core as u32,
                                kind: CoherenceKind::Upgrade,
                                at: grant,
                            });
                            let killed = self.invalidate_others(core, line, addr, grant, false);
                            if let Some(r) = report.as_mut() {
                                r.invalidated = killed;
                            }
                        }
                        Mesi::Modified
                    } else if others {
                        Mesi::Shared
                    } else {
                        Mesi::Exclusive
                    };
                    self.cores[core].mesi[victim_frame] = state;
                    if is_store {
                        self.cores[core].l1.mark_dirty(victim_frame);
                    }
                    self.cores[core].fill_bookkeeping(
                        victim_frame,
                        line,
                        now,
                        kind,
                        collect,
                        &geom,
                    );
                    if let Some(r) = report.as_mut() {
                        r.level = ServiceLevel::VictimCache;
                    }
                    now + m.l1_hit_latency + 1
                } else {
                    // Full miss: a bus transaction services it.
                    self.cores[core].stats.l2_accesses += 1;

                    // Close and clear the victim frame first, so inclusion
                    // recalls during the transaction cannot race with it.
                    let mut victim_info = None;
                    if let Some(victim_line) = evicted {
                        let victim_addr = geom.addr_of_line(victim_line);
                        let dirty = self.cores[core].l1.frame_dirty(victim_frame);
                        self.cores[core].l1.invalidate(victim_frame);
                        self.cores[core].mesi[victim_frame] = Mesi::Invalid;
                        let rec = self.cores[core].close_generation(
                            victim_frame,
                            now,
                            EvictCause::Demand,
                            collect,
                        );
                        if let Some(rec) = &rec {
                            self.record_death(rec);
                        }
                        if dirty {
                            self.cores[core].stats.l1_writebacks += 1;
                            self.flush_to_l2(victim_addr);
                        }
                        let mut admitted = false;
                        if let (Some(rec), Some(v)) = (rec, self.cores[core].victim.as_mut()) {
                            let info = EvictionInfo {
                                line: rec.line,
                                set_index: geom.index_of_line(rec.line),
                                tag: geom.tag_of_line(rec.line),
                                dead_time: rec.dead_time,
                                live_time: rec.live_time,
                                cause: rec.cause,
                                reload_interval: rec.reload_interval,
                                incoming_tag: geom.tag_of(addr),
                            };
                            admitted = v.cache.offer(v.filter.as_mut(), &info);
                        }
                        victim_info = Some((victim_line, admitted));
                    }
                    if let Some(r) = report.as_mut() {
                        r.l1_victim = victim_info;
                    }

                    let (grant, tx_kind) = if is_store {
                        self.coh.bus_read_exclusives += 1;
                        (
                            self.snoop_bus.grant_read_exclusive(now),
                            CoherenceKind::BusRdX,
                        )
                    } else {
                        self.coh.bus_reads += 1;
                        (self.snoop_bus.grant_read(now), CoherenceKind::BusRd)
                    };
                    self.emit_snoop(SnoopEvent {
                        line,
                        requester: core as u32,
                        kind: tx_kind,
                        at: grant,
                    });

                    let m_owner = self.m_owner(core, addr);
                    let others = self.other_copy_exists(core, addr, line);
                    let l2_probe = self.l2.probe(addr);

                    let data_ready = if let Some((owner, owner_frame)) = m_owner {
                        // Cache-to-cache supply from the modified copy;
                        // the flush also refreshes the L2's data.
                        self.snoop_bus.note_c2c();
                        self.coh.c2c_transfers += 1;
                        self.emit_c2c(C2cEvent {
                            line,
                            from: owner as u32,
                            to: core as u32,
                            at: grant,
                        });
                        if let ProbeResult::Hit(f2) = l2_probe {
                            self.l2.mark_dirty(f2);
                        }
                        if !is_store {
                            // BusRd: the owner keeps a now-clean copy.
                            // The flush cleaned it (a Shared line must
                            // not write back again on eviction), but a
                            // snoop is not a use by the owner, so its
                            // LRU position stays put.
                            self.cores[owner].stats.l1_writebacks += 1;
                            self.cores[owner].mesi[owner_frame] = Mesi::Shared;
                            self.cores[owner].l1.clean_frame(owner_frame);
                        }
                        if let Some(r) = report.as_mut() {
                            r.level = ServiceLevel::CacheToCache;
                        }
                        grant + m.l1_hit_latency + 2 * m.l1l2_bus_occupancy
                    } else if let ProbeResult::Hit(_) = l2_probe {
                        self.cores[core].stats.l2_hits += 1;
                        if let Some(r) = report.as_mut() {
                            r.level = ServiceLevel::L2;
                        }
                        grant + m.l2_latency + m.l1l2_bus_occupancy
                    } else {
                        // True L2 miss (no cached copy anywhere, by
                        // inclusion): fetch from memory and fill the L2.
                        debug_assert!(!others, "inclusion: sharers imply an L2 copy");
                        self.cores[core].stats.mem_accesses += 1;
                        let reply = self.backend.issue(addr, grant + m.l2_latency);
                        let xfer = self.l2mem_bus.schedule(reply.done);
                        let l2_at = xfer + m.l2mem_bus_occupancy;
                        let (l2_victim_frame, l2_evicted) = self.l2.peek_victim(addr);
                        if let Some(l2_line) = l2_evicted {
                            if self.l2.frame_dirty(l2_victim_frame) {
                                self.cores[core].stats.l2_writebacks += 1;
                                let wb_addr = m.l2.addr_of_line(l2_line);
                                self.backend.write(wb_addr, grant);
                                self.l2mem_bus.schedule(grant);
                            }
                            self.back_invalidate(l2_line, grant);
                        }
                        self.l2.fill(addr);
                        if let Some(r) = report.as_mut() {
                            r.level = ServiceLevel::Memory;
                            r.l2_victim = l2_evicted;
                        }
                        l2_at + m.l1l2_bus_occupancy
                    };

                    // Remote-state adjustment for the remaining copies.
                    if is_store {
                        if others {
                            let killed = self.invalidate_others(core, line, addr, grant, false);
                            if let Some(r) = report.as_mut() {
                                r.invalidated = killed;
                            }
                        }
                    } else {
                        // BusRd: surviving Exclusive copies degrade to
                        // Shared (the Modified owner was handled above).
                        for c in 0..self.cores.len() {
                            if c == core {
                                continue;
                            }
                            if let Some(f) = self.cores[c].l1.peek(addr) {
                                if self.cores[c].mesi[f] == Mesi::Exclusive {
                                    self.cores[c].mesi[f] = Mesi::Shared;
                                }
                            }
                        }
                    }

                    // Install the tag now (as the single-core model does);
                    // the data-ready time covers the in-flight window.
                    self.cores[core].l1.fill_frame(victim_frame, addr);
                    let state = if is_store {
                        self.cores[core].l1.mark_dirty(victim_frame);
                        Mesi::Modified
                    } else if self.other_copy_exists(core, addr, line) {
                        Mesi::Shared
                    } else {
                        Mesi::Exclusive
                    };
                    self.cores[core].mesi[victim_frame] = state;
                    self.cores[core].fill_bookkeeping(
                        victim_frame,
                        line,
                        now,
                        kind,
                        collect,
                        &geom,
                    );
                    if data_ready > now {
                        self.cores[core]
                            .pending
                            .insert(line.get(), data_ready.get());
                    }
                    data_ready
                }
            }
        };

        if let (Some(checker), Some(r)) = (self.checker.as_mut(), report.as_ref()) {
            checker.verify(r);
        }
        ready
    }

    /// Closes every open generation and finalizes observers. Idempotent.
    pub fn finish(&mut self, now: Cycle) {
        if self.finished {
            return;
        }
        self.finished = true;
        let collect = self.collect;
        for p in &mut self.cores {
            let recs = p.gens.flush(now);
            if collect {
                for rec in &recs {
                    p.metrics.on_generation(rec);
                }
            }
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.finish();
        }
    }

    /// Runs `instructions` instructions on every core, one stream per
    /// core, and returns the aggregated core statistics (`cycles` is the
    /// last core's completion time; the rest are sums).
    ///
    /// The driver replicates the single-core out-of-order window model
    /// per core and services cores in index order within each cycle,
    /// which fixes the global coherence-transaction order. When every
    /// live core is blocked, the clock hops to the earliest per-core
    /// wake-up (window head or chained-load address) — there are no
    /// memory-system background events — so hopping is bit-identical to
    /// `step_every_cycle`.
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
        let m = self.cfg.machine;
        let issue_width = m.issue_width as usize;
        let window_size = m.window_size as usize;
        let commit_width = m.commit_width as usize;
        let ignore_swpf = self.cfg.ignore_sw_prefetch;
        let step_every_cycle = self.cfg.step_every_cycle;

        struct Exec {
            window: std::collections::VecDeque<Cycle>,
            stalled: Option<Instr>,
            chain_ready: Cycle,
            fetched: u64,
            stats: CoreStats,
            done: bool,
        }
        let mut execs: Vec<Exec> = (0..self.cores.len())
            .map(|_| Exec {
                window: std::collections::VecDeque::with_capacity(window_size),
                stalled: None,
                chain_ready: Cycle::ZERO,
                fetched: 0,
                stats: CoreStats::default(),
                done: false,
            })
            .collect();

        let mut cycle = Cycle::ZERO;
        loop {
            let mut all_done = true;
            for c in 0..execs.len() {
                if execs[c].done {
                    continue;
                }
                // Retire in order.
                let mut retired = 0;
                while retired < commit_width {
                    match execs[c].window.front() {
                        Some(&ready) if ready <= cycle => {
                            execs[c].window.pop_front();
                            execs[c].stats.instructions += 1;
                            retired += 1;
                        }
                        _ => break,
                    }
                }
                if execs[c].stats.instructions >= instructions && execs[c].window.is_empty() {
                    execs[c].done = true;
                    execs[c].stats.cycles = cycle.get();
                    continue;
                }
                all_done = false;

                // Issue in order while the window has room.
                let mut issued = 0;
                let mut window_was_full = false;
                while issued < issue_width && execs[c].fetched < instructions {
                    if execs[c].window.len() >= window_size {
                        window_was_full = true;
                        break;
                    }
                    let instr = match execs[c].stalled.take() {
                        Some(i) => i,
                        None => streams[c].next_instr(),
                    };
                    if let Instr::ChainedLoad(_) = instr {
                        if execs[c].chain_ready > cycle {
                            execs[c].stalled = Some(instr);
                            break;
                        }
                    }
                    let ready = match instr {
                        Instr::Op => cycle + 1,
                        Instr::Load(mr) => {
                            execs[c].stats.loads += 1;
                            self.access(c, &mr, false, cycle)
                        }
                        Instr::ChainedLoad(mr) => {
                            execs[c].stats.loads += 1;
                            let ready = self.access(c, &mr, false, cycle);
                            execs[c].chain_ready = ready;
                            ready
                        }
                        Instr::Store(mr) => {
                            execs[c].stats.stores += 1;
                            self.access(c, &mr, true, cycle);
                            cycle + 1
                        }
                        Instr::SwPrefetch(mr) => {
                            if ignore_swpf {
                                cycle + 1
                            } else {
                                execs[c].stats.sw_prefetches += 1;
                                self.access(c, &mr, false, cycle);
                                cycle + 1
                            }
                        }
                    };
                    execs[c].window.push_back(ready);
                    execs[c].fetched += 1;
                    issued += 1;
                }
                if window_was_full {
                    execs[c].stats.window_full_cycles += 1;
                }
            }
            if all_done {
                break;
            }

            // Event-driven clock hopping: when every live core is blocked,
            // every cycle before the earliest wake-up is provably a no-op
            // (completion times are fixed at issue; nothing in the memory
            // system fires on its own).
            let mut next = cycle + 1;
            if !step_every_cycle {
                let mut all_blocked = true;
                let mut wake = Cycle::new(u64::MAX);
                for ex in execs.iter().filter(|e| !e.done) {
                    let blocked = ex.fetched >= instructions
                        || ex.window.len() >= window_size
                        || ex.stalled.is_some();
                    if !blocked {
                        all_blocked = false;
                        break;
                    }
                    if let Some(&front) = ex.window.front() {
                        if front < wake {
                            wake = front;
                        }
                    }
                    if ex.stalled.is_some() && ex.chain_ready < wake {
                        wake = ex.chain_ready;
                    }
                }
                if all_blocked && wake > next && wake < Cycle::new(u64::MAX) {
                    for ex in execs.iter_mut().filter(|e| !e.done) {
                        if ex.window.len() >= window_size && ex.fetched < instructions {
                            ex.stats.window_full_cycles += wake.get() - next.get();
                        }
                    }
                    next = wake;
                }
            }
            cycle = next;
            for ex in execs.iter_mut().filter(|e| !e.done) {
                ex.stats.cycles = cycle.get();
            }
        }
        self.finish(cycle);

        let mut agg = CoreStats::default();
        for ex in &execs {
            agg.instructions += ex.stats.instructions;
            agg.loads += ex.stats.loads;
            agg.stores += ex.stats.stores;
            agg.sw_prefetches += ex.stats.sw_prefetches;
            agg.window_full_cycles += ex.stats.window_full_cycles;
            agg.cycles = agg.cycles.max(ex.stats.cycles);
        }
        agg
    }

    /// Consumes the system into a [`RunResult`]: hierarchy counters,
    /// victim and correlation statistics summed over cores, metric
    /// distributions merged, plus the coherence plane.
    pub fn into_result(mut self, workload: &str, core: CoreStats) -> RunResult {
        self.finish(Cycle::new(core.cycles));
        let hierarchy = self.stats();
        let mut breakdown = MissBreakdown::default();
        for p in &self.cores {
            let b = p.shadow.breakdown();
            breakdown.cold += b.cold;
            breakdown.conflict += b.conflict;
            breakdown.capacity += b.capacity;
        }
        let mut metrics = MetricsCollector::new();
        for p in &self.cores {
            metrics.merge(&p.metrics);
        }
        let victim = (self.cfg.victim != VictimMode::None).then(|| {
            let mut sum = VictimStats::default();
            for p in &self.cores {
                if let Some(v) = &p.victim {
                    let s = v.cache.stats();
                    sum.offered += s.offered;
                    sum.admitted += s.admitted;
                    sum.probes += s.probes;
                    sum.hits += s.hits;
                }
            }
            sum
        });
        let victim_swap_fills = (self.cfg.victim != VictimMode::None).then(|| {
            self.cores
                .iter()
                .filter_map(|p| p.victim.as_ref())
                .map(|v| v.swap_fills)
                .sum()
        });
        let correlation = matches!(self.cfg.prefetch, PrefetchMode::Timekeeping(_)).then(|| {
            let mut sum = timekeeping::CorrelationStats::default();
            for p in &self.cores {
                if let Some(tk) = &p.tk {
                    let s = tk.pred.table_stats();
                    sum.lookups += s.lookups;
                    sum.hits += s.hits;
                    sum.updates += s.updates;
                    sum.allocations += s.allocations;
                }
            }
            sum
        });
        RunResult {
            workload: workload.to_owned(),
            core,
            hierarchy,
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

fn add_hierarchy(sum: &mut HierarchyStats, s: &HierarchyStats) {
    sum.l1_accesses += s.l1_accesses;
    sum.l1_hits += s.l1_hits;
    sum.vc_hits += s.vc_hits;
    sum.l2_accesses += s.l2_accesses;
    sum.l2_hits += s.l2_hits;
    sum.mem_accesses += s.mem_accesses;
    sum.pf_enqueued += s.pf_enqueued;
    sum.pf_issued += s.pf_issued;
    sum.pf_fills += s.pf_fills;
    sum.pf_redundant += s.pf_redundant;
    sum.pf_dropped_live += s.pf_dropped_live;
    sum.addr_predictions += s.addr_predictions;
    sum.addr_correct += s.addr_correct;
    sum.l1_writebacks += s.l1_writebacks;
    sum.l2_writebacks += s.l2_writebacks;
    sum.decay_misses += s.decay_misses;
    sum.decay_off_cycles += s.decay_off_cycles;
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
    use crate::config::SystemConfig;
    use crate::trace::MemRef;
    use timekeeping::{Addr, Pc};

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
        machine.l1d = timekeeping::CacheGeometry::new(32 * 1024, 2, 32).unwrap();
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
