//! The staged access pipeline and its observer plane.
//!
//! Every L1 data reference walks an explicit pipeline of short stages:
//!
//! ```text
//! Lookup ──hit──▶ Hit ──decayed──▶ DecayRefetch
//!    │
//!   miss─▶ MissClassify ─▶ VictimProbe ──vc hit──▶ swap fill
//!                              │
//!                             miss ─▶ MissIssue ─▶ Fill / Evict
//! ```
//!
//! Each stage moves data between the caches, MSHRs and buses (the
//! *timing* model), and announces what happened by emitting a typed
//! event — [`LookupEvent`], [`HitEvent`], [`MissEvent`], [`FillEvent`],
//! [`EvictEvent`]. Everything that is bookkeeping rather than timing —
//! generation tracking, metric collection, predictor training,
//! victim-cache admission, and the lockstep-oracle tap — lives in
//! observers implementing [`MemObserver`] that react to those events.
//!
//! Observers run in a fixed order for every event: generation plane →
//! metrics → predictors → victim admission → oracle tap. Data flows
//! between them through a per-event [`Reactions`] scratchpad: the
//! generation plane publishes the closed
//! [`GenerationRecord`], the victim
//! filter reads it to make its admission call, and the oracle tap
//! records the decision for the lockstep checker. The order is part of
//! the behavioral contract — reordering observers changes which state a
//! later observer sees and breaks bit-exactness with the golden runs.
//!
//! The prefetch machinery (queue, issue, in-flight heap, arrival fills)
//! also lives here: a prefetch arrival is just another Fill/Evict event
//! pair, emitted from [`MemorySystem::advance`] instead of a demand
//! access.

use std::cmp::Reverse;

use timekeeping::{
    CacheGeometry, Cycle, Dbcp, EvictCause, EvictionInfo, GenerationRecord, LineAddr, LineMeta,
    LinePlane, MissKind, PrefetchRequest, TimekeepingPrefetcher, Timeliness, VictimCache,
    VictimFilter,
};
use timekeeping::{Histogram, L2IntervalMonitor, MetricsCollector, Pc};

use crate::cache::ProbeResult;
use crate::config::{L1Mode, MachineConfig};
use crate::hierarchy::{AccessOutcome, MemorySystem};
use crate::obs::{ProfStage, TraceKind, TraceObserver};
use crate::oracle::SimLevel;
use crate::trace::MemRef;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Emitted at the top of every access, before the L1 probe. Predictors
/// that train on the full reference stream (the stride table) react
/// here.
#[derive(Debug, Clone, Copy)]
pub struct LookupEvent {
    /// The referenced address.
    pub addr: timekeeping::Addr,
    /// The referencing instruction.
    pub pc: Pc,
    /// Access cycle.
    pub now: Cycle,
}

/// An L1 hit.
#[derive(Debug, Clone, Copy)]
pub struct HitEvent {
    /// The referenced line.
    pub line: LineAddr,
    /// The frame that hit.
    pub frame: usize,
    /// The referencing instruction.
    pub pc: Pc,
    /// Access cycle.
    pub now: Cycle,
}

/// An L1 miss, after ground-truth classification and before service.
#[derive(Debug, Clone, Copy)]
pub struct MissEvent {
    /// The missing line.
    pub line: LineAddr,
    /// The referenced address.
    pub addr: timekeeping::Addr,
    /// Ground-truth classification from the fully-associative shadow.
    pub kind: MissKind,
    /// Access cycle.
    pub now: Cycle,
}

/// A line entering an L1 frame — a generation start.
#[derive(Debug, Clone, Copy)]
pub struct FillEvent {
    /// The filled line.
    pub line: LineAddr,
    /// Destination frame.
    pub frame: usize,
    /// L1 set index of the line.
    pub set: u64,
    /// L1 tag of the line.
    pub tag: u64,
    /// Referencing instruction, for demand fills; prefetch fills carry
    /// no PC.
    pub pc: Option<Pc>,
    /// Whether this is a demand fill (false = prefetch arrival).
    pub demand: bool,
    /// The line this fill displaced, if any.
    pub evicted: Option<LineAddr>,
    /// Fill cycle.
    pub now: Cycle,
}

/// A line leaving an L1 frame — a generation end. Emitted *before* the
/// corresponding [`FillEvent`] of the displacing line.
#[derive(Debug, Clone, Copy)]
pub struct EvictEvent {
    /// The evicted line.
    pub line: LineAddr,
    /// The frame it leaves.
    pub frame: usize,
    /// Why the generation ended.
    pub cause: EvictCause,
    /// L1 tag of the replacing line (None for prefetch fills, where
    /// Collins conflict detection does not apply).
    pub incoming_tag: Option<u64>,
    /// L1 set index of the evicted line.
    pub set_index: u64,
    /// L1 tag of the evicted line.
    pub tag: u64,
    /// When the generation ended (for decay this is the switch-off
    /// point, which precedes the access that discovers it).
    pub at: Cycle,
}

/// The bus transaction class a snoop carries (multi-core runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceKind {
    /// A read miss requesting a shared copy.
    BusRd,
    /// A write miss requesting an exclusive copy (invalidates sharers).
    BusRdX,
    /// A write hit on a shared copy claiming ownership without a data
    /// transfer (invalidates the other sharers).
    Upgrade,
}

impl CoherenceKind {
    /// A stable numeric code for trace records (0 BusRd, 1 BusRdX,
    /// 2 upgrade).
    pub fn code(self) -> u64 {
        match self {
            CoherenceKind::BusRd => 0,
            CoherenceKind::BusRdX => 1,
            CoherenceKind::Upgrade => 2,
        }
    }
}

/// A coherence bus transaction observed by every core (multi-core runs).
#[derive(Debug, Clone, Copy)]
pub struct SnoopEvent {
    /// The line the transaction names.
    pub line: LineAddr,
    /// The requesting core.
    pub requester: u32,
    /// The transaction class.
    pub kind: CoherenceKind,
    /// The cycle the bus granted the transaction.
    pub at: Cycle,
}

/// A line copy killed by coherence (a [`SnoopEvent`] claiming exclusive
/// ownership, or an inclusive-L2 back-invalidation).
#[derive(Debug, Clone, Copy)]
pub struct InvalidateEvent {
    /// The invalidated line.
    pub line: LineAddr,
    /// The core that lost its copy.
    pub owner: u32,
    /// The L1 frame the copy occupied (`None` when the copy lived in the
    /// victim cache).
    pub frame: Option<usize>,
    /// When the copy died.
    pub at: Cycle,
}

/// A cache-to-cache transfer: a modified line supplied directly by its
/// owning core instead of the L2/memory (multi-core runs).
#[derive(Debug, Clone, Copy)]
pub struct C2cEvent {
    /// The transferred line.
    pub line: LineAddr,
    /// The core supplying its modified copy.
    pub from: u32,
    /// The requesting core.
    pub to: u32,
    /// The cycle the bus granted the transfer.
    pub at: Cycle,
}

/// Per-event scratchpad through which observers hand results to each
/// other and back to the emitting stage.
#[derive(Debug, Default)]
pub struct Reactions {
    /// Access interval of a hit, published by the generation plane.
    pub access_interval: Option<u64>,
    /// L2 access interval of a miss (time since the line's previous L1
    /// miss), published by the generation plane.
    pub l2_interval: Option<u64>,
    /// The missing line's last-generation metadata at miss time.
    pub line_meta: Option<LineMeta>,
    /// Reload interval at miss time (now minus last generation start).
    pub reload_interval: Option<u64>,
    /// The generation record closed by an evict event.
    pub generation: Option<GenerationRecord>,
    /// Victim-filter admission decision, if an eviction was offered.
    pub vc_admitted: Option<bool>,
    /// Address-prediction outcome scored at a fill (was the predicted
    /// tag correct?).
    pub addr_scored: Option<bool>,
    /// Prefetch requests produced by predictors; the emitting stage
    /// enqueues them in order.
    pub prefetches: Vec<PrefetchRequest>,
}

/// A consumer of pipeline events.
///
/// All non-timing bookkeeping in the memory system flows through this
/// trait: the generation plane, the metrics collector, the prefetch
/// predictors, victim-cache admission and the lockstep-oracle tap each
/// implement it and are dispatched in that fixed order for every event.
pub trait MemObserver {
    /// A reference is about to probe the L1.
    fn on_lookup(&mut self, _ev: &LookupEvent, _rx: &mut Reactions) {}
    /// The reference hit.
    fn on_hit(&mut self, _ev: &HitEvent, _rx: &mut Reactions) {}
    /// The reference missed.
    fn on_miss(&mut self, _ev: &MissEvent, _rx: &mut Reactions) {}
    /// A line entered a frame.
    fn on_fill(&mut self, _ev: &FillEvent, _rx: &mut Reactions) {}
    /// A line left a frame.
    fn on_evict(&mut self, _ev: &EvictEvent, _rx: &mut Reactions) {}
    /// The hierarchy level that serviced an L1 miss was determined.
    fn on_service(&mut self, _level: SimLevel) {}
    /// A coherence bus transaction was granted (multi-core runs only;
    /// single-core pipelines never emit this).
    fn on_snoop(&mut self, _ev: &SnoopEvent, _rx: &mut Reactions) {}
    /// A line copy was killed by coherence (multi-core runs only).
    fn on_invalidate(&mut self, _ev: &InvalidateEvent, _rx: &mut Reactions) {}
    /// A modified line was supplied cache-to-cache (multi-core runs
    /// only).
    fn on_c2c(&mut self, _ev: &C2cEvent, _rx: &mut Reactions) {}
}

/// One entry in the optional pipeline event log (see
/// [`MemorySystem::record_events`]). The log is the stage-ordering
/// contract made testable: fills always follow the evict that made
/// room, decay refetches close at the switch-off point, and prefetch
/// arrivals are non-demand fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineEvent {
    /// An L1 hit in `frame`.
    Hit {
        /// The referenced line.
        line: LineAddr,
        /// The frame that hit.
        frame: usize,
    },
    /// An L1 miss classified as `kind`.
    Miss {
        /// The missing line.
        line: LineAddr,
        /// Ground-truth classification.
        kind: MissKind,
    },
    /// A line filled into `frame`.
    Fill {
        /// The filled line.
        line: LineAddr,
        /// Destination frame.
        frame: usize,
        /// Demand fill (false = prefetch arrival).
        demand: bool,
    },
    /// A generation closed: `line` left `frame`.
    Evict {
        /// The evicted line.
        line: LineAddr,
        /// The frame it left.
        frame: usize,
        /// Why the generation ended.
        cause: EvictCause,
    },
}

// ---------------------------------------------------------------------------
// Observer implementations
// ---------------------------------------------------------------------------

/// The unified per-line/per-frame timekeeping plane (generation
/// tracking + line metadata), as an observer.
#[derive(Debug)]
pub(crate) struct GenObserver {
    pub(crate) plane: LinePlane,
    /// Mirrors `SystemConfig::collect_metrics`: line metadata snapshots
    /// are only taken when someone will consume them.
    pub(crate) collect: bool,
}

impl MemObserver for GenObserver {
    fn on_hit(&mut self, ev: &HitEvent, rx: &mut Reactions) {
        rx.access_interval = Some(self.plane.hit(ev.frame, ev.now));
    }

    fn on_miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        if self.collect {
            // §3: each L1 miss is an L2 access for the line; the interval
            // between successive ones is the L2 access interval.
            rx.l2_interval = self.plane.record_l2_access(ev.line, ev.now);
            let meta = self.plane.line_meta(ev.line).copied();
            rx.reload_interval = meta.map(|h| ev.now.since(h.last_start));
            rx.line_meta = meta;
        }
    }

    fn on_fill(&mut self, ev: &FillEvent, _rx: &mut Reactions) {
        self.plane.fill(ev.frame, ev.line, ev.now);
    }

    fn on_evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        rx.generation = self.plane.evict(ev.frame, ev.at, ev.cause);
    }
}

/// Metric distributions, the L2 access-interval histogram and the
/// hardware L2 interval monitor, as an observer.
#[derive(Debug)]
pub(crate) struct MetricsObserver {
    pub(crate) collector: MetricsCollector,
    pub(crate) l2_access_interval: Histogram,
    pub(crate) l2_monitor: L2IntervalMonitor,
    pub(crate) collect: bool,
}

impl MemObserver for MetricsObserver {
    fn on_hit(&mut self, _ev: &HitEvent, rx: &mut Reactions) {
        if self.collect {
            if let Some(interval) = rx.access_interval {
                self.collector.on_access_interval(interval);
            }
        }
    }

    fn on_miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        // The hardware monitor sees this L1 miss as an L2 access and
        // makes its own (tick-quantized) conflict call.
        if let Some((_, predicted)) = self.l2_monitor.on_access(ev.addr, ev.now) {
            self.l2_monitor.observe(predicted, ev.kind);
        }
        if self.collect {
            if let Some(interval) = rx.l2_interval {
                self.l2_access_interval.record(interval);
            }
            self.collector
                .on_miss(ev.kind, rx.line_meta.as_ref(), rx.reload_interval);
        }
    }

    fn on_evict(&mut self, _ev: &EvictEvent, rx: &mut Reactions) {
        if self.collect {
            if let Some(rec) = &rx.generation {
                self.collector.on_generation(rec);
            }
        }
    }
}

/// The configured prefetcher / address predictor.
#[derive(Debug)]
pub(crate) enum PrefetcherImpl {
    None,
    Tk(TimekeepingPrefetcher),
    Dbcp(Dbcp),
    Markov(timekeeping::Markov),
    Stride(timekeeping::StridePrefetcher),
}

/// Predictor training and address-prediction scoring, as an observer.
/// Prefetch targets surface through [`Reactions::prefetches`]; the
/// emitting stage enqueues them.
#[derive(Debug)]
pub(crate) struct PredictorObserver {
    pub(crate) prefetcher: PrefetcherImpl,
    /// Per-frame predicted next tag, scored against the next fill
    /// (Figure 20).
    pub(crate) addr_pred: Vec<Option<u64>>,
    pub(crate) geom: CacheGeometry,
}

impl PredictorObserver {
    fn request(&self, line: LineAddr) -> PrefetchRequest {
        PrefetchRequest {
            line,
            frame: (self.geom.index_of_line(line) * self.geom.assoc() as u64) as usize,
            need_in_ticks: None,
        }
    }
}

impl MemObserver for PredictorObserver {
    fn on_lookup(&mut self, ev: &LookupEvent, rx: &mut Reactions) {
        // The stride table trains on every reference, hit or miss.
        if let PrefetcherImpl::Stride(sp) = &mut self.prefetcher {
            let targets = sp.on_access(ev.addr, ev.pc);
            for t in targets {
                rx.prefetches.push(self.request(t));
            }
        }
    }

    fn on_hit(&mut self, ev: &HitEvent, rx: &mut Reactions) {
        let target = match &mut self.prefetcher {
            PrefetcherImpl::Tk(p) => {
                p.on_hit(ev.frame);
                None
            }
            PrefetcherImpl::Dbcp(d) => d.on_access(ev.frame, ev.pc),
            PrefetcherImpl::None | PrefetcherImpl::Markov(_) | PrefetcherImpl::Stride(_) => None,
        };
        if let Some(t) = target {
            rx.prefetches.push(self.request(t));
        }
    }

    fn on_miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        // The Markov predictor correlates the global miss stream.
        if let PrefetcherImpl::Markov(mk) = &mut self.prefetcher {
            let targets = mk.on_miss(ev.line);
            for t in targets {
                rx.prefetches.push(self.request(t));
            }
        }
    }

    fn on_fill(&mut self, ev: &FillEvent, rx: &mut Reactions) {
        // Score the previous address prediction for this frame.
        if let Some(pred) = self.addr_pred[ev.frame].take() {
            rx.addr_scored = Some(pred == ev.tag);
        }
        let target = match &mut self.prefetcher {
            PrefetcherImpl::Tk(p) => {
                if ev.demand {
                    p.on_fill(ev.frame, ev.set, ev.tag);
                } else {
                    p.on_prefetch_fill(ev.frame, ev.set, ev.tag);
                }
                self.addr_pred[ev.frame] = p.predicted_next(ev.frame);
                None
            }
            PrefetcherImpl::Dbcp(d) => {
                d.on_replace(ev.frame, ev.line);
                match ev.pc {
                    Some(pc) => d.on_access(ev.frame, pc),
                    None => None,
                }
            }
            PrefetcherImpl::None | PrefetcherImpl::Markov(_) | PrefetcherImpl::Stride(_) => None,
        };
        if let Some(t) = target {
            rx.prefetches.push(self.request(t));
        }
    }
}

/// The victim cache and its admission filter.
#[derive(Debug)]
pub(crate) struct VictimUnit {
    pub(crate) cache: VictimCache,
    pub(crate) filter: Box<dyn VictimFilter>,
    /// Blocks entered by L1↔VC swaps (not counted as filtered fill
    /// traffic; see DESIGN.md).
    pub(crate) swap_fills: u64,
}

/// Victim-cache admission, as an observer: offers every closed
/// generation to the filter and publishes the decision.
#[derive(Debug)]
pub(crate) struct VictimObserver {
    pub(crate) unit: Option<VictimUnit>,
}

impl MemObserver for VictimObserver {
    fn on_evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        let Some(rec) = &rx.generation else { return };
        if let Some(v) = self.unit.as_mut() {
            let info = EvictionInfo {
                line: ev.line,
                set_index: ev.set_index,
                tag: ev.tag,
                dead_time: rec.dead_time,
                live_time: rec.live_time,
                cause: ev.cause,
                reload_interval: rec.reload_interval,
                incoming_tag: ev.incoming_tag.unwrap_or(u64::MAX),
            };
            let admitted = v.cache.offer(v.filter.as_mut(), &info);
            rx.vc_admitted = Some(admitted);
        }
    }
}

/// Per-access scratch recorded for the lockstep checker (see
/// [`crate::oracle`]). Reset before each checked access; the writes are
/// unconditional because they are cheaper than branching on whether a
/// checker is installed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TapEvent {
    /// Level that serviced an L1 miss (`None` until the miss path runs).
    pub(crate) level: Option<SimLevel>,
    /// Line evicted from the L1 by this event, if any.
    pub(crate) evicted: Option<LineAddr>,
    /// Whether a generation-boundary event (plane evict) fired.
    pub(crate) closed: bool,
    /// Whether this was a decay refetch.
    pub(crate) decay: bool,
    /// Victim-filter admission decision, if an eviction was offered.
    pub(crate) vc_admitted: Option<bool>,
}

/// The lockstep-oracle tap, as an observer: mirrors event outcomes into
/// the [`TapEvent`] scratch the checker compares against.
#[derive(Debug, Default)]
pub(crate) struct OracleTap {
    pub(crate) evt: TapEvent,
}

impl MemObserver for OracleTap {
    fn on_fill(&mut self, ev: &FillEvent, _rx: &mut Reactions) {
        if ev.demand {
            self.evt.evicted = ev.evicted;
        }
    }

    fn on_evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        if rx.generation.is_some() {
            self.evt.closed = true;
            // During an access, a Flush-cause close only happens on a
            // decay refetch.
            if ev.cause == EvictCause::Flush {
                self.evt.decay = true;
            }
            if let Some(admitted) = rx.vc_admitted {
                self.evt.vc_admitted = Some(admitted);
            }
        }
    }

    fn on_service(&mut self, level: SimLevel) {
        self.evt.level = Some(level);
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Dispatches one event to every observer, in the canonical order. The
/// trace observer, when installed, runs *last*: it sees the fully
/// populated [`Reactions`] (e.g. the closed generation record) and
/// writes nothing back, so its presence cannot change simulation
/// results.
macro_rules! dispatch_all {
    ($obs:expr, $method:ident, $ev:expr, $rx:expr) => {{
        MemObserver::$method(&mut $obs.gens, $ev, $rx);
        MemObserver::$method(&mut $obs.metrics, $ev, $rx);
        MemObserver::$method(&mut $obs.predictors, $ev, $rx);
        MemObserver::$method(&mut $obs.victim, $ev, $rx);
        MemObserver::$method(&mut $obs.oracle, $ev, $rx);
        if let Some(t) = $obs.trace.as_deref_mut() {
            MemObserver::$method(t, $ev, $rx);
        }
    }};
}

/// The fixed set of observers, dispatched in declaration order.
#[derive(Debug)]
pub(crate) struct Observers {
    pub(crate) gens: GenObserver,
    pub(crate) metrics: MetricsObserver,
    pub(crate) predictors: PredictorObserver,
    pub(crate) victim: VictimObserver,
    pub(crate) oracle: OracleTap,
    /// The optional sixth observer: event tracing (`--trace`). Boxed so
    /// the disabled path carries one pointer-sized `None`.
    pub(crate) trace: Option<Box<TraceObserver>>,
}

impl Observers {
    fn lookup(&mut self, ev: &LookupEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_lookup, ev, rx)
    }
    fn hit(&mut self, ev: &HitEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_hit, ev, rx)
    }
    fn miss(&mut self, ev: &MissEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_miss, ev, rx)
    }
    fn fill(&mut self, ev: &FillEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_fill, ev, rx)
    }
    fn evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        dispatch_all!(self, on_evict, ev, rx)
    }
    fn service(&mut self, level: SimLevel) {
        self.gens.on_service(level);
        self.metrics.on_service(level);
        self.predictors.on_service(level);
        self.victim.on_service(level);
        self.oracle.on_service(level);
        if let Some(t) = self.trace.as_deref_mut() {
            t.on_service(level);
        }
    }
}

// ---------------------------------------------------------------------------
// Prefetch lifecycle state
// ---------------------------------------------------------------------------

/// Per-set pending-prefetch lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PfState {
    /// Waiting in the prefetch request queue.
    Queued,
    /// Dropped from the queue by overflow; kept for classification.
    Discarded,
    /// Issued to the lower hierarchy; data arrives at the given cycle.
    Issued(Cycle),
    /// Arrived in the L1; remembers which line it displaced and whether
    /// that line has since been demand-missed (the "early" signature).
    Arrived {
        displaced: Option<LineAddr>,
        displaced_missed: bool,
    },
}

/// The pending prefetch for one L1 set (at most one at a time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingPf {
    pub(crate) line: LineAddr,
    pub(crate) state: PfState,
    /// Predicted cycle by which the line will be demanded (for slack
    /// scheduling), when the predictor supplied one.
    pub(crate) deadline: Option<Cycle>,
}

/// Backlog allowances and the slack-urgency window governing prefetch
/// issue, derived from the machine latencies. Shared between the issue
/// gates themselves and the event computation that predicts when they
/// open ([`MemorySystem::next_event`]) — one source of truth, so the two
/// cannot drift.
fn pf_gate_limits(m: &MachineConfig) -> (u64, u64, u64) {
    (
        // L1/L2 bus: one L2 round-trip of backlog is tolerated.
        m.l2_latency + 2 * m.l1l2_bus_occupancy,
        // L2/memory bus: a few transfers of backlog.
        4 * m.l2mem_bus_occupancy,
        // A prefetch is "urgent" once its predicted need time is within a
        // worst-case fetch latency of now.
        m.l2_latency + m.mem_latency + 2 * m.l2mem_bus_occupancy,
    )
}

/// Looks up the pending deadline recorded for a queued request.
fn geom_deadline(
    pending: &[Option<PendingPf>],
    geom: CacheGeometry,
    req: &PrefetchRequest,
) -> Option<Cycle> {
    pending[geom.index_of_line(req.line) as usize].and_then(|p| p.deadline)
}

// ---------------------------------------------------------------------------
// The pipeline stages
// ---------------------------------------------------------------------------

impl MemorySystem {
    // -- event emission -----------------------------------------------------

    fn emit_lookup(&mut self, ev: &LookupEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.obs.lookup(ev, &mut rx);
        self.prof_rec(ProfStage::ObsLookup, t0);
        rx
    }

    fn emit_hit(&mut self, ev: &HitEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.obs.hit(ev, &mut rx);
        self.prof_rec(ProfStage::ObsHit, t0);
        if let Some(log) = &mut self.event_log {
            log.push(PipelineEvent::Hit {
                line: ev.line,
                frame: ev.frame,
            });
        }
        rx
    }

    fn emit_miss(&mut self, ev: &MissEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.obs.miss(ev, &mut rx);
        self.prof_rec(ProfStage::ObsMiss, t0);
        if let Some(log) = &mut self.event_log {
            log.push(PipelineEvent::Miss {
                line: ev.line,
                kind: ev.kind,
            });
        }
        rx
    }

    fn emit_fill(&mut self, ev: &FillEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.obs.fill(ev, &mut rx);
        self.prof_rec(ProfStage::ObsFill, t0);
        if let Some(log) = &mut self.event_log {
            log.push(PipelineEvent::Fill {
                line: ev.line,
                frame: ev.frame,
                demand: ev.demand,
            });
        }
        rx
    }

    fn emit_evict(&mut self, ev: &EvictEvent) -> Reactions {
        let mut rx = Reactions::default();
        let t0 = self.prof_t0();
        self.obs.evict(ev, &mut rx);
        self.prof_rec(ProfStage::ObsEvict, t0);
        if rx.generation.is_some() {
            if let Some(log) = &mut self.event_log {
                log.push(PipelineEvent::Evict {
                    line: ev.line,
                    frame: ev.frame,
                    cause: ev.cause,
                });
            }
        }
        rx
    }

    fn emit_service(&mut self, level: SimLevel) {
        self.obs.service(level);
    }

    /// Records one prefetch-lifecycle trace record (fire / arrival /
    /// discard) when tracing is installed; free otherwise.
    #[inline]
    fn trace_pf(&mut self, kind: TraceKind, line: LineAddr, at: Cycle, aux: u64) {
        if let Some(t) = self.obs.trace.as_deref_mut() {
            t.push(kind, at, line, aux);
        }
    }

    /// Records one DRAM access record when tracing is installed AND the
    /// backend models row buffers (`row` is `Some`); the fixed-latency
    /// default therefore emits nothing and existing trace goldens are
    /// unchanged. The aux payload is the [`RowOutcome`] code.
    #[inline]
    fn trace_dram(
        &mut self,
        kind: TraceKind,
        addr: timekeeping::Addr,
        at: Cycle,
        row: Option<crate::dram::RowOutcome>,
    ) {
        if let Some(row) = row {
            let line = self.l1d.geometry().line_of(addr);
            self.trace_pf(kind, line, at, row.code());
        }
    }

    /// Enqueues the prefetch targets the observers produced, in order.
    fn drain_prefetches(&mut self, rx: Reactions, now: Cycle) {
        for req in rx.prefetches {
            self.enqueue_prefetch(req, now);
        }
    }

    /// Emits the Fill event for `line` entering `frame` and applies the
    /// reactions (address-prediction scoring, chained prefetch targets).
    fn fill_event(
        &mut self,
        frame: usize,
        line: LineAddr,
        pc: Option<Pc>,
        demand: bool,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) {
        let geom = self.l1d.geometry();
        let set = geom.index_of_line(line);
        let tag = geom.tag_of_line(line);
        let ev = FillEvent {
            line,
            frame,
            set,
            tag,
            pc,
            demand,
            evicted,
            now,
        };
        let rx = self.emit_fill(&ev);
        if let Some(correct) = rx.addr_scored {
            self.stats.addr_predictions += 1;
            if correct {
                self.stats.addr_correct += 1;
            }
        }
        self.drain_prefetches(rx, now);
    }

    /// Emits the Evict event closing the generation in `frame` (which
    /// holds `ev_line`). Observers record metrics, offer the victim to
    /// the victim cache, and inform the oracle tap.
    fn evict_event(
        &mut self,
        frame: usize,
        ev_line: LineAddr,
        at: Cycle,
        cause: EvictCause,
        incoming_tag: Option<u64>,
    ) {
        let geom = *self.l1d.geometry();
        let ev = EvictEvent {
            line: ev_line,
            frame,
            cause,
            incoming_tag,
            set_index: geom.index_of_line(ev_line),
            tag: geom.tag_of_line(ev_line),
            at,
        };
        let _ = self.emit_evict(&ev);
    }

    // -- stages -------------------------------------------------------------

    /// Stage 1 — Lookup: train stream predictors, probe the L1, and
    /// route to the hit or miss stages.
    pub(crate) fn stage_lookup(
        &mut self,
        mref: &MemRef,
        is_store: bool,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.l1_accesses += 1;
        // Capture the raw reference stream (`--trace=ref`) ahead of the
        // ColdOnly early-return so every demand reference is recorded —
        // exactly one Access record per l1_access.
        if let Some(t) = self.obs.trace.as_deref_mut() {
            let line = self.l1d.geometry().line_of(mref.addr);
            t.ref_event(now, line, mref.pc.get(), is_store);
        }
        if self.cfg.l1_mode == L1Mode::ColdOnly {
            return self.access_cold_only(mref, now);
        }
        let addr = mref.addr;
        let line = self.l1d.geometry().line_of(addr);
        let rx = self.emit_lookup(&LookupEvent {
            addr,
            pc: mref.pc,
            now,
        });
        self.drain_prefetches(rx, now);
        match self.l1d.probe(addr) {
            ProbeResult::Hit(frame) => self.stage_hit(mref, line, frame, is_store, now),
            ProbeResult::Miss {
                victim_frame,
                evicted,
            } => {
                let out = self.stage_miss(mref, line, victim_frame, evicted, now);
                if is_store {
                    if let Some(f) = self.l1d.peek(addr) {
                        self.l1d.mark_dirty(f);
                    }
                }
                out
            }
        }
    }

    /// Hit stage: decay check, hit bookkeeping via the observers,
    /// prefetch-timeliness resolution, and hit-under-miss timing.
    fn stage_hit(
        &mut self,
        mref: &MemRef,
        line: LineAddr,
        frame: usize,
        is_store: bool,
        now: Cycle,
    ) -> AccessOutcome {
        if is_store {
            self.l1d.mark_dirty(frame);
        }
        // Cache decay: a line idle past the decay interval was switched
        // off; its data must be refetched from the L2.
        if let Some(interval) = self.cfg.decay_interval {
            if let Some(last_use) = self.obs.gens.plane.last_use(frame) {
                if now.since(last_use) >= interval {
                    return self.stage_decay_refetch(mref, line, frame, last_use, interval, now);
                }
            }
        }
        self.stats.l1_hits += 1;
        self.shadow.on_access(line);
        let rx = self.emit_hit(&HitEvent {
            line,
            frame,
            pc: mref.pc,
            now,
        });
        self.drain_prefetches(rx, now);
        // A hit on a prefetched block resolves its timeliness.
        let set = self.l1d.geometry().index_of_line(line) as usize;
        if let Some(p) = self.pending_pf[set] {
            if p.line == line {
                if let PfState::Arrived {
                    displaced_missed, ..
                } = p.state
                {
                    self.pending_pf[set] = None;
                    let class = if displaced_missed {
                        Timeliness::Early
                    } else {
                        Timeliness::Timely
                    };
                    self.timeliness.record(true, class);
                }
            }
        }
        // Hit under miss: data may still be in flight.
        let mut ready = now + self.cfg.machine.l1_hit_latency;
        if let Some(r) = self.demand_mshrs.ready_time(line) {
            ready = ready.max(r);
        }
        if let Some(r) = self.prefetch_mshrs.ready_time(line) {
            ready = ready.max(r);
        }
        AccessOutcome {
            ready_at: ready,
            l1_hit: true,
            vc_hit: false,
        }
    }

    /// Miss macro-stage: classification, victim-cache probe, then issue.
    fn stage_miss(
        &mut self,
        mref: &MemRef,
        line: LineAddr,
        victim_frame: usize,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) -> AccessOutcome {
        let set = self.l1d.geometry().index_of_line(line);
        self.stage_miss_classify(mref, line, now);
        // Resolve / annotate pending prefetch state for this set.
        self.resolve_pending_on_miss(set, line, now);
        if let Some(out) = self.stage_victim_probe(mref, line, victim_frame, evicted, now) {
            return out;
        }
        self.stage_miss_issue(mref, line, now)
    }

    /// Miss-classify stage: ground-truth classification and the Miss
    /// event (metrics, L2 monitor, Markov training).
    fn stage_miss_classify(&mut self, mref: &MemRef, line: LineAddr, now: Cycle) {
        let kind = self.shadow.classify_miss(line);
        let rx = self.emit_miss(&MissEvent {
            line,
            addr: mref.addr,
            kind,
            now,
        });
        self.drain_prefetches(rx, now);
    }

    /// VictimProbe stage: if the victim cache holds the line, swap it
    /// with the displaced resident and finish in one extra cycle.
    fn stage_victim_probe(
        &mut self,
        mref: &MemRef,
        line: LineAddr,
        victim_frame: usize,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) -> Option<AccessOutcome> {
        let unit = self.obs.victim.unit.as_mut()?;
        if !unit.cache.take(line) {
            return None;
        }
        self.stats.vc_hits += 1;
        // Swap: close the displaced generation and move the block into
        // the victim cache unfiltered (it is an exchange, not eviction
        // traffic).
        if let Some(ev) = evicted {
            self.evict_event(victim_frame, ev, now, EvictCause::Demand, None);
            self.writeback_if_dirty(victim_frame, now);
            let v = self.obs.victim.unit.as_mut().expect("checked above");
            v.cache.insert(ev);
            v.swap_fills += 1;
        }
        self.l1d.fill_frame(victim_frame, mref.addr);
        self.fill_event(victim_frame, line, Some(mref.pc), true, evicted, now);
        Some(AccessOutcome {
            ready_at: now + self.cfg.machine.l1_hit_latency + 1,
            l1_hit: false,
            vc_hit: true,
        })
    }

    /// MissIssue stage: merge with outstanding fetches (demand MSHRs,
    /// in-flight prefetches) or issue a fresh fetch, then fill.
    fn stage_miss_issue(&mut self, mref: &MemRef, line: LineAddr, now: Cycle) -> AccessOutcome {
        // Merge with an outstanding demand miss for the same line.
        if let Some(ready) = self.demand_mshrs.lookup(line) {
            self.emit_service(SimLevel::InFlight);
            // The tag was filled by the first miss unless it was evicted
            // in between; refill if needed.
            if self.l1d.peek(mref.addr).is_none() {
                self.stage_fill(mref, line, now);
            }
            return AccessOutcome {
                ready_at: ready,
                l1_hit: false,
                vc_hit: false,
            };
        }
        // A prefetch already in flight for this line: the demand takes
        // ownership of it.
        if let Some(pf_ready) = self.prefetch_mshrs.remove(line) {
            self.emit_service(SimLevel::InFlight);
            self.pf_queue.cancel_line(line);
            self.stage_fill(mref, line, now);
            let ready = pf_ready.max(now + 1);
            self.alloc_demand(line, ready, now);
            return AccessOutcome {
                ready_at: ready,
                l1_hit: false,
                vc_hit: false,
            };
        }
        // Still queued (never issued): fetch normally.
        self.pf_queue.cancel_line(line);
        let ready = self.fetch_from_l2(mref.addr, now, true);
        self.alloc_demand(line, ready, now);
        self.stage_fill(mref, line, now);
        AccessOutcome {
            ready_at: ready,
            l1_hit: false,
            vc_hit: false,
        }
    }

    /// Fill/Evict stage (demand): write back the displaced resident,
    /// fill the frame, and emit the Evict + Fill event pair.
    fn stage_fill(&mut self, mref: &MemRef, line: LineAddr, now: Cycle) {
        let geom = *self.l1d.geometry();
        {
            let (victim_frame, resident) = self.l1d.peek_victim(mref.addr);
            if resident.is_some() {
                if self.cfg.decay_interval.is_some() {
                    self.bank_decay_off_time(victim_frame, now);
                }
                self.writeback_if_dirty(victim_frame, now);
            }
        }
        let (frame, evicted) = self.l1d.fill(mref.addr);
        if let Some(ev) = evicted {
            self.evict_event(
                frame,
                ev,
                now,
                EvictCause::Demand,
                Some(geom.tag_of_line(line)),
            );
        }
        self.fill_event(frame, line, Some(mref.pc), true, evicted, now);
    }

    /// DecayRefetch stage: a reference to a decayed (switched-off) line
    /// ends the generation at the decay point, refetches the block from
    /// the L2 and starts a fresh generation. The interval between
    /// switch-off and this access is banked as leakage saving.
    fn stage_decay_refetch(
        &mut self,
        mref: &MemRef,
        line: LineAddr,
        frame: usize,
        last_use: Cycle,
        interval: u64,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.decay_misses += 1;
        let off_at = last_use + interval;
        self.stats.decay_off_cycles += now.since(off_at);
        // The decayed generation ended when the line switched off.
        self.evict_event(frame, line, off_at, EvictCause::Flush, None);
        // Refetch: the shadow still sees a reference (decay is invisible
        // to the fully-associative model — these are not program misses).
        self.shadow.on_access(line);
        let ready = self.fetch_from_l2(mref.addr, now, true);
        self.alloc_demand(line, ready, now);
        self.l1d.fill_frame(frame, mref.addr);
        self.fill_event(frame, line, Some(mref.pc), true, None, now);
        AccessOutcome {
            ready_at: ready,
            l1_hit: false,
            vc_hit: false,
        }
    }

    /// The cold-miss-only study L1 (§6 sizing bound): every line hits
    /// forever after its first reference.
    fn access_cold_only(&mut self, mref: &MemRef, now: Cycle) -> AccessOutcome {
        let line = self.l1d.geometry().line_of(mref.addr);
        if self.cold_seen.contains(&line.get()) {
            self.stats.l1_hits += 1;
            return AccessOutcome {
                ready_at: now + self.cfg.machine.l1_hit_latency,
                l1_hit: true,
                vc_hit: false,
            };
        }
        self.cold_seen.insert(line.get());
        if let Some(ready) = self.demand_mshrs.lookup(line) {
            return AccessOutcome {
                ready_at: ready,
                l1_hit: false,
                vc_hit: false,
            };
        }
        let ready = self.fetch_from_l2(mref.addr, now, true);
        self.alloc_demand(line, ready, now);
        AccessOutcome {
            ready_at: ready,
            l1_hit: false,
            vc_hit: false,
        }
    }

    // -- timing helpers -----------------------------------------------------

    /// Allocates a demand MSHR, modeling queueing delay when full.
    pub(crate) fn alloc_demand(&mut self, line: LineAddr, ready: Cycle, now: Cycle) {
        // `fetch_from_l2` already folded MSHR queuing into `ready` via
        // `demand_base`; here we only record occupancy.
        if self.demand_mshrs.next_free(now).is_none() {
            self.demand_mshrs.allocate(line, ready);
        }
        // When full the request queued behind the earliest entry; that
        // entry's register is reused, so no separate allocation is needed.
    }

    /// Start time for a new demand request, accounting for MSHR
    /// availability.
    fn demand_base(&mut self, now: Cycle) -> Cycle {
        match self.demand_mshrs.next_free(now) {
            None => now,
            Some(free_at) => free_at,
        }
    }

    /// Computes the completion time of a block fetch entering at the L2,
    /// updating L2 state, buses and counters. `demand` selects demand
    /// (priority) or prefetch scheduling.
    pub(crate) fn fetch_from_l2(
        &mut self,
        addr: timekeeping::Addr,
        now: Cycle,
        demand: bool,
    ) -> Cycle {
        let m = self.cfg.machine;
        let base = if demand { self.demand_base(now) } else { now };
        if demand {
            self.stats.l2_accesses += 1;
        }
        // Bus occupancy is charged at request time (the response slot is
        // reserved when the request enters): latency pipelines around the
        // occupancy, so the backlog reflects genuine congestion rather
        // than in-flight latency.
        match self.l2.probe(addr) {
            ProbeResult::Hit(_) => {
                if demand {
                    self.stats.l2_hits += 1;
                    self.emit_service(SimLevel::L2);
                } else {
                    self.notify_prefetch_l2(addr, true);
                }
                let start = self.l1l2_bus.schedule(base);
                self.l1l2_bus.done_at(start) + m.l2_latency
            }
            ProbeResult::Miss { .. } => {
                if demand {
                    self.stats.mem_accesses += 1;
                    self.emit_service(SimLevel::Mem);
                } else {
                    self.notify_prefetch_l2(addr, false);
                }
                let start1 = self.l1l2_bus.schedule(base);
                let at_l2 = self.l1l2_bus.done_at(start1) + m.l2_latency;
                let start2 = self.l2mem_bus.schedule(at_l2);
                // The read reaches the memory device once it has crossed
                // the L2/memory bus; the backend owns everything after
                // that (a constant under FixedLatency, bank/row/channel
                // timing under BankedDram).
                let at_mem = self.l2mem_bus.done_at(start2);
                let reply = self.backend.issue(addr, at_mem);
                self.trace_dram(TraceKind::DramRead, addr, at_mem, reply.row);
                // An L2 fill may evict a dirty L2 line: write it to memory.
                let (l2_victim, l2_resident) = self.l2.peek_victim(addr);
                if l2_resident.is_some() && self.l2.frame_dirty(l2_victim) {
                    self.stats.l2_writebacks += 1;
                    let wb_addr = self.l2.geometry().addr_of_line(
                        self.l2
                            .line_in_frame(l2_victim)
                            .expect("dirty frame is valid"),
                    );
                    let wb_start = self.l2mem_bus.schedule(at_l2);
                    let wb_at_mem = self.l2mem_bus.done_at(wb_start);
                    let wb_row = self.backend.write(wb_addr, wb_at_mem);
                    self.trace_dram(TraceKind::DramWrite, wb_addr, wb_at_mem, wb_row);
                }
                self.l2.fill(addr);
                reply.done
            }
        }
    }

    /// Writes a dirty evicted L1 line back toward the L2: the transfer
    /// occupies the L1/L2 bus (write-backs contend with demand fills). If
    /// the line is no longer L2-resident (the hierarchy is not inclusive),
    /// the write continues to memory over the L2/memory bus.
    fn writeback_if_dirty(&mut self, frame: usize, now: Cycle) {
        if !self.l1d.frame_dirty(frame) {
            return;
        }
        self.stats.l1_writebacks += 1;
        self.l1l2_bus.schedule(now);
        let line = self.l1d.line_in_frame(frame).expect("dirty frame is valid");
        let addr = self.l1d.geometry().addr_of_line(line);
        match self.l2.peek(addr) {
            Some(l2_frame) => self.l2.mark_dirty(l2_frame),
            None => {
                // Not L2-resident: the write-back continues to memory.
                self.stats.l2_writebacks += 1;
                let start = self.l2mem_bus.schedule(now);
                let at_mem = self.l2mem_bus.done_at(start);
                let row = self.backend.write(addr, at_mem);
                self.trace_dram(TraceKind::DramWrite, addr, at_mem, row);
            }
        }
    }

    /// Banks leakage savings for a frame being evicted while decayed.
    pub(crate) fn bank_decay_off_time(&mut self, frame: usize, now: Cycle) {
        if let Some(interval) = self.cfg.decay_interval {
            if let Some(last_use) = self.obs.gens.plane.last_use(frame) {
                let off_at = last_use + interval;
                self.stats.decay_off_cycles += now.since(off_at);
            }
        }
    }

    /// Forwards a prefetch's L2 probe outcome to the lockstep checker.
    fn notify_prefetch_l2(&mut self, addr: timekeeping::Addr, hit: bool) {
        if let Some(mut chk) = self.checker.take() {
            chk.check_prefetch_l2(addr, hit);
            self.checker = Some(chk);
        }
    }

    // -- prefetch lifecycle -------------------------------------------------

    /// Advances background machinery to `now`: global ticks (prefetch
    /// counters), prefetch issue, and prefetch arrivals.
    ///
    /// Correct under arbitrary forward jumps: every intermediate event
    /// between the previous call and `now` — tick boundary, prefetch
    /// arrival, issue-gate opening — is replayed at its true timestamp
    /// (via [`next_event`](Self::next_event)), so one jump is
    /// bit-identical to calling `advance` every cycle.
    pub fn advance(&mut self, now: Cycle) {
        let t0 = self.prof_t0();
        if now <= self.last_advance {
            // Re-advancing within the present: the per-cycle body is
            // idempotent at a fixed timestamp.
            self.advance_cycle(now);
            self.prof_rec(ProfStage::Advance, t0);
            return;
        }
        if let Some(p) = self.prof.as_deref_mut() {
            p.record_hop(now.since(self.last_advance));
        }
        while let Some(e) = self.next_event(self.last_advance) {
            if e >= now {
                break;
            }
            self.advance_cycle(e);
        }
        self.advance_cycle(now);
        self.prof_rec(ProfStage::Advance, t0);
    }

    /// Runs one cycle's worth of background machinery at timestamp `now`:
    /// tick catch-up (with enqueue deadlines anchored at `now`), then
    /// arrivals, then issue — the same order the per-cycle loop used.
    fn advance_cycle(&mut self, now: Cycle) {
        let cur_tick = self.ticker.tick_of(now);
        if self.last_tick < cur_tick {
            let mut fired = std::mem::take(&mut self.tick_scratch);
            while self.last_tick < cur_tick {
                self.last_tick += 1;
                fired.clear();
                if let PrefetcherImpl::Tk(p) = &mut self.obs.predictors.prefetcher {
                    // When the prefetcher is active, every tick boundary is
                    // an event (next_event reports it), so this loop runs
                    // exactly once per boundary and `now` is the boundary
                    // cycle itself — deadlines come out exact.
                    p.tick_into(&mut fired);
                }
                for req in fired.iter().copied() {
                    self.enqueue_prefetch(req, now);
                }
            }
            fired.clear();
            self.tick_scratch = fired;
        }
        self.stage_prefetch_arrival(now);
        self.issue_prefetches(now);
        self.last_advance = self.last_advance.max(now);
    }

    /// The earliest cycle strictly after `now` at which the memory system
    /// can change state *on its own* (without a new demand access):
    ///
    /// - the next global tick boundary, when the timekeeping prefetcher's
    ///   per-frame counters are clocked by it (for other configurations a
    ///   tick mutates nothing and is not an event);
    /// - the earliest in-flight prefetch arrival (which also covers
    ///   prefetch-MSHR registers freeing up — they drain at arrivals);
    /// - the first cycle the prefetch-issue gates (bus backlog, slack
    ///   urgency/idleness, MSHR availability) can open for the queued
    ///   head.
    ///
    /// Returns `None` when the system is quiescent: nothing will change
    /// until the next access. Every gate is monotone in time against
    /// otherwise-static state, so the returned cycle is exact — advancing
    /// to any earlier cycle is a no-op, which is what makes clock hopping
    /// bit-identical to per-cycle stepping.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            if c > now && next.is_none_or(|n| c < n) {
                next = Some(c);
            }
        };
        if matches!(self.obs.predictors.prefetcher, PrefetcherImpl::Tk(_)) {
            consider(self.ticker.cycle_of_tick(self.last_tick + 1));
        }
        if let Some(&Reverse((arrive, _, _))) = self.inflight_pf.peek() {
            consider(Cycle::new(arrive));
        }
        if let Some(c) = self.next_issue_opportunity(now) {
            consider(c);
        }
        // The memory backend's self-scheduled releases (bank / channel-bus
        // frees under BankedDram; none under FixedLatency). These unblock
        // no pipeline gate directly — backend state only evolves at
        // issue()/write() calls — so the extra wake-ups are harmless by
        // the idempotence of `advance_cycle`, and conservative reporting
        // keeps the hop target exact for any future gate that reads them.
        if let Some(c) = self.backend.next_event(now) {
            consider(c);
        }
        next
    }

    /// The first cycle strictly after `now` at which
    /// [`issue_prefetches`](Self::issue_prefetches) could make progress,
    /// given that no other event intervenes. Mirrors the issue gates
    /// exactly: each gate condition is monotone in the probe cycle (bus
    /// backlogs only drain, deadlines only get nearer), so solving each
    /// threshold inequality for the probe cycle gives the precise opening
    /// time.
    fn next_issue_opportunity(&self, now: Cycle) -> Option<Cycle> {
        if self.pf_queue.is_empty() {
            return None;
        }
        // A full file drains only at an arrival, which is already an
        // event; no separate wake-up needed.
        if !self.prefetch_mshrs.has_free_at(now) {
            return None;
        }
        let (max_backlog, max_mem_backlog, urgency_window) = pf_gate_limits(&self.cfg.machine);
        let nf1 = self.l1l2_bus.next_free().get();
        let nf2 = self.l2mem_bus.next_free().get();
        // backlog(c) = next_free - c <= max  ⇔  c >= next_free - max.
        let mut open = nf1
            .saturating_sub(max_backlog)
            .max(nf2.saturating_sub(max_mem_backlog));
        if self.cfg.slack_prefetch {
            let geom = *self.l1d.geometry();
            let head_deadline = self
                .pf_queue
                .peek()
                .and_then(|r| geom_deadline(&self.pending_pf, geom, r));
            // urgent(c) ⇔ deadline - c <= window ⇔ c >= deadline - window;
            // an unknown deadline is always urgent.
            let urgent_at = head_deadline.map_or(0, |d| d.get().saturating_sub(urgency_window));
            // idle(c) ⇔ both backlogs are zero ⇔ c >= max(next_free).
            let idle_at = nf1.max(nf2);
            // The slack gate passes once the head is urgent OR the buses
            // are fully idle, whichever comes first.
            open = open.max(urgent_at.min(idle_at));
        }
        Some(Cycle::new(open).max(now + 1))
    }

    /// Resolves or annotates the pending prefetch for `set` when a demand
    /// miss to `miss_line` occurs there.
    fn resolve_pending_on_miss(&mut self, set: u64, miss_line: LineAddr, now: Cycle) {
        let Some(p) = self.pending_pf[set as usize] else {
            return;
        };
        let correct = p.line == miss_line;
        let class = match p.state {
            PfState::Queued => {
                self.pf_queue.cancel_line(p.line);
                Timeliness::NotStarted
            }
            PfState::Discarded => Timeliness::Discarded,
            PfState::Issued(arrive) => {
                if arrive > now {
                    Timeliness::StartedNotTimely
                } else {
                    // Arrival pending processing this very cycle; treat as
                    // arrived-in-time.
                    Timeliness::Timely
                }
            }
            PfState::Arrived {
                displaced,
                displaced_missed,
            } => {
                if displaced == Some(miss_line) || displaced_missed {
                    Timeliness::Early
                } else {
                    Timeliness::Timely
                }
            }
        };
        self.pending_pf[set as usize] = None;
        self.timeliness.record(correct, class);
    }

    /// Accepts a prefetch request from a predictor.
    fn enqueue_prefetch(&mut self, req: PrefetchRequest, now: Cycle) {
        if self.cfg.predict_only {
            return;
        }
        let geom = *self.l1d.geometry();
        let addr = geom.addr_of_line(req.line);
        // Drop if already cached or already being fetched.
        if self.l1d.peek(addr).is_some()
            || self.demand_mshrs.contains(req.line)
            || self.prefetch_mshrs.contains(req.line)
        {
            self.stats.pf_redundant += 1;
            return;
        }
        let set = geom.index_of_line(req.line) as usize;
        // One pending prefetch per set: keep the older one.
        if self.pending_pf[set].is_some() {
            self.stats.pf_redundant += 1;
            return;
        }
        self.stats.pf_enqueued += 1;
        let deadline = req
            .need_in_ticks
            .map(|t| now + self.ticker.cycles(t as u64));
        self.pending_pf[set] = Some(PendingPf {
            line: req.line,
            state: PfState::Queued,
            deadline,
        });
        if let Some(dropped) = self.pf_queue.push(req) {
            let dset = geom.index_of_line(dropped.line) as usize;
            if let Some(dp) = self.pending_pf[dset].as_mut() {
                if dp.line == dropped.line && dp.state == PfState::Queued {
                    dp.state = PfState::Discarded;
                }
            }
            self.trace_pf(TraceKind::PfDiscard, dropped.line, now, 0);
        }
    }

    /// Issues queued prefetches while the L1/L2 bus backlog is low and
    /// prefetch MSHRs are available (demand priority). The backlog bound is
    /// one L2 round-trip: beyond that, demand traffic owns the bus.
    fn issue_prefetches(&mut self, now: Cycle) {
        let geom = *self.l1d.geometry();
        let (max_backlog, max_mem_backlog, urgency_window) = pf_gate_limits(&self.cfg.machine);
        loop {
            if self.pf_queue.is_empty() {
                return;
            }
            if self.l1l2_bus.backlog(now) > max_backlog
                || self.l2mem_bus.backlog(now) > max_mem_backlog
            {
                return;
            }
            // Slack scheduling (§5.2.2): while the bus is doing anything at
            // all, hold back prefetches whose deadline is still far out;
            // they will go out in a genuinely idle window instead of
            // queueing in front of near-future demand.
            if self.cfg.slack_prefetch {
                let head_deadline = self
                    .pf_queue
                    .peek()
                    .and_then(|r| geom_deadline(&self.pending_pf, geom, r));
                let urgent = match head_deadline {
                    Some(d) => d.since(now) <= urgency_window,
                    None => true, // unknown deadline: treat as urgent
                };
                if !urgent && (self.l1l2_bus.backlog(now) > 0 || self.l2mem_bus.backlog(now) > 0) {
                    return;
                }
            }
            if self.prefetch_mshrs.next_free(now).is_some() {
                return; // file full
            }
            let Some(req) = self.pf_queue.pop() else {
                return;
            };
            let set = geom.index_of_line(req.line);
            // Stale request (superseded or resolved)?
            let valid = self.pending_pf[set as usize]
                .map(|p| p.line == req.line && p.state == PfState::Queued)
                .unwrap_or(false);
            if !valid {
                continue;
            }
            let addr = geom.addr_of_line(req.line);
            let arrive = self.fetch_from_l2(addr, now, false);
            self.prefetch_mshrs.allocate(req.line, arrive);
            self.inflight_pf
                .push(Reverse((arrive.get(), req.line.get(), set)));
            let deadline = self.pending_pf[set as usize].and_then(|p| p.deadline);
            self.pending_pf[set as usize] = Some(PendingPf {
                line: req.line,
                state: PfState::Issued(arrive),
                deadline,
            });
            self.stats.pf_issued += 1;
            self.trace_pf(TraceKind::PfFire, req.line, now, arrive.get());
        }
    }

    /// Arrival stage: fills prefetches whose data has arrived by `now`.
    /// Each accepted arrival is an Evict/Fill event pair with
    /// `demand: false`; arrivals that would displace a likely-live
    /// resident (§5.1) are dropped instead.
    fn stage_prefetch_arrival(&mut self, now: Cycle) {
        let geom = *self.l1d.geometry();
        while let Some(&Reverse((arrive, line_raw, set))) = self.inflight_pf.peek() {
            if arrive > now.get() {
                break;
            }
            self.inflight_pf.pop();
            let line = LineAddr::new(line_raw);
            let at = Cycle::new(arrive);
            self.prefetch_mshrs.remove(line);
            // Superseded by a demand fetch (tag already present) or pending
            // state cleared: nothing to fill.
            let addr = geom.addr_of_line(line);
            if self.l1d.peek(addr).is_some() {
                continue;
            }
            // §5.1: "prefetches that arrive into the cache before the
            // resident block is dead will induce extra cache misses."
            // The arrival consults the paper's own live-time dead-block
            // prediction: the resident is presumed dead once its
            // generation age exceeds twice its previous live time; an
            // earlier arrival is dropped rather than displacing a
            // likely-live block. (Single-use blocks — previous live time
            // zero — are dead the moment they are filled.)
            let set0 = geom.index_of_line(line) as usize;
            // The frame the fill will actually use (LRU way for
            // associative L1s).
            let (target_frame, _) = self.l1d.peek_victim(addr);
            if let (Some(resident), Some(start)) = (
                self.obs.gens.plane.resident(target_frame),
                self.obs.gens.plane.generation_start(target_frame),
            ) {
                let prev_lt = self
                    .obs
                    .gens
                    .plane
                    .line_meta(resident)
                    .filter(|h| h.completed)
                    .map(|h| h.last_live_time)
                    .unwrap_or(0);
                let dead_point = 2 * prev_lt;
                if at.since(start) < dead_point {
                    self.stats.pf_dropped_live += 1;
                    self.trace_pf(TraceKind::PfDiscard, line, at, 1);
                    if self.pending_pf[set0]
                        .map(|p| p.line == line)
                        .unwrap_or(false)
                    {
                        self.pending_pf[set0] = None;
                    }
                    continue;
                }
            }
            let still_pending = self.pending_pf[set as usize]
                .map(|p| p.line == line && matches!(p.state, PfState::Issued(_)))
                .unwrap_or(false);
            {
                let (victim_frame, resident) = self.l1d.peek_victim(addr);
                if resident.is_some() {
                    self.writeback_if_dirty(victim_frame, at);
                }
            }
            if self.checker.is_some() {
                self.obs.oracle.evt = TapEvent::default();
            }
            let (frame, evicted) = self.l1d.fill(addr);
            if let Some(ev) = evicted {
                self.evict_event(frame, ev, at, EvictCause::Prefetch, None);
            }
            if self.checker.is_some() {
                let (closed, admitted) =
                    (self.obs.oracle.evt.closed, self.obs.oracle.evt.vc_admitted);
                let mut chk = self.checker.take().expect("checked above");
                chk.check_prefetch_fill(&self.l1d, line, evicted, closed, admitted);
                self.checker = Some(chk);
            }
            self.stats.pf_fills += 1;
            self.trace_pf(TraceKind::PfArrival, line, at, frame as u64);
            // A prefetch fill is a generation start, and trains the
            // prefetcher exactly like a demand fill (enabling chained
            // prefetches), but carries no referencing PC.
            self.fill_event(frame, line, None, false, evicted, at);
            if still_pending {
                let deadline = self.pending_pf[set as usize].and_then(|p| p.deadline);
                self.pending_pf[set as usize] = Some(PendingPf {
                    line,
                    deadline,
                    state: PfState::Arrived {
                        displaced: evicted,
                        displaced_missed: false,
                    },
                });
            }
        }
        // Early detection: a demand miss to a displaced line is recorded in
        // `resolve_pending_on_miss`; nothing to do here.
    }

    // -- event-log API ------------------------------------------------------

    /// Starts recording the pipeline event stream (for tests and
    /// debugging). Clears any previously recorded events.
    pub fn record_events(&mut self) {
        self.event_log = Some(Vec::new());
    }

    /// Takes the recorded event stream, leaving recording enabled.
    ///
    /// # Panics
    ///
    /// Panics if [`record_events`](Self::record_events) was never called.
    pub fn take_events(&mut self) -> Vec<PipelineEvent> {
        let log = self
            .event_log
            .as_mut()
            .expect("call record_events() before take_events()");
        std::mem::take(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchMode, SystemConfig};
    use timekeeping::{Addr, StrideConfig};

    fn mref(addr: u64) -> MemRef {
        MemRef::new(Addr::new(addr), Pc::new(0x1000 + addr % 97))
    }

    fn line_of(sys: &MemorySystem, addr: u64) -> LineAddr {
        sys.config().machine.l1d.line_of(Addr::new(addr))
    }

    /// A demand miss to an empty set emits exactly Miss then Fill.
    #[test]
    fn cold_miss_emits_miss_then_demand_fill() {
        let mut sys = MemorySystem::new(SystemConfig::base());
        sys.record_events();
        sys.access(&mref(0x1000), false, Cycle::new(0));
        let a = line_of(&sys, 0x1000);
        let events = sys.take_events();
        assert_eq!(events.len(), 2, "unexpected stream: {events:?}");
        assert_eq!(
            events[0],
            PipelineEvent::Miss {
                line: a,
                kind: MissKind::Cold
            }
        );
        assert!(
            matches!(events[1], PipelineEvent::Fill { line, demand: true, .. } if line == a),
            "unexpected stream: {events:?}"
        );
    }

    /// A conflict miss closes the displaced generation *before* the new
    /// fill, and names the evicted line correctly.
    #[test]
    fn conflict_miss_emits_evict_before_fill_with_victim_identity() {
        let mut sys = MemorySystem::new(SystemConfig::base());
        sys.access(&mref(0x1000), false, Cycle::new(0));
        let a = line_of(&sys, 0x1000);
        // Same set, different tag: one L1 size (32 KB) away in a
        // direct-mapped cache.
        let conflicting = 0x1000 + 32 * 1024;
        sys.record_events();
        sys.access(&mref(conflicting), false, Cycle::new(100));
        let b = line_of(&sys, conflicting);
        let events = sys.take_events();
        assert_eq!(events.len(), 3, "unexpected stream: {events:?}");
        assert!(matches!(events[0], PipelineEvent::Miss { line, .. } if line == b));
        let PipelineEvent::Evict { line, frame, cause } = events[1] else {
            panic!("expected Evict second, got {events:?}");
        };
        assert_eq!(line, a, "evicted-line identity");
        assert_eq!(cause, EvictCause::Demand);
        let PipelineEvent::Fill {
            line: fline,
            frame: fframe,
            demand,
        } = events[2]
        else {
            panic!("expected Fill last, got {events:?}");
        };
        assert_eq!(fline, b);
        assert_eq!(fframe, frame, "fill lands in the vacated frame");
        assert!(demand);
    }

    /// A hit emits exactly one Hit event naming the resident frame.
    #[test]
    fn hit_emits_single_hit_event() {
        let mut sys = MemorySystem::new(SystemConfig::base());
        sys.access(&mref(0x1000), false, Cycle::new(0));
        sys.record_events();
        sys.access(&mref(0x1000), false, Cycle::new(50));
        let a = line_of(&sys, 0x1000);
        let events = sys.take_events();
        assert_eq!(events.len(), 1, "unexpected stream: {events:?}");
        assert!(matches!(events[0], PipelineEvent::Hit { line, .. } if line == a));
    }

    /// A decay refetch is a Flush-cause Evict (at the switch-off point)
    /// followed by a demand Fill of the same line — with no Miss event,
    /// because decay misses are invisible to the program-level model.
    #[test]
    fn decay_refetch_emits_flush_evict_then_refill() {
        let mut sys = MemorySystem::new(SystemConfig::with_decay(8_192));
        sys.access(&mref(0x1000), false, Cycle::new(0));
        let a = line_of(&sys, 0x1000);
        sys.record_events();
        sys.access(&mref(0x1000), false, Cycle::new(50_000));
        let events = sys.take_events();
        assert_eq!(events.len(), 2, "unexpected stream: {events:?}");
        assert!(
            matches!(events[0], PipelineEvent::Evict { line, cause: EvictCause::Flush, .. } if line == a),
            "decay must close the generation with Flush cause: {events:?}"
        );
        assert!(
            matches!(events[1], PipelineEvent::Fill { line, demand: true, .. } if line == a),
            "decay must refill the same line: {events:?}"
        );
        assert_eq!(sys.stats().decay_misses, 1);
    }

    /// A prefetch arrival appears in the stream as a non-demand Fill
    /// (with a Prefetch-cause Evict first when it displaces a line).
    #[test]
    fn prefetch_arrival_emits_non_demand_fill() {
        let mut sys = MemorySystem::new(SystemConfig::with_prefetch(PrefetchMode::Stride(
            StrideConfig::CLASSIC,
        )));
        sys.record_events();
        let mut now = 0u64;
        // A steady one-line stride from a single PC trains the table and
        // triggers prefetches; generous spacing lets them arrive.
        for i in 0..32u64 {
            sys.advance(Cycle::new(now));
            let r = MemRef::new(Addr::new(0x4_0000 + i * 32), Pc::new(0x42));
            sys.access(&r, false, Cycle::new(now));
            now += 400;
        }
        sys.advance(Cycle::new(now));
        assert!(sys.stats().pf_fills > 0, "stride prefetches never landed");
        let events = sys.take_events();
        let pf_fills: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, PipelineEvent::Fill { demand: false, .. }))
            .collect();
        assert_eq!(
            pf_fills.len() as u64,
            sys.stats().pf_fills,
            "every prefetch fill must be announced as a non-demand Fill"
        );
        // Prefetched lines are ahead of the demand stream: each
        // prefetch-filled line must not have been demand-missed before.
        for e in &events {
            if let PipelineEvent::Fill {
                line,
                demand: false,
                ..
            } = e
            {
                let demanded_before = events
                    .iter()
                    .take_while(|x| **x != *e)
                    .any(|x| matches!(x, PipelineEvent::Miss { line: m, .. } if m == line));
                assert!(!demanded_before, "prefetch fill for an already-missed line");
            }
        }
    }

    /// The observer scratchpad hands the closed generation to the
    /// victim filter: a swap-free eviction with a victim cache
    /// configured publishes an admission decision.
    #[test]
    fn evict_event_reaches_victim_admission() {
        let mut sys = MemorySystem::new(SystemConfig::with_victim(
            crate::config::VictimMode::Unfiltered,
        ));
        sys.access(&mref(0x1000), false, Cycle::new(0));
        sys.access(&mref(0x1000 + 32 * 1024), false, Cycle::new(100));
        let stats = sys.victim_stats().expect("victim configured");
        assert_eq!(stats.offered, 1, "eviction must be offered to the VC");
        assert_eq!(stats.admitted, 1, "unfiltered VC admits everything");
    }
}
