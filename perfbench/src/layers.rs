//! Per-layer measurement for the traced run.
//!
//! Each layer is timed by calling its own public function from here,
//! inside a span. Where one layer's function nests inside another's
//! (the hierarchy inside `OooCore::run`, the mechanisms inside the
//! hierarchy), the inner function is driven directly with the same
//! job's inputs and the outer layer's self time is the difference:
//!
//! * `workloads`: `Workload::next_instr` into a buffer;
//! * `core`: `OooCore::run` over that buffer, minus the hierarchy
//!   replay of the references it issued;
//! * `hierarchy`: `MemorySystem::advance`/`access` replaying the
//!   captured references at their issue cycles (base machine);
//! * `observers`: the same replay under each mechanism, minus base;
//! * `dram`: `BankedDram::issue`/`write` replaying a job's `dram`
//!   trace records, each row outcome compared with the recorded one;
//! * `multicore`: `MultiCoreSystem::run` over pre-generated streams;
//! * `ckpt`/`sample`: `obtain_keyed`, `run_shard`, `assemble_shards`,
//!   the engine's own sweep plan replayed serially.

use std::collections::HashMap;
use std::sync::Arc;

use timekeeping::{Addr, CorrelationConfig, Cycle, DbcpConfig, LineAddr, Pc};
use tk_bench::engine::{self, Job};
use tk_bench::WorkloadId;
use tk_sim::obs::TraceCategories;
use tk_sim::{
    BankedDram, BankedDramConfig, CoreStats, HierarchyStats, Instr, MemBackend, MemBackendConfig,
    MemRef, MemorySystem, MultiCoreSystem, OooCore, PrefetchMode, RunResult, SimSystem,
    SystemConfig, TraceCategory, TraceKind, TraceRecord, VictimMode, Workload,
};

use crate::batch::{self, digest, Kind};
use crate::spans::Tracer;

/// Instructions per stream for the core, hierarchy, observer and DRAM
/// drives: the `figure_suite` job budget, or the job budget when smaller.
pub fn layer_budget(kind: Kind) -> u64 {
    batch::FIGURE_BUDGET.min(kind.budget())
}
/// Timed rounds per drive; each reported time is the median.
const ROUNDS: usize = 7;

/// A pre-generated instruction stream replayed as a workload, so timed
/// layers never pay for stream generation.
struct Replay {
    buf: Arc<[Instr]>,
    at: usize,
    name: String,
}

impl Replay {
    fn new(buf: &Arc<[Instr]>, name: &str) -> Self {
        Replay {
            buf: Arc::clone(buf),
            at: 0,
            name: name.to_owned(),
        }
    }
}

impl Workload for Replay {
    fn next_instr(&mut self) -> Instr {
        let i = self.buf[self.at % self.buf.len()];
        self.at += 1;
        i
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Generates `n` instructions of `w` into a buffer.
fn generate(w: &mut dyn Workload, n: u64) -> Arc<[Instr]> {
    (0..n).map(|_| w.next_instr()).collect()
}

/// The median of `v` (sorts it in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it
/// (nearest rank), as `(value, percentile)`; the median when there are
/// fewer than twenty samples.
pub fn tail(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n - rank >= 10 {
            return (v[rank.max(1) - 1], p);
        }
    }
    (median(v), 50.0)
}

/// One metric line: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a stream source is: a synthetic program or a multi-core mix
/// run as one interleaved stream (how the mixes run at one core).
#[derive(Debug, Clone, Copy)]
pub enum Source {
    Spec(WorkloadId),
    Mix(usize),
}

impl Source {
    fn build(self, seed: u64) -> Box<dyn Workload> {
        match self {
            Source::Spec(id) => Box::new(id.build(seed)),
            Source::Mix(i) => Box::new(batch::mixes(seed).swap_remove(i)),
        }
    }
}

/// The streams the single-core layer drives use: four synthetic
/// programs spread over the suite, or the three mixes at one core.
pub fn layer_sources(kind: Kind) -> Vec<Source> {
    match kind {
        Kind::CoherentMix => (0..3).map(Source::Mix).collect(),
        _ => tk_workloads::SpecBenchmark::ALL
            .iter()
            .step_by(7)
            .map(|&b| Source::Spec(WorkloadId::Spec(b)))
            .collect(),
    }
}

fn single_core(mem: MemBackendConfig) -> tk_sim::SystemConfigBuilder {
    SystemConfig::builder().memory(mem).no_sample().cores(1)
}

/// The base machine and the five mechanisms whose access-path cost is
/// measured over it: `(span name, per-access metric, config)`.
fn mechanisms() -> Vec<(&'static str, &'static str, SystemConfig)> {
    let b = || single_core(MemBackendConfig::Fixed);
    let built = |b: tk_sim::SystemConfigBuilder| b.build().expect("mechanism configs are valid");
    vec![
        (
            "tk_sim::MemorySystem::access",
            "hierarchy.ns_per_access",
            built(b()),
        ),
        (
            "observers::victim_deadtime::access",
            "observers.victim_deadtime.ns_per_access",
            built(b().victim(VictimMode::paper_dead_time())),
        ),
        (
            "observers::victim_collins::access",
            "observers.victim_collins.ns_per_access",
            built(b().victim(VictimMode::Collins)),
        ),
        (
            "observers::tk_prefetch::access",
            "observers.tk_prefetch.ns_per_access",
            built(b().prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB))),
        ),
        (
            "observers::dbcp::access",
            "observers.dbcp.ns_per_access",
            built(b().prefetch(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB))),
        ),
        (
            "observers::decay::access",
            "observers.decay.ns_per_access",
            built(b().decay(8_192)),
        ),
    ]
}

/// A job's reference stream as the core issued it, plus its DRAM
/// records and end-of-run statistics.
struct Capture {
    refs: Vec<(MemRef, bool, u64)>,
    dram: Vec<TraceRecord>,
    core: CoreStats,
    hier: HierarchyStats,
}

/// Runs the core once with an in-memory trace of the reference stream
/// and DRAM events (the trace observer cannot change results).
fn capture(cfg: SystemConfig, buf: &Arc<[Instr]>) -> Capture {
    let mut mem = MemorySystem::new(cfg);
    mem.install_trace(
        TraceCategories::none()
            .with(TraceCategory::Ref)
            .with(TraceCategory::Dram),
        1,
    );
    let core = OooCore::new(&cfg).run(&mut Replay::new(buf, "capture"), &mut mem, buf.len() as u64);
    let hier = mem.stats();
    let geom = cfg.machine.l1d;
    let recs = mem.trace_records().expect("in-memory trace installed");
    let refs = recs
        .iter()
        .filter(|r| r.kind == TraceKind::Access)
        .map(|r| {
            let m = MemRef::new(
                geom.addr_of_line(LineAddr::new(r.line)),
                Pc::new(r.aux >> 1),
            );
            (m, r.aux & 1 == 1, r.cycle)
        })
        .collect();
    let dram = recs
        .iter()
        .filter(|r| matches!(r.kind, TraceKind::DramRead | TraceKind::DramWrite))
        .copied()
        .collect();
    Capture {
        refs,
        dram,
        core,
        hier,
    }
}

/// Replays captured references into a fresh memory system at their
/// issue cycles and finishes it at the run's last cycle.
fn replay_hierarchy(mut mem: MemorySystem, cap: &Capture) -> MemorySystem {
    for &(m, store, c) in &cap.refs {
        let now = Cycle::new(c);
        mem.advance(now);
        mem.access(&m, store, now);
    }
    let end = Cycle::new(cap.core.cycles);
    mem.advance(end);
    mem.finish(end);
    mem
}

/// Everything the traced run reports per layer, plus method notes and
/// check outcomes.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// Layers measured on a probe because the workload does not run them.
    pub probes: Vec<&'static str>,
    /// Facts about how numbers were obtained (e.g. tail percentiles).
    pub notes: Vec<(String, String)>,
    /// Run-level check failures (not attributable to a batch job).
    pub problems: Vec<String>,
}

/// Generation, core, hierarchy and observer drives over the workload's
/// layer sources, under the base machine's reference stream.
pub fn drive_single_core(kind: Kind, seed: u64, tr: &mut Tracer, out: &mut LayerReport) {
    let n = layer_budget(kind);
    let mechs = mechanisms();
    let base_cfg = mechs[0].2;
    let (mut gen_s, mut run_s, mut instrs) = (0.0, 0.0, 0u64);
    let mut replay_s = vec![0.0; mechs.len()];
    let (mut accesses, mut cycles) = (0u64, 0u64);
    // L1 accesses, L1 hits, L2 accesses, L2 hits.
    let mut hier = [0u64; 4];
    let mut exact = true;
    let (mut vc_offered, mut vc_admitted) = (0u64, 0u64);
    let (mut pf_pred, mut pf_correct, mut corr_lookups, mut corr_hits) = (0u64, 0u64, 0u64, 0u64);
    for (job, src) in layer_sources(kind).into_iter().enumerate() {
        let job = Some(job as u64);
        let (buf, s) = tr.span("workloads::next_instr", job, |_| {
            generate(&mut *src.build(seed), n)
        });
        gen_s += s;
        instrs += n;
        let (cap, _) = tr.span("capture", job, |_| capture(base_cfg, &buf));
        accesses += cap.refs.len() as u64;
        cycles += cap.core.cycles;
        let h = cap.hier;
        for (acc, v) in hier
            .iter_mut()
            .zip([h.l1_accesses, h.l1_hits, h.l2_accesses, h.l2_hits])
        {
            *acc += v;
        }
        let mut runs = Vec::new();
        let mut reps: Vec<Vec<f64>> = vec![Vec::new(); mechs.len()];
        // Machines are built before and dropped after their spans, so
        // only the driven function is timed.
        for round in 0..ROUNDS {
            let mut mem = MemorySystem::new(base_cfg);
            let mut core = OooCore::new(&base_cfg);
            let (stats, s) = tr.span("tk_sim::OooCore::run", job, |_| {
                core.run(&mut Replay::new(&buf, "replay"), &mut mem, n)
            });
            exact &= stats == cap.core;
            runs.push(s);
            for (m, &(span, metric, cfg)) in mechs.iter().enumerate() {
                let mem = MemorySystem::new(cfg);
                let (mem, s) = tr.span(span, job, |_| replay_hierarchy(mem, &cap));
                reps[m].push(s);
                if round > 0 {
                    continue;
                }
                match metric {
                    "hierarchy.ns_per_access" => exact &= mem.stats() == cap.hier,
                    "observers.victim_deadtime.ns_per_access" => {
                        let v = mem.victim_stats().expect("victim cache configured");
                        vc_offered += v.offered;
                        vc_admitted += v.admitted;
                    }
                    "observers.tk_prefetch.ns_per_access" => {
                        pf_pred += mem.stats().addr_predictions;
                        pf_correct += mem.stats().addr_correct;
                        let c = mem
                            .correlation_stats()
                            .expect("timekeeping prefetcher configured");
                        corr_lookups += c.lookups;
                        corr_hits += c.hits;
                    }
                    _ => {}
                }
            }
        }
        run_s += median(&mut runs);
        for (m, r) in reps.iter_mut().enumerate() {
            replay_s[m] += median(r);
        }
    }
    let acc = accesses.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.metrics.extend([
        (
            "workloads.gen_ns_per_instr",
            gen_s * 1e9 / instrs as f64,
            "ns",
        ),
        (
            "core.ns_per_instr",
            (run_s - replay_s[0]) * 1e9 / instrs as f64,
            "ns",
        ),
        ("core.cycles", cycles as f64, "count"),
        ("core.ipc", ratio(instrs, cycles), "ratio"),
        ("hierarchy.ns_per_access", replay_s[0] * 1e9 / acc, "ns"),
        ("hierarchy.accesses", accesses as f64, "count"),
        (
            "hierarchy.l1_miss_rate",
            ratio(hier[0] - hier[1], hier[0]),
            "ratio",
        ),
        (
            "hierarchy.l2_miss_rate",
            ratio(hier[2] - hier[3], hier[2]),
            "ratio",
        ),
    ]);
    for (m, &(_, metric, _)) in mechs.iter().enumerate().skip(1) {
        out.metrics
            .push((metric, (replay_s[m] - replay_s[0]) * 1e9 / acc, "ns"));
    }
    out.metrics.extend([
        (
            "observers.tk_prefetch.accuracy",
            ratio(pf_correct, pf_pred),
            "ratio",
        ),
        (
            "observers.tk_prefetch.coverage",
            ratio(corr_hits, corr_lookups),
            "ratio",
        ),
        (
            "observers.victim_deadtime.admit_ratio",
            ratio(vc_admitted, vc_offered),
            "ratio",
        ),
    ]);
    // The core and observer figures subtract the base replay, so they
    // hold only while the replay reproduces the run.
    if !exact {
        out.problems
            .push("hierarchy replay does not reproduce the core run's statistics".to_owned());
    }
    out.notes
        .push(("hierarchy_replay_exact".to_owned(), exact.to_string()));
}

/// Replays each layer source's DRAM trace records (DDR2 base machine)
/// into a fresh `BankedDram`, requiring every row outcome to match.
pub fn drive_dram(kind: Kind, seed: u64, tr: &mut Tracer, out: &mut LayerReport) {
    if kind == Kind::CoherentMix {
        // The multi-core figures run fixed-latency memory only.
        out.probes.push("dram");
    }
    let n = layer_budget(kind);
    let dcfg = BankedDramConfig::DDR2;
    let cfg = single_core(MemBackendConfig::Banked(dcfg))
        .build()
        .expect("DDR2 config is valid");
    let geom = cfg.machine.l1d;
    let (mut secs, mut requests, mut hits) = (0.0, 0u64, 0u64);
    for (i, src) in layer_sources(kind).into_iter().enumerate() {
        let job = Some(i as u64);
        let (cap, _) = tr.span("capture", job, |_| {
            capture(cfg, &generate(&mut *src.build(seed), n))
        });
        let mut rounds = Vec::new();
        for _ in 0..ROUNDS {
            let mut dram = BankedDram::new(dcfg);
            let (mismatches, s) = tr.span("tk_sim::BankedDram::issue", job, |_| {
                let mut mismatches = 0u64;
                for r in &cap.dram {
                    let addr: Addr = geom.addr_of_line(LineAddr::new(r.line));
                    let now = Cycle::new(r.cycle);
                    let row = match r.kind {
                        TraceKind::DramRead => dram.issue(addr, now).row,
                        _ => dram.write(addr, now),
                    };
                    if row.map(|o| o.code()) != Some(r.aux) {
                        mismatches += 1;
                    }
                }
                mismatches
            });
            rounds.push(s);
            if mismatches > 0 {
                out.problems.push(format!(
                    "DRAM replay of layer stream {i} disagrees on {mismatches} row outcomes"
                ));
            }
        }
        secs += median(&mut rounds);
        requests += cap.dram.len() as u64;
        hits += cap.dram.iter().filter(|r| r.aux == 0).count() as u64;
    }
    out.metrics.extend([
        (
            "dram.ns_per_request",
            secs * 1e9 / requests.max(1) as f64,
            "ns",
        ),
        ("dram.requests", requests as f64, "count"),
        (
            "dram.row_hit_rate",
            hits as f64 / requests.max(1) as f64,
            "ratio",
        ),
    ]);
}

/// Drives `MultiCoreSystem::run` over pre-generated per-core streams of
/// the mixes at 2 and 4 cores, and the single-core path at 1 core.
pub fn drive_multicore(kind: Kind, seed: u64, tr: &mut Tracer, out: &mut LayerReport) {
    let mixes = if kind == Kind::CoherentMix {
        0..3
    } else {
        out.probes.push("multicore");
        0..1
    };
    let b = batch::MIX_BUDGET;
    let (mut t1, mut t4, mut tn, mut instr_n) = (0.0, 0.0, 0.0, 0u64);
    let (mut tx, mut c2c, mut inval, mut deaths) = (0u64, 0u64, 0u64, 0u64);
    for mix in mixes {
        let job = Some(mix as u64);
        for &cores in &batch::MIX_CORES {
            let cfg = batch::mix_cfg(cores, false, false);
            let mut m = batch::mixes(seed).swap_remove(mix);
            let name = m.name().to_owned();
            if cores == 1 {
                let buf = generate(&mut m, b);
                let mut sys = SimSystem::new(cfg);
                let (_, s) = tr.span("tk_sim::SimSystem::run", job, |_| {
                    sys.run(&mut Replay::new(&buf, &name), b)
                });
                t1 += s;
                continue;
            }
            let bufs: Vec<Arc<[Instr]>> = m
                .per_core_streams(cores)
                .expect("spec mixes fork")
                .into_iter()
                .map(|mut w| generate(&mut *w, b))
                .collect();
            let mut streams: Vec<Box<dyn Workload>> = bufs
                .iter()
                .map(|x| Box::new(Replay::new(x, &name)) as Box<dyn Workload>)
                .collect();
            let mut sys = MultiCoreSystem::new(cfg);
            let (core, s) = tr.span("tk_sim::MultiCoreSystem::run", job, |_| {
                sys.run(&mut streams, b)
            });
            let c = sys
                .into_result(&name, core)
                .coherence
                .expect("multi-core runs report coherence");
            tx += c.transactions();
            c2c += c.c2c_transfers;
            inval += c.inval_deaths;
            deaths += c.evict_deaths + c.inval_deaths;
            tn += s;
            instr_n += u64::from(cores) * b;
            if cores == 4 {
                t4 += s;
            }
        }
    }
    out.metrics.extend([
        ("multicore.ns_per_instr", tn * 1e9 / instr_n as f64, "ns"),
        ("multicore.transactions", tx as f64, "count"),
        (
            "multicore.c2c_ratio",
            c2c as f64 / tx.max(1) as f64,
            "ratio",
        ),
        (
            "multicore.inval_death_fraction",
            inval as f64 / deaths.max(1) as f64,
            "ratio",
        ),
        ("multicore.vs_single_core_ratio", (t4 / 4.0) / t1, "ratio"),
    ]);
}

/// Per-job host times measured outside the batch, for the engine
/// metrics.
#[derive(Debug, Default)]
pub struct JobTimes {
    /// Per job, seconds.
    pub job_s: Vec<f64>,
    /// Every unit of work the workers would do (on `design_sweep`:
    /// builds, shards and assemblies), seconds; the sum of `job_s` when
    /// `None`.
    pub busy_s: Option<f64>,
}

/// What the sampled-path drive measured and found.
#[derive(Debug, Default)]
pub struct SampleDrive {
    /// Per job: its shards plus its assembly; busy: builds, shards and
    /// assemblies.
    pub times: JobTimes,
    /// `(job index, problem)` for jobs whose sharded replay differed.
    pub failures: Vec<(usize, String)>,
}

/// Replays the engine's sweep plan serially: one `obtain_keyed` per
/// distinct functional fingerprint (cold in-memory store), then every
/// job's shards through `run_shard` and `assemble_shards`. On
/// `design_sweep` each assembled result must equal the batch's.
pub fn drive_sample(
    kind: Kind,
    seed: u64,
    batch: &batch::Batch,
    tr: &mut Tracer,
    out: &mut LayerReport,
) -> SampleDrive {
    let (jobs, results): (Vec<Job>, Option<&[Arc<RunResult>]>) = if kind == Kind::DesignSweep {
        (batch.jobs.clone(), Some(&batch.results))
    } else {
        out.probes.push("ckpt");
        out.probes.push("sample");
        let first = tk_workloads::SpecBenchmark::ALL[0];
        let jobs = batch::sweep_cfgs(Some(batch::SWEEP_SAMPLE))
            .into_iter()
            .map(|cfg| Job::new(first, cfg, seed, batch::SWEEP_BUDGET))
            .collect();
        (jobs, None)
    };
    tk_sim::reset_checkpoint_store();
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut probes: HashMap<WorkloadId, Option<u64>> = HashMap::new();
    let mut fallback = 0u64;
    for (i, j) in jobs.iter().enumerate() {
        let probe = *probes
            .entry(j.bench)
            .or_insert_with(|| tk_sim::stream_probe(&j.bench.build(j.seed)));
        let fp =
            probe.and_then(|p| tk_sim::job_fingerprint(p, &j.bench.name(), &j.cfg, j.instructions));
        let Some(fp) = fp else {
            fallback += 1;
            continue;
        };
        let g = *group_of.entry(fp.clone()).or_insert_with(|| {
            groups.push((fp, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }
    let mut job_s = vec![0.0; jobs.len()];
    let mut failures = Vec::new();
    let (mut build_s, mut assemble_s) = (0.0, 0.0);
    let mut shard_s = Vec::new();
    let (mut timed, mut budget) = (0u64, 0u64);
    for (fp, members) in &groups {
        let ex = jobs[members[0]];
        let (ckpt, s) = tr.span("tk_sim::obtain_keyed", Some(members[0] as u64), |_| {
            tk_sim::obtain_keyed(&ex.bench.build(ex.seed), &ex.cfg, ex.instructions, fp)
        });
        build_s += s;
        let Some(ckpt) = ckpt else {
            fallback += members.len() as u64;
            continue;
        };
        for &j in members {
            let job = Some(j as u64);
            let mut rs = Vec::with_capacity(ckpt.shard_count());
            for shard in 0..ckpt.shard_count() {
                let (r, s) = tr.span("tk_sim::run_shard", job, |_| {
                    tk_sim::run_shard(&ckpt, jobs[j].cfg, shard, false)
                });
                rs.push(r);
                shard_s.push(s);
                job_s[j] += s;
            }
            let (r, s) = tr.span("tk_sim::assemble_shards", job, |_| {
                tk_sim::assemble_shards(&ckpt, &rs)
            });
            assemble_s += s;
            job_s[j] += s;
            match r.sampled {
                Some(st) => timed += st.timed_instructions,
                None => fallback += 1,
            }
            budget += jobs[j].instructions;
            if results.is_some_and(|res| digest(&res[j]) != digest(&r)) {
                failures.push((j, "sharded replay differs from the batch result".to_owned()));
            }
        }
    }
    let busy_s = build_s + assemble_s + shard_s.iter().sum::<f64>();
    let ckpt = if kind == Kind::DesignSweep {
        batch.ckpt
    } else {
        tk_sim::checkpoint_stats()
    };
    let shards = shard_s.len() as f64;
    let p50 = median(&mut shard_s.clone());
    let (tail_s, tail_p) = tail(&mut shard_s);
    out.notes.push((
        "sample.shard_s_tail_percentile".to_owned(),
        tail_p.to_string(),
    ));
    out.metrics.extend([
        ("ckpt.build_s", build_s, "s"),
        ("ckpt.builds", ckpt.builds as f64, "count"),
        ("ckpt.mem_hits", ckpt.mem_hits as f64, "count"),
        ("sample.shard_s_p50", p50, "s"),
        ("sample.shard_s_tail", tail_s, "s"),
        ("sample.shards", shards, "count"),
        ("sample.assemble_s", assemble_s, "s"),
        ("sample.fallback_jobs", fallback as f64, "count"),
        (
            "sample.timed_fraction",
            timed as f64 / budget.max(1) as f64,
            "ratio",
        ),
    ]);
    SampleDrive {
        times: JobTimes {
            job_s,
            busy_s: Some(busy_s),
        },
        failures,
    }
}

/// Geomean of nonnegative errors via `exp(mean(ln(1+e))) - 1` (the
/// `sample_calibrate` definition, which tolerates exact zeros).
fn geomean_err(errs: &[f64]) -> f64 {
    if errs.is_empty() {
        return 0.0;
    }
    let s: f64 = errs.iter().map(|e| (1.0 + e).ln()).sum();
    (s / errs.len() as f64).exp() - 1.0
}

/// Sampled-vs-full error of the fixed+none jobs: full-detail runs of the
/// same streams, after the timed window.
pub fn drive_sample_error(
    kind: Kind,
    seed: u64,
    workers: usize,
    batch: &batch::Batch,
    tr: &mut Tracer,
    out: &mut LayerReport,
) {
    let sampled_cfg = batch::sweep_cfgs(Some(batch::SWEEP_SAMPLE))[0];
    let full_cfg = batch::sweep_cfgs(None)[0];
    let programs: Vec<_> = if kind == Kind::DesignSweep {
        tk_workloads::SpecBenchmark::ALL.to_vec()
    } else {
        tk_workloads::SpecBenchmark::ALL[..1].to_vec()
    };
    let sampled_jobs: Vec<Job> = programs
        .iter()
        .map(|&b| Job::new(b, sampled_cfg, seed, batch::SWEEP_BUDGET))
        .collect();
    let sampled: Vec<Arc<RunResult>> = if kind == Kind::DesignSweep {
        sampled_jobs
            .iter()
            .map(|j| {
                let i = batch
                    .jobs
                    .iter()
                    .position(|b| b == j)
                    .expect("fixed+none job in batch");
                Arc::clone(&batch.results[i])
            })
            .collect()
    } else {
        engine::run_jobs(&sampled_jobs, workers)
    };
    let full_jobs: Vec<Job> = programs
        .iter()
        .map(|&b| Job::new(b, full_cfg, seed, batch::SWEEP_BUDGET))
        .collect();
    let (full, _) = tr.span("engine::run_jobs(full detail)", None, |_| {
        engine::run_jobs(&full_jobs, workers)
    });
    let mut l1 = Vec::new();
    let mut ipc = Vec::new();
    for (s, f) in sampled.iter().zip(&full) {
        l1.push((s.hierarchy.l1_miss_rate() - f.hierarchy.l1_miss_rate()).abs() * 100.0);
        ipc.push(((s.ipc() - f.ipc()) / f.ipc()).abs() * 100.0);
    }
    out.metrics.extend([
        ("sample.l1_err_pp", geomean_err(&l1), "pp"),
        ("sample.ipc_err_pct", geomean_err(&ipc), "%"),
    ]);
}

/// Engine scheduling metrics from the untraced batch and per-job host
/// times. On `figure_suite` every distinct job is re-run alone on a
/// cold memo through `engine::run_jobs`, and must reproduce its batch
/// result.
pub fn drive_engine(
    kind: Kind,
    workers: usize,
    untraced: &batch::Batch,
    checks: &[batch::JobCheck],
    times: JobTimes,
    tr: &mut Tracer,
    out: &mut LayerReport,
) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let JobTimes { mut job_s, busy_s } = times;
    if kind == Kind::FigureSuite {
        for (i, job) in untraced.jobs.iter().enumerate() {
            engine::reset_stats();
            let (r, s) = tr.span("engine::run_jobs", Some(i as u64), |_| {
                engine::run_jobs(&[*job], 1)
            });
            if digest(&r[0]) != checks[i].digest {
                failures.push((i, "re-run alone differs from the batch result".to_owned()));
            }
            job_s.push(s);
        }
        engine::reset_stats();
    }
    let busy = busy_s.unwrap_or_else(|| job_s.iter().sum());
    let (hits, _, sims) = untraced.memo;
    let requested = untraced.requested_jobs;
    let p50 = median(&mut job_s.clone());
    let (tail_s, tail_p) = tail(&mut job_s);
    out.notes.push((
        "engine.job_s_tail_percentile".to_owned(),
        tail_p.to_string(),
    ));
    out.notes
        .push(("engine.job_samples".to_owned(), job_s.len().to_string()));
    let sims = if kind == Kind::CoherentMix {
        requested
    } else {
        sims
    };
    out.metrics.extend([
        ("engine.jobs", requested as f64, "count"),
        ("engine.sims_run", sims as f64, "count"),
        (
            "engine.memo_hit_ratio",
            hits as f64 / requested.max(1) as f64,
            "ratio",
        ),
        (
            "engine.worker_util",
            busy / (workers as f64 * untraced.wall_s),
            "ratio",
        ),
        ("engine.job_s_p50", p50, "s"),
        ("engine.job_s_tail", tail_s, "s"),
    ]);
    failures
}
