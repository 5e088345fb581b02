//! The three closed-loop workloads: per-repetition set-up, the timed
//! batch, and the output checks behind `failed`.
//!
//! Every repetition starts from a cold process state: the engine memo
//! and counters are reset, the in-memory checkpoint store is emptied,
//! both disk tiers are off, and the process-wide defaults (memory
//! backend, sampling, core count) are set explicitly rather than
//! inherited. Every modelled cache starts empty in every job because
//! every job builds its own machine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use timekeeping::snapshot::Snapshot;
use timekeeping::{CorrelationConfig, DbcpConfig};
use tk_bench::engine::{self, Job};
use tk_bench::{figures, FigureOpts, WorkloadId};
use tk_sim::Workload as _;
use tk_sim::{
    BankedDramConfig, CkptStats, MemBackendConfig, PrefetchMode, RunResult, SampleConfig,
    SystemConfig, VictimMode,
};
use tk_workloads::{ConcurrentMix, SpecBenchmark};

use crate::spans::Tracer;

/// Per-job budget of `figure_suite` (every figure at full detail): the
/// `--quick` budget the README and CI run the figures at.
pub const FIGURE_BUDGET: u64 = FigureOpts::QUICK_INSTRUCTIONS;
/// Per-job budget of `design_sweep` (every job sampled).
pub const SWEEP_BUDGET: u64 = 4_000_000;
/// Sampling parameters of `design_sweep`: 400 intervals, 8 clusters.
pub const SWEEP_SAMPLE: SampleConfig = SampleConfig {
    interval: 10_000,
    k: 8,
};
/// Per-core budget of `coherent_mix`. Not the `--quick` budget: at
/// 300,000 per core the process's peak memory jumps with the seed (about
/// 13 MiB for some seeds, 21 MiB for others), so `peak_rss_mib` would
/// spread by half across seeds. At 200,000 it stays near 13 MiB.
pub const MIX_BUDGET: u64 = 200_000;
/// Workload seeds `coherent_mix` runs its figures for per repetition.
/// Its cost depends on the seed's streams far more than the 26-program
/// workloads' does (±20 % between seeds), so one repetition averages
/// two.
pub const MIX_SEEDS: u64 = 2;
/// Core counts the multi-core figures sweep.
pub const MIX_CORES: [u32; 3] = [1, 2, 4];

/// The workload seeds a run of `kind` generates its inputs from:
/// `--seed` itself, or for `coherent_mix` the block
/// `MIX_SEEDS·seed .. MIX_SEEDS·seed + MIX_SEEDS` (disjoint across seeds).
pub fn input_seeds(kind: Kind, seed: u64) -> Vec<u64> {
    match kind {
        Kind::CoherentMix => (0..MIX_SEEDS)
            .map(|i| seed.wrapping_mul(MIX_SEEDS).wrapping_add(i))
            .collect(),
        _ => vec![seed],
    }
}

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FigureSuite,
    DesignSweep,
    CoherentMix,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "figure_suite" => Some(Kind::FigureSuite),
            "design_sweep" => Some(Kind::DesignSweep),
            "coherent_mix" => Some(Kind::CoherentMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::FigureSuite => "figure_suite",
            Kind::DesignSweep => "design_sweep",
            Kind::CoherentMix => "coherent_mix",
        }
    }

    pub fn budget(self) -> u64 {
        match self {
            Kind::FigureSuite => FIGURE_BUDGET,
            Kind::DesignSweep => SWEEP_BUDGET,
            Kind::CoherentMix => MIX_BUDGET,
        }
    }
}

/// 64-bit FNV-1a, folded incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a result's full snapshot.
pub fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.add(r.to_json().render().as_bytes());
    h.0
}

/// Sets every process-global knob explicitly.
fn configure() {
    tk_sim::set_default_mem_backend(MemBackendConfig::Fixed);
    tk_sim::set_default_sample(None);
    tk_sim::set_default_cores(1);
    tk_sim::set_lockstep_check(false);
    tk_sim::set_obs_config(tk_sim::ObsConfig::disabled());
    tk_bench::workload::set_trace_once(false);
    tk_bench::workload::clear_registered_traces();
    engine::set_disk_cache(None);
    engine::record_jobs(false);
    tk_sim::set_checkpoint_dir(None);
    tk_sim::set_checkpoints_enabled(true);
    tk_sim::record_checkpoints(false);
}

/// The figure options every workload passes, with nothing inherited
/// from `FigureOpts::new()`'s process-wide defaults.
pub fn figure_opts(budget: u64, seed: u64, workers: usize) -> FigureOpts {
    FigureOpts {
        instructions: budget,
        seed,
        jobs: workers,
        instructions_explicit: true,
        check: false,
        trace: false,
        profile: false,
        dram: MemBackendConfig::Fixed,
        sample: None,
        cores: 1,
        trace_once: false,
    }
}

/// The programs of the multi-core figures' mixes, in mix order (the
/// `fig22_mp`/`mesi_compare` mix list).
const MIX_MEMBERS: [[SpecBenchmark; 2]; 3] = [
    [SpecBenchmark::Gzip, SpecBenchmark::Swim],
    [SpecBenchmark::Twolf, SpecBenchmark::Art],
    [SpecBenchmark::Mcf, SpecBenchmark::Gzip],
];

/// The multi-core figures' concurrent mixes, built from `seed`.
pub fn mixes(seed: u64) -> Vec<ConcurrentMix> {
    MIX_MEMBERS
        .iter()
        .map(|pair| {
            ConcurrentMix::new(
                pair.iter()
                    .map(|b| Box::new(b.build(seed)) as Box<dyn tk_sim::Workload>)
                    .collect(),
            )
        })
        .collect()
}

/// The multi-core figures' configuration at `cores` cores.
pub fn mix_cfg(cores: u32, victim: bool, tk: bool) -> SystemConfig {
    let mut b = SystemConfig::builder()
        .memory(MemBackendConfig::Fixed)
        .no_sample()
        .cores(cores);
    if victim {
        b = b.victim(VictimMode::paper_dead_time());
    }
    if tk {
        b = b
            .prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB))
            .predict_only();
    }
    b.build().expect("multi-core configs are valid")
}

/// One simulation the multi-core figures run: `(mix, cores, victim, tk)`
/// in the figures' own order (`fig22_mp`: base then victim; then
/// `mesi_compare`: victim then predictor).
pub fn mix_runs() -> Vec<(usize, u32, bool, bool)> {
    let mut out = Vec::new();
    for pair in [
        [(false, false), (true, false)],
        [(true, false), (false, true)],
    ] {
        for mix in 0..MIX_MEMBERS.len() {
            for &cores in &MIX_CORES {
                for (victim, tk) in pair {
                    out.push((mix, cores, victim, tk));
                }
            }
        }
    }
    out
}

/// The nine timing variants of `design_sweep`, fixed+none first:
/// {fixed, DDR2, DDR4} × {none, DBCP, timekeeping prefetch}, sampled
/// with `sample` (`None`: full detail).
pub fn sweep_cfgs(sample: Option<SampleConfig>) -> Vec<SystemConfig> {
    let backends = [
        MemBackendConfig::Fixed,
        MemBackendConfig::Banked(BankedDramConfig::DDR2),
        MemBackendConfig::Banked(BankedDramConfig::DDR4),
    ];
    let prefetchers = [
        PrefetchMode::None,
        PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB),
        PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB),
    ];
    let mut out = Vec::new();
    for mem in backends {
        for pf in prefetchers {
            let b = SystemConfig::builder().memory(mem).prefetch(pf).cores(1);
            let b = match sample {
                Some(sc) => b.sample(sc),
                None => b.no_sample(),
            };
            out.push(b.build().expect("sweep configs are valid"));
        }
    }
    out
}

/// What one repetition's set-up produced.
#[derive(Debug)]
pub struct Setup {
    pub kind: Kind,
    pub workers: usize,
    /// One set of figure options per input seed.
    pub opts: Vec<FigureOpts>,
    /// The submitted batch (`design_sweep` only; the figures build
    /// their own jobs).
    pub jobs: Vec<Job>,
    /// FNV fold of every input stream's 32 Ki-instruction probe: the
    /// inputs the seed generated.
    pub input_digest: u64,
}

/// Resets the process state and generates the repetition's inputs.
pub fn setup(kind: Kind, seed: u64, workers: usize) -> Setup {
    engine::reset_stats();
    tk_sim::reset_checkpoint_store();
    configure();
    let programs: Vec<SpecBenchmark> = match kind {
        Kind::CoherentMix => MIX_MEMBERS.iter().flatten().copied().collect(),
        _ => SpecBenchmark::ALL.to_vec(),
    };
    let seeds = input_seeds(kind, seed);
    let mut inputs = Fnv::new();
    for &s in &seeds {
        for &b in &programs {
            let probe = tk_sim::stream_probe(&WorkloadId::Spec(b).build(s))
                .expect("synthetic workloads fork");
            inputs.add(&probe.to_le_bytes());
        }
    }
    let jobs = match kind {
        Kind::DesignSweep => sweep_cfgs(Some(SWEEP_SAMPLE))
            .into_iter()
            .flat_map(|cfg| {
                SpecBenchmark::ALL
                    .into_iter()
                    .map(move |b| Job::new(b, cfg, seed, SWEEP_BUDGET))
            })
            .collect(),
        _ => Vec::new(),
    };
    if kind == Kind::FigureSuite {
        engine::record_jobs(true);
    }
    Setup {
        kind,
        workers,
        opts: seeds
            .iter()
            .map(|&s| figure_opts(kind.budget(), s, workers))
            .collect(),
        jobs,
        input_digest: inputs.0,
    }
}

/// A figure generator.
pub type FigureFn = fn(FigureOpts) -> String;

fn table1(_: FigureOpts) -> String {
    figures::table1()
}

/// The figures the `report` binary generates, in `report` order.
pub const REPORT_FIGURES: [(&str, FigureFn); 19] = [
    ("table1", table1),
    ("fig01", figures::fig01),
    ("fig02", figures::fig02),
    ("fig04", figures::fig04),
    ("fig05", figures::fig05),
    ("fig07", figures::fig07),
    ("fig08", figures::fig08),
    ("fig09", figures::fig09),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("fig16", figures::fig16),
    ("fig19", figures::fig19),
    ("fig20", figures::fig20),
    ("fig21", figures::fig21),
    ("fig22", figures::fig22),
    ("dram_compare", figures::dram_compare),
];

/// The multi-core figures of `coherent_mix`.
pub const MIX_FIGURES: [(&str, FigureFn); 2] = [
    ("fig22_mp", figures::fig22_mp),
    ("mesi_compare", figures::mesi_compare),
];

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat` (clock-tick resolution).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // After the parenthesised command name, the state letter (field 3)
    // does not parse, so utime and stime (fields 14 and 15, in 1/100 s
    // clock ticks) land at indices 10 and 11.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    match (f.get(10), f.get(11)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// One timed batch and what it returned.
#[derive(Debug)]
pub struct Batch {
    pub wall_s: f64,
    /// Process CPU seconds the batch used (all threads).
    pub cpu_s: f64,
    /// Jobs the batch requested (memo hits included).
    pub requested_jobs: u64,
    /// Simulated instructions requested: budget × cores per job.
    pub requested_instructions: u64,
    /// Engine counters after the batch: `(memo hits, disk hits, sims)`.
    pub memo: (u64, u64, u64),
    pub ckpt: CkptStats,
    /// The distinct engine jobs behind the batch and their results
    /// (empty for `coherent_mix`, whose figures bypass the engine).
    pub jobs: Vec<Job>,
    pub results: Vec<Arc<RunResult>>,
    /// Digest of the rendered figure texts.
    pub text_digest: u64,
}

/// Runs the workload's batch once: first submission to last result.
pub fn run_batch(s: &Setup, tr: &mut Tracer) -> Batch {
    let start = Instant::now();
    let cpu0 = cpu_seconds();
    let mut text = Fnv::new();
    let mut results = Vec::new();
    match s.kind {
        Kind::FigureSuite | Kind::CoherentMix => {
            let figs: &[(&str, FigureFn)] = if s.kind == Kind::FigureSuite {
                &REPORT_FIGURES
            } else {
                &MIX_FIGURES
            };
            for opts in &s.opts {
                for (name, f) in figs {
                    let (t, _) = tr.span(&format!("figures::{name}"), None, |_| f(*opts));
                    text.add(t.as_bytes());
                }
            }
        }
        Kind::DesignSweep => {
            results = tr
                .span("engine::run_jobs", None, |_| {
                    engine::run_jobs(&s.jobs, s.workers)
                })
                .0;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let memo = engine::memo_stats();
    let ckpt = tk_sim::checkpoint_stats();
    let (jobs, results, requested_jobs, requested_instructions) = match s.kind {
        Kind::FigureSuite => {
            // Read the results back from the memo (no simulation runs).
            let jobs = engine::take_recorded_jobs();
            engine::record_jobs(false);
            let results = engine::run_jobs(&jobs, 1);
            assert_eq!(engine::memo_stats().2, memo.2, "read-back hit the memo");
            let requested = memo.0 + memo.1 + memo.2;
            (jobs, results, requested, requested * FIGURE_BUDGET)
        }
        Kind::DesignSweep => {
            let n = s.jobs.len() as u64;
            (s.jobs.clone(), results, n, n * SWEEP_BUDGET)
        }
        Kind::CoherentMix => {
            let runs = mix_runs();
            let n = s.opts.len() as u64;
            let instr: u64 = runs.iter().map(|r| u64::from(r.1) * MIX_BUDGET).sum();
            (Vec::new(), Vec::new(), n * runs.len() as u64, n * instr)
        }
    };
    Batch {
        wall_s,
        cpu_s,
        requested_jobs,
        requested_instructions,
        memo,
        ckpt,
        jobs,
        results,
        text_digest: text.0,
    }
}

/// One checked job: a label, its result digest, and every check it
/// failed.
#[derive(Debug, Clone)]
pub struct JobCheck {
    pub label: String,
    pub digest: u64,
    pub problems: Vec<String>,
}

/// The per-job output checks that need only the job and its result:
/// it retired exactly its budget (× cores), and it is sampled iff it
/// asked to be (no silent fallback to full detail).
pub fn check_result(label: String, cfg: &SystemConfig, budget: u64, r: &RunResult) -> JobCheck {
    let mut problems = Vec::new();
    let want = budget * u64::from(cfg.cores);
    if r.core.instructions != want {
        problems.push(format!(
            "retired {} of {want} instructions",
            r.core.instructions
        ));
    }
    match (cfg.sample.is_some(), r.sampled.is_some()) {
        (true, false) => problems.push("sampled job fell back to full detail".to_owned()),
        (false, true) => problems.push("unsampled job carries a sampled tag".to_owned()),
        _ => {}
    }
    JobCheck {
        label,
        digest: digest(r),
        problems,
    }
}

/// Checks every engine job of a batch.
pub fn check_batch(b: &Batch) -> Vec<JobCheck> {
    b.jobs
        .iter()
        .zip(&b.results)
        .map(|(j, r)| check_result(j.cache_key(), &j.cfg, j.instructions, r))
        .collect()
}

/// Runs the multi-core figures' simulations one by one (they bypass the
/// engine), each in a span tagged with its job id, and checks them.
/// Returns the checks and each run's host seconds.
pub fn run_mix_jobs(seed: u64, tr: &mut Tracer) -> (Vec<JobCheck>, Vec<f64>) {
    let mut checks = Vec::new();
    let mut secs = Vec::new();
    for s in input_seeds(Kind::CoherentMix, seed) {
        let mixes = mixes(s);
        for (mix, cores, victim, tk) in mix_runs() {
            let cfg = mix_cfg(cores, victim, tk);
            let job = Some(checks.len() as u64);
            let (r, secs_one) = tr.span("tk_sim::run_workload", job, |_| {
                let mut w = mixes[mix].fork().expect("spec mixes fork");
                tk_sim::run_workload(&mut w, cfg, MIX_BUDGET)
            });
            let label = format!(
                "{};{};seed={s};instructions={MIX_BUDGET}",
                mixes[mix].name(),
                cfg.cache_key()
            );
            checks.push(check_result(label, &cfg, MIX_BUDGET, &r));
            secs.push(secs_one);
        }
    }
    (checks, secs)
}

/// Re-runs a small fixed subset of jobs under the lockstep checkers
/// (`run_workload_checked`: the functional oracle single-core, the
/// `CoherentChecker` multi-core) and requires the checked result to equal
/// the batch's. Returns `(job index, problem)` for every failure.
pub fn lockstep_subset(
    kind: Kind,
    seed: u64,
    jobs: &[Job],
    checks: &[JobCheck],
) -> Vec<(usize, String)> {
    let picks: Vec<(usize, Box<dyn tk_sim::Workload>, SystemConfig, u64)> = match kind {
        Kind::CoherentMix => {
            // Jobs of the first input seed lead the check list.
            let mixes = mixes(input_seeds(kind, seed)[0]);
            mix_runs()
                .into_iter()
                .enumerate()
                .filter(|(_, (mix, cores, victim, tk))| *mix == 0 && *cores > 1 && !victim && !tk)
                .map(|(i, (mix, cores, v, t))| {
                    (
                        i,
                        mixes[mix].fork().expect("spec mixes fork"),
                        mix_cfg(cores, v, t),
                        MIX_BUDGET,
                    )
                })
                .collect()
        }
        _ => {
            let n = jobs.len();
            let mut idx = vec![0, n / 2, n - 1];
            idx.dedup();
            idx.into_iter()
                .map(|i| {
                    let j = &jobs[i];
                    (
                        i,
                        Box::new(j.bench.build(j.seed)) as Box<dyn tk_sim::Workload>,
                        j.cfg,
                        j.instructions,
                    )
                })
                .collect()
        }
    };
    let mut failures = Vec::new();
    for (i, mut w, cfg, budget) in picks {
        let run = catch_unwind(AssertUnwindSafe(|| {
            tk_sim::run_workload_checked(&mut w, cfg, budget)
        }));
        match run {
            Ok(r) if digest(&r) == checks[i].digest => {}
            Ok(_) => failures.push((
                i,
                "lockstep-checked run differs from the batch result".to_owned(),
            )),
            Err(_) => failures.push((i, "lockstep checker reported a divergence".to_owned())),
        }
    }
    failures
}
