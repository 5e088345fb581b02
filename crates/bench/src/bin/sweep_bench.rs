//! Sweep-level checkpoint benchmark.
//!
//! Runs a multi-configuration timing sweep — every SPEC workload under
//! nine timing variants of the base machine (three DRAM backends ×
//! three prefetchers) — with statistical sampling, three ways:
//!
//! 1. **no-ckpt** — the checkpoint plane disabled: every job profiles,
//!    clusters and functionally warms its own stream (per-job sampling,
//!    the pre-checkpoint behavior).
//! 2. **cold** — the checkpoint store enabled but empty: the engine
//!    builds one checkpoint per distinct stream, shares it across all
//!    nine timing variants, and times each job's representatives as
//!    independent shards on the worker pool.
//! 3. **warm** — the identical sweep over the now-warm in-process
//!    store: only the timing shards run.
//!
//! All three passes must produce bit-identical results — that assertion
//! is the binary's hard gate (CI runs `sweep_bench --quick` for it).
//! The wall-clock comparison is printed to stdout under a
//! `--- BENCH_sweep.json ---` header, in the committed file's format
//! (copy it there to refresh the record); at the default budget the
//! cold pass must beat the no-ckpt pass by at least 2× (exit 1
//! otherwise).
//!
//! ```text
//! cargo run --release -p tk-bench --bin sweep_bench [-- [--quick] [--instructions N] ...]
//! ```
//!
//! Wall-clock honesty: the engine's memo is reset between passes, the
//! result disk cache and the on-disk checkpoint tier are switched off,
//! so every pass pays its own simulation cost.

use std::time::Instant;

use timekeeping::snapshot::Json;
use timekeeping::{CorrelationConfig, DbcpConfig};
use tk_bench::engine::{self, Job};
use tk_bench::runner::FigureOpts;
use tk_sim::{
    BankedDramConfig, MemBackendConfig, PrefetchMode, RunResult, SampleConfig, SystemConfig,
};
use tk_workloads::SpecBenchmark;

/// The full-budget acceptance gate: cold-store speedup over per-job
/// sampling on the nine-way sweep.
const SPEEDUP_GATE: f64 = 2.0;

/// The nine timing variants: every combination of DRAM backend and
/// prefetcher. All are *timing* knobs — geometry, stream and sampling
/// parameters are identical — so each workload's nine jobs share one
/// functional fingerprint and thus one checkpoint.
fn sweep_configs(sc: SampleConfig) -> Vec<(String, SystemConfig)> {
    let backends = [
        ("fixed", MemBackendConfig::Fixed),
        ("ddr2", MemBackendConfig::Banked(BankedDramConfig::DDR2)),
        ("ddr4", MemBackendConfig::Banked(BankedDramConfig::DDR4)),
    ];
    let prefetchers = [
        ("none", PrefetchMode::None),
        ("dbcp", PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
        (
            "tk",
            PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB),
        ),
    ];
    let mut cfgs = Vec::new();
    for (bname, backend) in backends {
        for (pname, prefetch) in prefetchers {
            let cfg = SystemConfig::builder()
                .memory(backend)
                .prefetch(prefetch)
                .sample(sc)
                .build()
                .expect("sweep configs are valid");
            cfgs.push((format!("{bname}+{pname}"), cfg));
        }
    }
    cfgs
}

/// Runs the whole sweep once on a cold engine memo, returning the
/// results (submission order) and the wall time in seconds.
fn run_pass(jobs: &[Job], workers: usize) -> (Vec<RunResult>, f64) {
    engine::reset_stats();
    let start = Instant::now();
    let results = engine::run_jobs(jobs, workers);
    let wall = start.elapsed().as_secs_f64();
    let (_, _, sims) = engine::memo_stats();
    assert_eq!(
        sims,
        jobs.len() as u64,
        "a pass must simulate every job (memo was reset)"
    );
    (results.iter().map(|r| (**r).clone()).collect(), wall)
}

/// See [`sample_calibrate`](../sample_calibrate/index.html): the
/// snapshot `Json` has no float variant, so floats render as strings.
fn fjson(x: f64) -> Json {
    Json::Str(format!("{x:.6}"))
}

fn main() {
    let opts = FigureOpts::from_args().or_default_budget(2_000_000);
    let budget = opts.instructions;
    // Adapt the interval to the budget (same rule as sample_calibrate)
    // so `--quick` still exercises real clustering: 400 intervals, k = 8.
    let sc = opts.sample.unwrap_or(SampleConfig {
        interval: (budget / 400).max(1_000),
        k: 8,
    });

    // Honest wall-clock: no result reuse across passes from the disk
    // tiers (the in-process memo is reset per pass in `run_pass`).
    engine::set_disk_cache(None);
    tk_sim::set_checkpoint_dir(None);

    let cfgs = sweep_configs(sc);
    let jobs: Vec<Job> = cfgs
        .iter()
        .flat_map(|(_, cfg)| {
            SpecBenchmark::ALL
                .iter()
                .map(|&b| Job::new(b, *cfg, opts.seed, budget))
        })
        .collect();
    println!(
        "checkpoint sweep: {} workloads x {} configs = {} jobs, {budget} instructions each, \
         interval={}, k={}, {} workers",
        SpecBenchmark::ALL.len(),
        cfgs.len(),
        jobs.len(),
        sc.interval,
        sc.k,
        opts.jobs,
    );

    // Pass 1: per-job sampling (the checkpoint plane disabled).
    tk_sim::set_checkpoints_enabled(false);
    let (base, wall_base) = run_pass(&jobs, opts.jobs);
    println!(
        "  no-ckpt: {:8.2} s  (every job profiles + warms itself)",
        wall_base
    );

    // Pass 2: cold store — builds are paid once per distinct stream.
    tk_sim::set_checkpoints_enabled(true);
    tk_sim::reset_checkpoint_store();
    let (cold, wall_cold) = run_pass(&jobs, opts.jobs);
    let cold_stats = tk_sim::checkpoint_stats();
    println!(
        "  cold:    {:8.2} s  ({} checkpoints built, shared 9 ways, sharded timing)",
        wall_cold, cold_stats.builds
    );

    // Pass 3: warm store — only the timing shards run.
    let before_warm = tk_sim::checkpoint_stats();
    let (warm, wall_warm) = run_pass(&jobs, opts.jobs);
    let warm_stats = tk_sim::checkpoint_stats();
    let warm_hits = warm_stats.mem_hits - before_warm.mem_hits;
    println!(
        "  warm:    {:8.2} s  ({warm_hits} in-process checkpoint hits, 0 builds)",
        wall_warm
    );

    // The hard gate: the checkpoint plane must not change a single bit.
    let mut identical = true;
    for (i, job) in jobs.iter().enumerate() {
        if base[i] != cold[i] || cold[i] != warm[i] {
            identical = false;
            eprintln!(
                "MISMATCH: {} under {} diverges across passes",
                job.bench.name(),
                job.cfg.cache_key()
            );
        }
    }
    assert!(
        identical,
        "checkpointed passes must be bit-identical to per-job sampling"
    );
    println!("  bit-identical across no-ckpt / cold / warm: yes");

    let speedup_cold = wall_base / wall_cold.max(1e-9);
    let speedup_warm = wall_base / wall_warm.max(1e-9);
    println!(
        "\nsweep speedup vs per-job sampling: cold {speedup_cold:.2}x, warm {speedup_warm:.2}x"
    );

    let doc = Json::obj([
        ("instructions", Json::U64(budget)),
        ("seed", Json::U64(opts.seed)),
        ("interval", Json::U64(sc.interval)),
        ("k", Json::U64(u64::from(sc.k))),
        ("workers", Json::U64(opts.jobs as u64)),
        ("benches", Json::U64(SpecBenchmark::ALL.len() as u64)),
        (
            "configs",
            Json::Arr(
                cfgs.iter()
                    .map(|(name, _)| Json::Str(name.clone()))
                    .collect(),
            ),
        ),
        ("jobs", Json::U64(jobs.len() as u64)),
        ("checkpoints_built", Json::U64(cold_stats.builds)),
        ("warm_mem_hits", Json::U64(warm_hits)),
        ("wall_no_ckpt_s", fjson(wall_base)),
        ("wall_cold_s", fjson(wall_cold)),
        ("wall_warm_s", fjson(wall_warm)),
        ("speedup_cold", fjson(speedup_cold)),
        ("speedup_warm", fjson(speedup_warm)),
        ("bit_identical", Json::Bool(identical)),
        (
            "harness",
            Json::Str(format!(
                "cargo run --release -p tk-bench --bin sweep_bench -- --instructions {budget}"
            )),
        ),
    ]);
    println!("--- BENCH_sweep.json ---\n{}", doc.render());

    // The speedup gate only binds at real budgets: under `--quick` the
    // per-interval work is too small for amortization to dominate
    // thread-pool overhead, so quick runs gate on bit-identity alone.
    if budget >= 1_000_000 && speedup_cold < SPEEDUP_GATE {
        eprintln!("FAIL: cold-store speedup {speedup_cold:.2}x below the {SPEEDUP_GATE}x gate");
        std::process::exit(1);
    }
    println!("PASS");
}
