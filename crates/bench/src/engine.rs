//! The parallel experiment engine.
//!
//! Every figure of the paper's evaluation is a pile of *independent*
//! simulations — `(benchmark, configuration, seed, instruction budget)`
//! tuples whose results are pure functions of the tuple. The engine
//! exploits that three ways:
//!
//! * **Fan-out** — [`run_jobs`] spreads a batch of [`Job`]s across a
//!   fixed-size pool of worker threads (`--jobs N`), returning results in
//!   the order the jobs were submitted. Because each simulation is
//!   deterministic and shares nothing, `--jobs 1` and `--jobs N` produce
//!   bit-identical results.
//! * **Memoization** — a process-wide cache keyed by the job tuple. The
//!   `report` binary regenerates a dozen figures, most of which re-run
//!   `SystemConfig::base()` over the whole suite; with the memo each
//!   distinct tuple is simulated at most once per invocation.
//!   [`memo_stats`] exposes the hit/run counters.
//! * **Disk cache** (optional, [`set_disk_cache`]) — completed
//!   [`RunResult`]s are persisted as JSON snapshots (default under
//!   `reports/.cache/`), so re-running a report binary with the same
//!   budgets skips straight to rendering. Files carry the full job key
//!   and are ignored (and rewritten) on any mismatch. Delete the
//!   directory to invalidate.
//! * **Checkpoint sharding** — sampled jobs that share a functional
//!   fingerprint (same instruction stream, geometry and sampling
//!   parameters; timing knobs free) reuse one profiled/clustered/warmed
//!   [`SampleCheckpoint`] from `tk_sim`'s
//!   two-tier store, and each job's timed representatives become
//!   independent work units on the same pool. Shard results merge in
//!   the checkpoint's fixed order, so the schedule cannot affect the
//!   output: a sharded run is bit-identical to `Job::simulate`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use timekeeping::snapshot::{Json, Snapshot};
use tk_sim::{run_workload, RunResult, SampleCheckpoint, SystemConfig};

use crate::workload::WorkloadId;

/// One independent simulation: the result is a pure function of this
/// tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// The workload to run: a synthetic benchmark or a registered
    /// external trace ([`WorkloadId`]).
    pub bench: WorkloadId,
    /// The system configuration.
    pub cfg: SystemConfig,
    /// Workload seed.
    pub seed: u64,
    /// Instruction budget.
    pub instructions: u64,
}

impl Job {
    /// Creates a job. Accepts a bare [`SpecBenchmark`](tk_workloads::SpecBenchmark)
    /// or any [`WorkloadId`].
    pub fn new(
        bench: impl Into<WorkloadId>,
        cfg: SystemConfig,
        seed: u64,
        instructions: u64,
    ) -> Self {
        Job {
            bench: bench.into(),
            cfg,
            seed,
            instructions,
        }
    }

    /// A canonical, process-independent description of the tuple — the
    /// disk-cache key. (The in-process memo hashes the tuple directly;
    /// `std`'s hasher is randomized per process, so filenames use an FNV
    /// hash of this string instead.) Synthetic jobs keep the historical
    /// `bench={name};…` format; trace jobs lead with
    /// `trace={digest:016x}` so entries can never alias across traces
    /// or against a benchmark.
    pub fn cache_key(&self) -> String {
        format!(
            "{};{};seed={};instructions={}",
            self.bench.key_fragment(),
            self.cfg.cache_key(),
            self.seed,
            self.instructions,
        )
    }

    /// The simulation itself (no caching).
    fn simulate(&self) -> RunResult {
        let mut w = self.bench.build(self.seed);
        run_workload(&mut w, self.cfg, self.instructions)
    }
}

/// 64-bit FNV-1a — a stable, dependency-free hash for cache filenames
/// and golden-digest fingerprints.
pub(crate) fn fnv1a64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Engine {
    memo: Mutex<HashMap<Job, Arc<RunResult>>>,
    disk_dir: Mutex<Option<PathBuf>>,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    sims_run: AtomicU64,
}

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine {
        memo: Mutex::new(HashMap::new()),
        disk_dir: Mutex::new(None),
        memo_hits: AtomicU64::new(0),
        disk_hits: AtomicU64::new(0),
        sims_run: AtomicU64::new(0),
    })
}

/// Enables (`Some(dir)`) or disables (`None`) the on-disk result cache.
///
/// Results are written as one JSON file per job under `dir`, which is
/// created on first write. Clear the cache by deleting the directory
/// (e.g. `rm -rf reports/.cache`).
pub fn set_disk_cache(dir: Option<PathBuf>) {
    *engine().disk_dir.lock().expect("cache poisoned") = dir;
}

/// The current disk-cache directory, if enabled.
pub fn disk_cache_dir() -> Option<PathBuf> {
    engine().disk_dir.lock().expect("cache poisoned").clone()
}

thread_local! {
    /// The calling thread's job log (`None` while off). Each thread that
    /// submits to [`run_jobs`] owns its own log, so concurrent callers —
    /// two figures, two tests — never see each other's jobs.
    static RECORDED: RefCell<Option<Vec<Job>>> = const { RefCell::new(None) };
}

/// Turns the calling thread's job log on or off. While on, every
/// *distinct* job this thread submits to [`run_jobs`] is appended (in
/// submission order, including memo and disk hits) so a caller can
/// discover exactly which simulations back a figure — the golden-figure
/// harness uses this to build its digests.
pub fn record_jobs(enable: bool) {
    RECORDED.with_borrow_mut(|rec| *rec = enable.then(Vec::new));
}

/// Drains the calling thread's job log accumulated since
/// [`record_jobs`]`(true)` (or the previous drain), leaving recording on.
/// Empty when recording is off.
pub fn take_recorded_jobs() -> Vec<Job> {
    RECORDED.with_borrow_mut(|rec| rec.as_mut().map(std::mem::take).unwrap_or_default())
}

/// Engine counters since process start (or the last [`reset_stats`]):
/// `(memo_hits, disk_hits, simulations_run)`.
///
/// Every job submitted to [`run_jobs`] lands in exactly one bucket, so
/// `memo_hits + disk_hits + simulations_run` equals the total number of
/// jobs submitted — and `simulations_run` equals the number of *distinct*
/// job tuples that had to be simulated.
pub fn memo_stats() -> (u64, u64, u64) {
    let e = engine();
    (
        e.memo_hits.load(Ordering::Relaxed),
        e.disk_hits.load(Ordering::Relaxed),
        e.sims_run.load(Ordering::Relaxed),
    )
}

/// Clears the in-process memo and zeroes the counters (test hook; the
/// disk cache is left untouched).
pub fn reset_stats() {
    let e = engine();
    e.memo.lock().expect("memo poisoned").clear();
    e.memo_hits.store(0, Ordering::Relaxed);
    e.disk_hits.store(0, Ordering::Relaxed);
    e.sims_run.store(0, Ordering::Relaxed);
}

/// The default worker-pool size: one worker per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn disk_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.json", fnv1a64(key)))
}

/// Loads a result from the disk cache, verifying the embedded key.
fn disk_load(dir: &Path, key: &str) -> Option<RunResult> {
    let text = std::fs::read_to_string(disk_path(dir, key)).ok()?;
    let v = Json::parse(&text).ok()?;
    if v.get("key").ok()?.as_str().ok()? != key {
        return None; // FNV collision or stale format: re-simulate.
    }
    RunResult::from_json(v.get("result").ok()?).ok()
}

/// Persists a result to the disk cache (best-effort: I/O errors only
/// cost future cache hits).
fn disk_store(dir: &Path, key: &str, result: &RunResult) {
    let doc = Json::obj([
        ("key", Json::Str(key.to_owned())),
        ("result", result.to_json()),
    ]);
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(disk_path(dir, key), doc.render());
    }
}

/// Runs a batch of jobs on a pool of `workers` threads, returning the
/// results in submission order.
///
/// Duplicate tuples within the batch — and tuples already resolved
/// earlier in the process — are simulated once and shared. `workers` is
/// clamped to at least 1; `workers == 1` runs the batch serially on the
/// calling thread and produces bit-identical results to any other pool
/// size.
pub fn run_jobs(jobs: &[Job], workers: usize) -> Vec<Arc<RunResult>> {
    let e = engine();
    let disk_dir = e.disk_dir.lock().expect("cache poisoned").clone();
    // Logged on the submitting thread, before the batch fans out.
    RECORDED.with_borrow_mut(|rec| {
        if let Some(rec) = rec.as_mut() {
            for job in jobs {
                if !rec.contains(job) {
                    rec.push(*job);
                }
            }
        }
    });

    // Resolve what we can from the memo and disk; collect the distinct
    // tuples that actually need simulating.
    let mut pending: Vec<Job> = Vec::new();
    {
        let mut memo = e.memo.lock().expect("memo poisoned");
        for job in jobs {
            if memo.contains_key(job) {
                e.memo_hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(r) = disk_dir
                .as_deref()
                .and_then(|d| disk_load(d, &job.cache_key()))
            {
                e.disk_hits.fetch_add(1, Ordering::Relaxed);
                memo.insert(*job, Arc::new(r));
                continue;
            }
            if pending.contains(job) {
                // Duplicate within this batch: one simulation covers it.
                e.memo_hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            pending.push(*job);
        }
    }

    // Plan the batch's checkpoint plane: group sampled jobs by
    // functional fingerprint, materialize each distinct checkpoint once,
    // and split those jobs into per-representative timing shards.
    let workers = workers.max(1);
    let plan = plan_checkpoints(&pending, workers);
    let units = plan.units(&pending);

    // Fan the work units across the pool. Each slot is written by
    // exactly one worker; unit order is fixed by `pending` order and
    // shard index, so the pool size cannot affect the output.
    let checked = tk_sim::lockstep_check_enabled();
    let unit_results: Vec<Mutex<Option<RunResult>>> =
        units.iter().map(|_| Mutex::new(None)).collect();
    let run_unit = |u: &Unit| match *u {
        Unit::Whole(j) => pending[j].simulate(),
        Unit::Shard { job, ckpt, shard } => {
            tk_sim::run_shard(&plan.ckpts[ckpt], pending[job].cfg, shard, checked)
        }
    };
    let pool = workers.min(units.len().max(1));
    if pool <= 1 {
        for (u, slot) in units.iter().zip(&unit_results) {
            *slot.lock().expect("slot poisoned") = Some(run_unit(u));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(u) = units.get(i) else { break };
                    let r = run_unit(u);
                    *unit_results[i].lock().expect("slot poisoned") = Some(r);
                });
            }
        });
    }
    e.sims_run
        .fetch_add(pending.len() as u64, Ordering::Relaxed);

    // Reassemble sharded jobs — always in the checkpoint's fixed shard
    // order, regardless of which worker timed which shard when.
    let mut per_job: Vec<Vec<RunResult>> = (0..pending.len()).map(|_| Vec::new()).collect();
    for (u, slot) in units.iter().zip(unit_results) {
        let r = slot
            .into_inner()
            .expect("slot poisoned")
            .expect("worker ran");
        match *u {
            Unit::Whole(j) | Unit::Shard { job: j, .. } => per_job[j].push(r),
        }
    }

    // Publish the new results, then answer the batch in order.
    {
        let mut memo = e.memo.lock().expect("memo poisoned");
        for (j, (job, mut rs)) in pending.iter().zip(per_job).enumerate() {
            let r = match plan.assignment[j] {
                Some(c) => tk_sim::assemble_shards(&plan.ckpts[c], &rs),
                None => rs.pop().expect("whole job ran"),
            };
            if let Some(dir) = disk_dir.as_deref() {
                disk_store(dir, &job.cache_key(), &r);
            }
            memo.insert(*job, Arc::new(r));
        }
    }
    let memo = e.memo.lock().expect("memo poisoned");
    jobs.iter()
        .map(|job| Arc::clone(memo.get(job).expect("job resolved")))
        .collect()
}

/// One schedulable piece of a batch: a whole simulation, or a single
/// timed representative of a checkpointed job.
enum Unit {
    Whole(usize),
    Shard {
        job: usize,
        ckpt: usize,
        shard: usize,
    },
}

/// The checkpoint plan for one batch of pending jobs.
struct SweepPlan {
    /// Per pending job: index into `ckpts`, or `None` to simulate whole.
    assignment: Vec<Option<usize>>,
    /// The batch's distinct checkpoints, materialized once each.
    ckpts: Vec<Arc<SampleCheckpoint>>,
}

impl SweepPlan {
    /// Expands the plan into the batch's work units, job-major so each
    /// job's shard results arrive in shard order.
    fn units(&self, pending: &[Job]) -> Vec<Unit> {
        let mut units = Vec::with_capacity(pending.len());
        for j in 0..pending.len() {
            match self.assignment[j] {
                Some(c) => units.extend((0..self.ckpts[c].shard_count()).map(|s| Unit::Shard {
                    job: j,
                    ckpt: c,
                    shard: s,
                })),
                None => units.push(Unit::Whole(j)),
            }
        }
        units
    }
}

/// Groups the pending jobs by functional fingerprint and materializes
/// each distinct checkpoint once, fanning the builds across the pool
/// (profiling, clustering and warmup dominate a sampled job's cost, so
/// a sweep of F distinct streams warms F ways wide). Jobs whose
/// fingerprint is `None` — unsampled, multi-core, unsupported L1 mode,
/// degenerate or over-cap budgets — simulate whole, as do jobs whose
/// build overflows the compact stream encoding (`Job::simulate` then
/// takes the identical streaming fallback).
fn plan_checkpoints(pending: &[Job], workers: usize) -> SweepPlan {
    let mut assignment: Vec<Option<usize>> = vec![None; pending.len()];
    if !tk_sim::checkpoints_enabled() || pending.is_empty() {
        // `--no-ckpt`: every job still *builds* its checkpoint
        // transiently inside `run_sampled`, so results are identical —
        // only the sharing and the shard-level parallelism are lost.
        return SweepPlan {
            assignment,
            ckpts: Vec::new(),
        };
    }
    // The stream probe forks and hashes the head of the workload, so
    // memoize it per distinct stream, not per job.
    let mut probes: HashMap<(WorkloadId, u64), Option<u64>> = HashMap::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<(String, usize)> = Vec::new(); // (fingerprint, exemplar job)
    for (i, job) in pending.iter().enumerate() {
        if job.cfg.sample.is_none() {
            continue;
        }
        let probe = *probes
            .entry((job.bench, job.seed))
            .or_insert_with(|| tk_sim::stream_probe(&job.bench.build(job.seed)));
        let Some(probe) = probe else { continue };
        let Some(fp) =
            tk_sim::job_fingerprint(probe, &job.bench.name(), &job.cfg, job.instructions)
        else {
            continue;
        };
        let g = *group_of.entry(fp.clone()).or_insert_with(|| {
            groups.push((fp, i));
            groups.len() - 1
        });
        assignment[i] = Some(g);
    }

    let built: Vec<Mutex<Option<Arc<SampleCheckpoint>>>> =
        groups.iter().map(|_| Mutex::new(None)).collect();
    let build = |g: &(String, usize)| {
        let job = &pending[g.1];
        tk_sim::obtain_keyed(&job.bench.build(job.seed), &job.cfg, job.instructions, &g.0)
    };
    let pool = workers.max(1).min(groups.len().max(1));
    if pool <= 1 {
        for (g, slot) in groups.iter().zip(&built) {
            *slot.lock().expect("slot poisoned") = build(g);
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(g) = groups.get(i) else { break };
                    let r = build(g);
                    *built[i].lock().expect("slot poisoned") = r;
                });
            }
        });
    }

    // Compact to the successful builds and remap the assignments.
    let mut ckpts = Vec::new();
    let mut remap: Vec<Option<usize>> = Vec::with_capacity(groups.len());
    for slot in built {
        match slot.into_inner().expect("slot poisoned") {
            Some(c) => {
                remap.push(Some(ckpts.len()));
                ckpts.push(c);
            }
            None => remap.push(None),
        }
    }
    for a in &mut assignment {
        *a = a.and_then(|g| remap[g]);
    }
    SweepPlan { assignment, ckpts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FigureOpts;
    use tk_workloads::SpecBenchmark;

    fn quick_job(cfg: SystemConfig) -> Job {
        Job::new(
            SpecBenchmark::Gzip,
            cfg,
            1,
            FigureOpts::quick().instructions,
        )
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn cache_key_distinguishes_tuples() {
        let a = quick_job(SystemConfig::base());
        let mut b = a;
        b.seed = 2;
        let mut c = a;
        c.instructions += 1;
        let d = quick_job(SystemConfig::ideal());
        let keys = [a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()];
        for (i, k) in keys.iter().enumerate() {
            for other in &keys[i + 1..] {
                assert_ne!(k, other);
            }
        }
    }

    #[test]
    fn disk_cache_round_trips_and_rejects_mismatches() {
        let dir = std::env::temp_dir().join(format!("tk-engine-test-{}", std::process::id()));
        let job = quick_job(SystemConfig::base());
        let r = job.simulate();
        disk_store(&dir, &job.cache_key(), &r);
        assert_eq!(disk_load(&dir, &job.cache_key()), Some(r.clone()));
        // A different key must not read another key's file, even if we
        // force the same path by writing it there.
        std::fs::write(disk_path(&dir, "other-key"), {
            Json::obj([("key", Json::Str(job.cache_key())), ("result", r.to_json())]).render()
        })
        .unwrap();
        assert_eq!(disk_load(&dir, "other-key"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_log_is_per_thread() {
        // Both threads turn their logs on, submit at the same time, and
        // drain together: each must see exactly its own job.
        let budget = 2_000;
        let mine = [
            Job::new(SpecBenchmark::Gzip, SystemConfig::base(), 11, budget),
            Job::new(SpecBenchmark::Mcf, SystemConfig::base(), 12, budget),
        ];
        let barrier = std::sync::Barrier::new(mine.len());
        let logs: Vec<Vec<Job>> = std::thread::scope(|scope| {
            let handles: Vec<_> = mine
                .iter()
                .map(|job| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        record_jobs(true);
                        barrier.wait();
                        run_jobs(&[*job], 1);
                        barrier.wait();
                        let log = take_recorded_jobs();
                        record_jobs(false);
                        log
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (job, log) in mine.iter().zip(&logs) {
            assert_eq!(log, &vec![*job], "a thread's log holds only its own jobs");
        }
    }
}
