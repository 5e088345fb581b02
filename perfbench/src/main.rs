//! The simulator's repeatable benchmark: one closed-loop workload per
//! process, end-to-end host metrics from repeated timed batches, or (with
//! `--trace 1`) per-layer metrics from benchmark-side spans.
//!
//! ```text
//! tk-perfbench --workload figure_suite|design_sweep|coherent_mix
//!              --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! Prints one JSON document on its last stdout line; `run.py` adds
//! provenance and the cross-run checks and prints the final result line.

mod batch;
mod json;
mod layers;
mod reference;
mod spans;

use std::path::PathBuf;
use std::time::Instant;

use batch::{Batch, JobCheck, Kind};
use json::J;
use layers::LayerReport;
use reference::Reference;
use spans::Tracer;

const USAGE: &str = "usage: tk-perfbench --workload figure_suite|design_sweep|coherent_mix \
                     --seed N --seconds S --trace 0|1 [--out-dir DIR]";

/// Engine workers: the host's parallelism, at most two.
const MAX_WORKERS: usize = 2;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got `{v}`")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Marks every job whose digest differs between two checked batches.
fn compare(
    a: &[JobCheck],
    b: &[JobCheck],
    what: &str,
    failures: &mut Vec<(usize, String)>,
    problems: &mut Vec<String>,
) {
    if a.len() != b.len() {
        problems.push(format!("{what}: {} jobs vs {}", a.len(), b.len()));
        return;
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.digest != y.digest {
            failures.push((i, format!("result digest differs {what}")));
        }
    }
}

fn metrics_json(ms: &[layers::Metric]) -> J {
    J::obj(ms.iter().map(|&(name, value, unit)| {
        (
            name,
            J::obj([("value", J::Num(value)), ("unit", J::s(unit))]),
        )
    }))
}

/// Every `(job index, problem)`: the extra failures plus each check's
/// own problems, sorted and deduplicated; and the number of distinct
/// failed jobs.
fn fold_failures(
    checks: &[JobCheck],
    mut failures: Vec<(usize, String)>,
) -> (Vec<(usize, String)>, usize) {
    for (i, c) in checks.iter().enumerate() {
        failures.extend(c.problems.iter().map(|p| (i, p.clone())));
    }
    failures.sort();
    failures.dedup();
    let mut jobs: Vec<usize> = failures.iter().map(|f| f.0).collect();
    jobs.dedup();
    (failures, jobs.len())
}

/// The result document: outcome, metrics, per-job digests and details.
fn result_doc(
    args: &Args,
    checks: &[JobCheck],
    (failures, failed): (Vec<(usize, String)>, usize),
    problems: Vec<String>,
    metrics: &[layers::Metric],
    details: Vec<(&str, J)>,
) -> J {
    let mut doc = vec![
        ("correct", J::Bool(failed == 0 && problems.is_empty())),
        ("attempted", J::Int(checks.len() as u64)),
        ("failed", J::Int(failed as u64)),
        ("metrics", metrics_json(metrics)),
        ("workload", J::s(args.kind.name())),
        ("seed", J::Int(args.seed)),
        (
            "job_labels",
            J::Arr(checks.iter().map(|c| J::s(c.label.clone())).collect()),
        ),
        (
            "job_digests",
            J::Arr(
                checks
                    .iter()
                    .map(|c| J::s(format!("{:016x}", c.digest)))
                    .collect(),
            ),
        ),
        (
            "failures",
            J::Arr(
                failures
                    .iter()
                    .map(|(i, p)| {
                        J::obj([
                            ("job", J::s(checks[*i].label.clone())),
                            ("problem", J::s(p.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "problems",
            J::Arr(problems.into_iter().map(J::Str).collect()),
        ),
    ];
    doc.extend(details);
    J::obj(doc)
}

fn common_details(args: &Args, workers: usize, s: &batch::Setup) -> Vec<(&'static str, J)> {
    let mut d = vec![
        ("workers", J::Int(workers as u64)),
        ("budget", J::Int(args.kind.budget())),
        ("input_digest", J::s(format!("{:016x}", s.input_digest))),
        ("layer_budget", J::Int(layers::layer_budget(args.kind))),
    ];
    if args.kind == Kind::DesignSweep {
        d.push((
            "sample",
            J::obj([
                ("interval", J::Int(batch::SWEEP_SAMPLE.interval)),
                ("k", J::Int(u64::from(batch::SWEEP_SAMPLE.k))),
            ]),
        ));
    }
    d
}

/// One batch's figures; `reference_s` is the host-speed reference timed
/// after it, when there is one.
fn batch_json(b: &Batch, setup_s: f64, reference_s: Option<f64>) -> J {
    J::obj([
        ("reference_s", reference_s.map_or(J::Null, J::Num)),
        ("setup_s", J::Num(setup_s)),
        ("wall_s", J::Num(b.wall_s)),
        ("cpu_s", J::Num(b.cpu_s)),
        ("requested_jobs", J::Int(b.requested_jobs)),
        ("requested_instructions", J::Int(b.requested_instructions)),
        ("memo_hits", J::Int(b.memo.0)),
        ("sims_run", J::Int(b.memo.2)),
        ("ckpt_builds", J::Int(b.ckpt.builds)),
        ("ckpt_mem_hits", J::Int(b.ckpt.mem_hits)),
        ("text_digest", J::s(format!("{:016x}", b.text_digest))),
    ])
}

/// End-to-end run: repeated timed batches until `--seconds` have
/// passed (at least two), each followed by the host-speed reference,
/// then the checks outside the timed window.
fn timed(args: &Args, workers: usize, t0: Instant) -> J {
    let mut quiet = Tracer::new(t0, false);
    let mut reps: Vec<(f64, Batch)> = Vec::new();
    let mut reference = None;
    // Reference seconds after each repetition.
    let mut ref_s = Vec::new();
    let mut checks: Vec<JobCheck> = Vec::new();
    let mut failures = Vec::new();
    let mut problems = Vec::new();
    let mut first_setup = None;
    let mut peak = 0.0;
    loop {
        let rep_start = if reps.is_empty() { t0 } else { Instant::now() };
        let s = batch::setup(args.kind, args.seed, workers);
        let setup_s = rep_start.elapsed().as_secs_f64();
        let b = batch::run_batch(&s, &mut quiet);
        let rep_checks = batch::check_batch(&b);
        match reps.first() {
            None => checks = rep_checks,
            Some((_, b0)) => {
                compare(
                    &checks,
                    &rep_checks,
                    "across repetitions",
                    &mut failures,
                    &mut problems,
                );
                if b0.text_digest != b.text_digest {
                    problems.push("figure text differs across repetitions".to_owned());
                }
            }
        }
        if first_setup.is_none() {
            // One batch's footprint: later repetitions only add allocator
            // reuse effects, and their number depends on host speed. Read
            // before the reference allocates its tables.
            peak = peak_rss_mib();
            first_setup = Some(s);
            // The multi-core figures run serially; the engine workloads
            // keep every worker busy.
            let threads = if args.kind == Kind::CoherentMix {
                1
            } else {
                workers
            };
            reference = Some(Reference::new(threads));
        }
        reps.push((setup_s, b));
        let (secs, busy) = reference
            .as_mut()
            .expect("built after the first batch")
            .time();
        if busy {
            problems.push("another thread ran during the host-speed reference".to_owned());
        }
        ref_s.push(secs);
        if reps.len() >= 2 && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if args.kind == Kind::CoherentMix {
        checks = batch::run_mix_jobs(args.seed, &mut quiet).0;
    }
    let jobs = reps[0].1.jobs.clone();
    failures.extend(batch::lockstep_subset(args.kind, args.seed, &jobs, &checks));
    // One scale for the run: nominal ÷ the median reference time. A single
    // reference reading is itself noisy, so no repetition is paired with
    // its own.
    let reference_s = layers::median(&mut ref_s.clone());
    let scale = reference::NOMINAL_S / reference_s;
    let median_of = |f: &dyn Fn(&(f64, Batch)) -> f64| {
        layers::median(&mut reps.iter().map(f).collect::<Vec<_>>())
    };
    let setup_s = median_of(&|r| r.0);
    let wall_s = median_of(&|r| r.1.wall_s);
    let sim_mips = median_of(&|r| r.1.requested_instructions as f64 / r.1.wall_s / 1e6);
    let metrics = vec![
        ("setup_s", setup_s * scale, "s"),
        ("wall_norm_s", wall_s * scale, "s"),
        ("sim_mips_norm", sim_mips / scale, "Minstr/s"),
        ("peak_rss_mib", peak, "MiB"),
    ];
    let raw = J::obj([
        ("setup_s", J::Num(setup_s)),
        ("wall_s", J::Num(wall_s)),
        ("sim_mips", J::Num(sim_mips)),
        ("reference_s", J::Num(reference_s)),
    ]);
    let mut details = common_details(args, workers, first_setup.as_ref().expect("one repetition"));
    details.push((
        "text_digest",
        J::s(format!("{:016x}", reps[0].1.text_digest)),
    ));
    details.push(("raw_medians", raw));
    details.push((
        "repetitions",
        J::Arr(
            reps.iter()
                .zip(&ref_s)
                .map(|((s, b), &r)| batch_json(b, *s, Some(r)))
                .collect(),
        ),
    ));
    let failures = fold_failures(&checks, failures);
    result_doc(args, &checks, failures, problems, &metrics, details)
}

/// Traced run: one untraced and one traced batch (for the tracing
/// overhead), then every layer driven directly inside spans.
fn traced(args: &Args, workers: usize, t0: Instant) -> J {
    let (kind, seed) = (args.kind, args.seed);
    let mut tr = Tracer::new(t0, true);
    let mut quiet = Tracer::new(t0, false);
    tr.open_root();
    let mut failures = Vec::new();
    let mut problems = Vec::new();

    let (s, setup_s) = tr.span("setup", None, |_| batch::setup(kind, seed, workers));
    let (u, _) = tr.span("batch(untraced)", None, |_| {
        batch::run_batch(&s, &mut quiet)
    });
    let (s2, _) = tr.span("setup", None, |_| batch::setup(kind, seed, workers));
    let (t, _) = tr.span("batch(traced)", None, |tr| batch::run_batch(&s2, tr));
    let mut checks = batch::check_batch(&u);
    compare(
        &checks,
        &batch::check_batch(&t),
        "between untraced and traced batches",
        &mut failures,
        &mut problems,
    );
    if u.text_digest != t.text_digest {
        problems.push("figure text differs between untraced and traced batches".to_owned());
    }
    let mut times = layers::JobTimes::default();
    if kind == Kind::CoherentMix {
        let (c, secs) = batch::run_mix_jobs(seed, &mut tr);
        checks = c;
        times.job_s = secs;
    }
    let (lock, _) = tr.span("lockstep_subset", None, |_| {
        batch::lockstep_subset(kind, seed, &u.jobs, &checks)
    });
    failures.extend(lock);

    // Layer drives use the first input seed's streams.
    let ls = batch::input_seeds(kind, seed)[0];
    let mut rep = LayerReport::default();
    layers::drive_single_core(kind, ls, &mut tr, &mut rep);
    layers::drive_dram(kind, ls, &mut tr, &mut rep);
    layers::drive_multicore(kind, ls, &mut tr, &mut rep);
    let sd = layers::drive_sample(kind, ls, &u, &mut tr, &mut rep);
    failures.extend(sd.failures);
    layers::drive_sample_error(kind, ls, workers, &u, &mut tr, &mut rep);
    if kind == Kind::DesignSweep {
        times = sd.times;
    }
    let engine_failures =
        layers::drive_engine(kind, workers, &u, &checks, times, &mut tr, &mut rep);
    failures.extend(engine_failures);
    problems.extend(rep.problems.iter().cloned());
    tr.close_root();

    rep.metrics
        .push(("trace.overhead_ratio", t.wall_s / u.wall_s, "ratio"));
    let failures = fold_failures(&checks, failures);
    rep.metrics.push((
        "check_fail_ratio",
        failures.1 as f64 / checks.len().max(1) as f64,
        "ratio",
    ));

    let by_name = J::obj(tr.by_name().into_iter().map(|(name, (count, total, own))| {
        (
            name,
            J::obj([
                ("count", J::Int(count)),
                ("total_s", J::Num(total)),
                ("self_s", J::Num(own)),
            ]),
        )
    }));
    let spans_doc = J::obj([
        ("workload", J::s(kind.name())),
        ("seed", J::Int(seed)),
        ("accounting", tr.accounting()),
        ("by_name", by_name.clone()),
        ("spans", tr.to_json()),
    ]);
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-seed{seed}.json", kind.name()));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&spans_path, spans_doc.render()))
    {
        problems.push(format!("cannot write {}: {e}", spans_path.display()));
    }

    let mut details = common_details(args, workers, &s);
    details.extend([
        ("text_digest", J::s(format!("{:016x}", u.text_digest))),
        ("untraced_batch", batch_json(&u, setup_s, None)),
        ("traced_batch", batch_json(&t, setup_s, None)),
        ("accounting", tr.accounting()),
        ("self_time_by_span", by_name),
        (
            "probe_layers",
            J::Arr(rep.probes.iter().map(|p| J::s(*p)).collect()),
        ),
        (
            "notes",
            J::obj(rep.notes.iter().map(|(k, v)| (k.clone(), J::s(v.clone())))),
        ),
        ("spans_file", J::s(spans_path.display().to_string())),
    ]);
    result_doc(args, &checks, failures, problems, &rep.metrics, details)
}

fn main() {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workers = tk_bench::engine::default_jobs().min(MAX_WORKERS);
    let doc = if args.trace {
        traced(&args, workers, t0)
    } else {
        timed(&args, workers, t0)
    };
    println!("{}", doc.render());
}
