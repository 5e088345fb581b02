//! Golden-figure regression digests.
//!
//! Every figure binary's output is a pure function of `(figure, seed,
//! instruction budget)`. The harness runs each figure at a reduced budget
//! with the engine's job log turned on and builds a digest capturing
//!
//! * the rendered figure text, verbatim, and
//! * every distinct simulation behind it — its engine cache key, an
//!   FNV-64 fingerprint of the full [`RunResult`](tk_sim::RunResult)
//!   JSON (so *any* stat-level change is caught, including deep inside
//!   the metric histograms), and the headline core / hierarchy / miss
//!   counters in the clear for a readable diff.
//!
//! Digests are compared bit-exactly against `tests/golden/<name>.json`
//! by `tests/golden_figures.rs`; regenerate them with
//! `TK_BLESS=1 cargo test --test golden_figures`.

use std::path::PathBuf;

use timekeeping::snapshot::{Json, Snapshot};

use crate::engine;
use crate::figures;
use crate::runner::FigureOpts;

/// Budget for golden runs: small enough for the whole manifest to run
/// inside a debug-mode `cargo test`, large enough to exercise the miss,
/// victim, decay and prefetch paths of every figure.
pub const GOLDEN_INSTRUCTIONS: u64 = 60_000;

/// The options every golden digest is generated under.
pub fn golden_opts() -> FigureOpts {
    let mut o = FigureOpts::new();
    o.instructions = GOLDEN_INSTRUCTIONS;
    o.instructions_explicit = true;
    o
}

/// A figure generator: renders one report at the given options.
pub type FigureFn = fn(FigureOpts) -> String;

/// Every pinned figure/table: name → generator. The names double as the
/// golden filenames (`tests/golden/<name>.json`).
pub fn figure_manifest() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("table1", |_| figures::table1()),
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
        ("fig22_mp", figures::fig22_mp),
        ("mesi_compare", figures::mesi_compare),
        ("dram_compare", figures::dram_compare),
    ]
}

/// The repository-root `tests/golden` directory.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Builds the digest document for one figure by running it at `opts`
/// with the calling thread's engine job log on.
pub fn digest(name: &str, generate: FigureFn, opts: FigureOpts) -> Json {
    engine::record_jobs(true);
    let text = generate(opts);
    let jobs = engine::take_recorded_jobs();
    engine::record_jobs(false);

    let entries: Vec<Json> = jobs
        .iter()
        .map(|job| {
            // Memoized: this re-lookup never re-simulates.
            let r = engine::run_jobs(&[*job], 1).pop().expect("memoized job");
            Json::obj([
                ("key", Json::Str(job.cache_key())),
                (
                    "result_fnv",
                    Json::Str(format!("{:016x}", engine::fnv1a64(&r.to_json().render()))),
                ),
                ("core", r.core.to_json()),
                ("hierarchy", r.hierarchy.to_json()),
                ("breakdown", r.breakdown.to_json()),
            ])
        })
        .collect();
    Json::obj([
        ("figure", Json::Str(name.to_owned())),
        ("instructions", Json::U64(opts.instructions)),
        ("seed", Json::U64(opts.seed)),
        ("jobs", Json::Arr(entries)),
        ("text", Json::Str(text)),
    ])
}

/// Locates the first line where two renders differ, for a failure
/// message that names the divergence instead of dumping both documents.
pub fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first difference at line {}:\n  expected: {e}\n  actual:   {a}",
                i + 1
            );
        }
    }
    let (el, al) = (expected.lines().count(), actual.lines().count());
    if el != al {
        return format!("line counts differ: expected {el}, actual {al}");
    }
    "documents are identical".to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_are_unique_filenames() {
        let names: Vec<&str> = figure_manifest().iter().map(|(n, _)| *n).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "duplicate golden name {n}");
            assert!(
                n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "odd name {n}"
            );
        }
    }

    #[test]
    fn first_diff_pinpoints_line() {
        let d = first_diff("a\nb\nc", "a\nX\nc");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains('X'), "{d}");
        assert!(first_diff("a\nb", "a\nb\nc").contains("line counts"));
        assert!(first_diff("same", "same").contains("identical"));
    }

    #[test]
    fn digest_captures_jobs_and_text() {
        let mut opts = FigureOpts::quick();
        opts.instructions = 20_000;
        let doc = digest("fig04", figures::fig04, opts);
        let rendered = doc.render();
        assert!(rendered.contains("\"figure\""));
        let jobs = doc.get("jobs").unwrap();
        match jobs {
            Json::Arr(entries) => assert!(!entries.is_empty(), "fig04 must record jobs"),
            other => panic!("jobs must be an array, got {other:?}"),
        }
        // Deterministic: the same digest twice renders identically.
        let again = digest("fig04", figures::fig04, opts).render();
        assert_eq!(rendered, again);
    }
}
