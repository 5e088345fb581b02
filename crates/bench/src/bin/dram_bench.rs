//! Banked-DRAM behavior benchmark.
//!
//! Drives two SPEC models with opposite memory personalities through the
//! banked DRAM backend and reports the row-buffer behavior each one
//! provokes:
//!
//! * `swim` — dense array sweeps; successive misses walk consecutive
//!   blocks of the same DRAM row, so the open-row policy should convert
//!   most accesses into row hits and the average read latency should sit
//!   near the row-hit floor.
//! * `mcf` — pointer chasing over a large footprint; successive misses
//!   land in unrelated rows of the same small bank set, so row conflicts
//!   dominate and the average read latency climbs toward the
//!   precharge+activate ceiling.
//!
//! The spread between the two is the whole point of modeling banks at
//! all: a constant-latency backend charges both workloads the same
//! 70 cycles per miss. Backs the numbers in `BENCH_dram.json`.
//!
//! ```text
//! cargo run --release -p tk-bench --bin dram_bench [-- [--quick] [--instructions N] [--json]]
//! ```

use tk_sim::{BankedDramConfig, DramStats, MemBackendConfig, MemorySystem, OooCore, SystemConfig};
use tk_workloads::SpecBenchmark;

/// One (workload, backend) measurement.
struct Row {
    cycles: u64,
    ipc: f64,
    dram: Option<DramStats>,
}

fn run_one(bench: SpecBenchmark, backend: MemBackendConfig, instructions: u64) -> Row {
    let cfg = SystemConfig::builder()
        .memory(backend)
        .build()
        .expect("dram_bench configs are valid");
    let mut w = bench.build(1);
    let mut core = OooCore::new(&cfg);
    let mut mem = MemorySystem::new(cfg);
    let stats = core.run(&mut w, &mut mem, instructions);
    Row {
        cycles: stats.cycles,
        ipc: stats.instructions as f64 / stats.cycles as f64,
        dram: mem.dram_stats(),
    }
}

fn main() {
    let mut instructions: u64 = 2_000_000;
    let mut emit_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (a.as_str(), None),
        };
        match flag {
            "--quick" => instructions = 100_000,
            "--instructions" => {
                instructions = inline
                    .map(str::to_owned)
                    .or_else(|| args.next())
                    .and_then(|v| v.parse().ok())
                    .expect("--instructions takes an unsigned integer");
            }
            "--json" => emit_json = true,
            other => panic!("unknown argument {other:?}"),
        }
    }

    // Swim streams rows; mcf thrashes them. Both run under every
    // backend so the fixed column anchors the comparison.
    let workloads = [SpecBenchmark::Swim, SpecBenchmark::Mcf];
    let backends: [(&str, MemBackendConfig); 3] = [
        ("fixed", MemBackendConfig::Fixed),
        ("ddr2", MemBackendConfig::Banked(BankedDramConfig::DDR2)),
        ("ddr4", MemBackendConfig::Banked(BankedDramConfig::DDR4)),
    ];

    println!("banked-DRAM row-buffer behavior ({instructions} instructions per run)");
    println!(
        "{:<6} {:<7} {:>12} {:>7} {:>9} {:>9} {:>10} {:>13}",
        "bench", "backend", "cycles", "ipc", "row-hit%", "conflct%", "reads", "avg read lat"
    );
    let mut measured: Vec<(SpecBenchmark, &str, Row)> = Vec::new();
    for &b in &workloads {
        for &(name, backend) in &backends {
            let r = run_one(b, backend, instructions);
            match &r.dram {
                Some(d) => println!(
                    "{:<6} {:<7} {:>12} {:>7.3} {:>8.1}% {:>8.1}% {:>10} {:>13.1}",
                    b.name(),
                    name,
                    r.cycles,
                    r.ipc,
                    d.row_hit_rate() * 100.0,
                    d.row_conflicts as f64
                        / (d.row_hits + d.row_closed + d.row_conflicts).max(1) as f64
                        * 100.0,
                    d.reads,
                    d.avg_read_latency(),
                ),
                None => println!(
                    "{:<6} {:<7} {:>12} {:>7.3} {:>9} {:>9} {:>10} {:>13}",
                    b.name(),
                    name,
                    r.cycles,
                    r.ipc,
                    "-",
                    "-",
                    "-",
                    "-"
                ),
            }
            measured.push((b, name, r));
        }
    }

    if emit_json {
        // Hand-rendered so the recorded file keeps the same shape as
        // BENCH_coreskip.json.
        let section = |f: &dyn Fn(&Row) -> String| {
            measured
                .iter()
                .map(|(b, name, r)| format!("    \"{}_{}\": {}", b.name(), name, f(r)))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let dram_f = |g: &dyn Fn(&DramStats) -> f64| {
            measured
                .iter()
                .filter(|(_, _, r)| r.dram.is_some())
                .map(|(b, name, r)| {
                    format!(
                        "    \"{}_{}\": {:.1}",
                        b.name(),
                        name,
                        g(r.dram.as_ref().expect("filtered to Some"))
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        println!("--- BENCH_dram.json ---");
        println!(
            "{{\n  \"benchmark\": \"banked-DRAM row-buffer behavior, streaming vs pointer-chase\",\n  \
               \"harness\": \"cargo run --release -p tk-bench --bin dram_bench -- --instructions {instructions} --json\",\n  \
               \"workloads\": \"swim (dense sweeps, row-hit-friendly) and mcf (pointer chase, row-conflict-heavy) — {instructions} retired instructions per run\",\n  \
               \"cycles\": {{\n{}\n  }},\n  \
               \"ipc\": {{\n{}\n  }},\n  \
               \"row_hit_pct\": {{\n{}\n  }},\n  \
               \"row_conflict_pct\": {{\n{}\n  }},\n  \
               \"avg_read_latency_cycles\": {{\n{}\n  }}\n}}",
            section(&|r| r.cycles.to_string()),
            section(&|r| format!("{:.3}", r.ipc)),
            dram_f(&|d| d.row_hit_rate() * 100.0),
            dram_f(&|d| {
                d.row_conflicts as f64 / (d.row_hits + d.row_closed + d.row_conflicts).max(1) as f64
                    * 100.0
            }),
            dram_f(&DramStats::avg_read_latency),
        );
    }
}
