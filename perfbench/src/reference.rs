//! A fixed computation that measures how fast the host runs right now.
//!
//! The virtual machine this benchmark was written on shares its physical
//! cores and memory with other tenants, and its speed drifts by a fifth
//! to a third over minutes. Timing this computation between repetitions
//! gives the run a scale that drifts with the host: its times are
//! multiplied by `NOMINAL_S` ÷ the median reference time, so they read as
//! seconds on a host where the reference takes `NOMINAL_S`. The computation uses none of the simulator's code,
//! so no change to the simulator can move it.
//!
//! Its three phases mimic what the simulator spends host time on:
//! dependent loads that miss every cache, read-modify-write traffic over
//! a table the size of a private cache, and branchy arithmetic over a
//! table that fits the first-level cache.

use std::time::Instant;

use crate::batch::cpu_seconds;

/// The reference time a nominal host takes; normalised times read as
/// seconds on such a host. About what this benchmark's 2-vCPU host took
/// in a quiet spell.
pub const NOMINAL_S: f64 = 0.6;

/// Iterations of each phase: about 0.2 s each on the nominal host.
const MEMORY_ITERS: u64 = 1_000_000;
const CACHE_ITERS: u64 = 20_000_000;
const CORE_ITERS: u64 = 40_000_000;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One thread's tables: 32 MiB, 1 MiB and 16 KiB of `u64`.
struct Tables {
    memory: Vec<u64>,
    cache: Vec<u64>,
    core: Vec<u64>,
}

impl Tables {
    fn new(thread: u64) -> Self {
        let fill = |n: u64| (0..n).map(|i| splitmix(i ^ (thread << 40))).collect();
        Tables {
            memory: fill(1 << 22),
            cache: fill(1 << 17),
            core: fill(1 << 11),
        }
    }

    fn run(&mut self) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mask = self.memory.len() - 1;
        for i in 0..MEMORY_ITERS {
            let j = x as usize & mask;
            x = splitmix(x ^ self.memory[j]);
            self.memory[j] = self.memory[j].wrapping_add(i);
        }
        let mask = self.cache.len() - 1;
        for i in 0..CACHE_ITERS {
            let j = x as usize & mask;
            x ^= self.cache[j];
            if x & 3 == 0 {
                self.cache[j] = x.wrapping_add(i);
            } else {
                x = x.rotate_left(9).wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
        }
        let mask = self.core.len() - 1;
        for _ in 0..CORE_ITERS {
            let j = (x >> 17) as usize & mask;
            x = x.rotate_left(5) ^ self.core[j];
            if x & 1 == 0 {
                self.core[j] = x;
            } else {
                x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
        }
        x
    }
}

/// The reference computation on as many threads as the workload keeps
/// busy, each with its own tables.
pub struct Reference {
    tables: Vec<Tables>,
}

impl Reference {
    /// Allocates the tables and runs the computation once untimed, so
    /// page faults and cold caches stay out of every timing.
    pub fn new(threads: usize) -> Self {
        let mut r = Reference {
            tables: (0..threads as u64).map(Tables::new).collect(),
        };
        r.time();
        r
    }

    /// Runs the computation once on every thread; returns the wall
    /// seconds and whether anything else in the process used a CPU
    /// meanwhile (which would slow the reference and flatter every
    /// normalised time).
    pub fn time(&mut self) -> (f64, bool) {
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        std::thread::scope(|s| {
            for tables in &mut self.tables {
                s.spawn(move || std::hint::black_box(tables.run()));
            }
        });
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        // `cpu_seconds` counts in 10 ms ticks.
        let busy_elsewhere = cpu > self.tables.len() as f64 * wall * 1.1 + 0.03;
        (wall, busy_elsewhere)
    }
}
