//! Host-speed calibration. The benchmark shares a few cores of a host
//! whose speed drifts: the same code has run 2–2.5x slower for over an
//! hour at a time, with almost no steal visible to the guest. Two things
//! take that drift out of the throughput figure:
//!
//! - iterations are timed in process CPU time ([`cpu_time`]), which does
//!   not count time the process waits for a core or the hypervisor
//!   steals from it;
//! - a fixed reference kernel, timed the same way between measured
//!   iterations, tracks how fast the core runs, and throughput is
//!   reported per *reference second* — the CPU time the host takes, at
//!   that moment, to run [`CHUNKS_PER_REF_S`] chunks of the kernel.
//!
//! The drift divides out while a change to the program still moves the
//! figure in full.
//!
//! The kernel mimics the simulator's instruction mix: random
//! read-modify-writes over a cache-sized and a 32 MiB table, ordered-map
//! inserts and removals (pointer chasing, branches, allocation) and
//! hash-map inserts and removals over a table of a few MiB. Its parts
//! were chosen by logging, on a slowed host, each candidate's speed
//! beside each workload's: cache-resident work alone under-corrected the
//! workloads' slow-down (they lost 1.1–1.5x as much in log terms), the
//! 32 MiB table alone over-corrected pager-zipf (0.8x), and this mix came
//! within 0.93–1.19x on all three single-threaded workloads with the
//! least run-to-run spread.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Duration;

use crate::stats::SplitMix;

/// Kernel chunks per reference second: roughly one host second on the
/// 2-vCPU Xeon VM the benchmark was written on, at full speed.
pub const CHUNKS_PER_REF_S: f64 = 20_000.0;

/// Table sizes in `u64`s: 256 KiB (cache-resident) and 32 MiB.
const SMALL: usize = 1 << 15;
const LARGE: usize = 1 << 22;
/// Ordered-map keys are drawn from `0..KEYS`; the map holds about half.
const KEYS: u64 = 1 << 14;
/// Hash-map keys are drawn from `0..HASH_KEYS` (about 4 MiB of table).
const HASH_KEYS: u64 = 1 << 18;
/// Steps per chunk.
const STEPS: usize = 256;

/// Shortest and longest calibration between two iterations.
const MIN_CALIBRATION: Duration = Duration::from_millis(3);
const MAX_CALIBRATION: Duration = Duration::from_millis(100);
/// Calibration time as a share of the iteration it follows.
const CALIBRATION_SHARE: f64 = 0.2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used by this process, all threads together. The kernel
/// leaves out time stolen by the hypervisor (paravirtual steal clock).
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

pub struct Calibrator {
    small: Vec<u64>,
    large: Vec<u64>,
    map: BTreeMap<u64, u64>,
    /// Fixed-key SipHash, so every process does the same work.
    hash: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    rng: SplitMix,
    sink: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut c = Calibrator {
            small: (0..SMALL as u64).collect(),
            large: (0..LARGE as u64).collect(),
            map: BTreeMap::new(),
            hash: HashMap::default(),
            rng: SplitMix::new(0x5eed),
            sink: 0,
        };
        // Bring the maps to their steady sizes and the tables into cache.
        for _ in 0..2_000 {
            c.chunk();
        }
        c
    }
}

impl Calibrator {
    /// One fixed unit of work.
    fn chunk(&mut self) {
        for _ in 0..STEPS {
            let (r, q) = (self.rng.next_u64(), self.rng.next_u64());
            let slot = r as usize & (SMALL - 1);
            self.small[slot] = self.small[slot].rotate_left(7) ^ r;
            let slot = q as usize & (LARGE - 1);
            self.large[slot] = self.large[slot].rotate_left(7) ^ q;
            self.churn_ordered(r);
            self.churn_ordered(q);
            let key = r.rotate_left(21) % HASH_KEYS;
            if r & (1 << 40) == 0 {
                self.hash.insert(key, r);
            } else if let Some(v) = self.hash.remove(&key) {
                self.sink ^= v;
            }
        }
        self.sink ^= self.small[self.sink as usize & (SMALL - 1)];
    }

    /// Inserts or removes one ordered-map key drawn from `r`.
    fn churn_ordered(&mut self, r: u64) {
        let key = (r >> 32) % KEYS;
        if r & (1 << 20) == 0 {
            self.map.insert(key, r);
        } else if let Some(v) = self.map.remove(&key) {
            self.sink ^= v;
        }
    }

    /// Runs whole chunks for a share of the CPU time `after` (clamped)
    /// and returns the host's speed in chunks per CPU second.
    pub fn measure(&mut self, after: Duration) -> f64 {
        let budget = after
            .mul_f64(CALIBRATION_SHARE)
            .clamp(MIN_CALIBRATION, MAX_CALIBRATION);
        let start = cpu_time();
        let mut chunks = 0u64;
        loop {
            self.chunk();
            chunks += 1;
            let elapsed = cpu_time() - start;
            if elapsed >= budget {
                std::hint::black_box(self.sink);
                return chunks as f64 / elapsed.as_secs_f64();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_the_map_stays_bounded() {
        let before = cpu_time();
        let mut c = Calibrator::default();
        assert!(c.measure(Duration::ZERO) > 0.0);
        assert!(cpu_time() - before >= MIN_CALIBRATION);
        assert!(c.map.len() as u64 <= KEYS);
        assert!(c.map.len() as u64 > KEYS / 4);
        assert!(c.hash.len() as u64 <= HASH_KEYS);
        assert!(c.hash.len() as u64 > HASH_KEYS / 4);
    }
}
