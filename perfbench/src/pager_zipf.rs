//! `pager-zipf`: one flat default-manager machine, overcommitted 4x: a
//! 2 048-frame machine and an 8 192-page anonymous segment. The
//! benchmark generates a seeded Zipf(0.9) reference stream with 30 %
//! writes, feeds it to `Machine::touch`, and calls `Machine::tick` every
//! 1 000 references. This drives replacement, laundry, swap-in and dirty
//! writeback, which `paper-apps` skips: major faults, writes beside reads.
//!
//! Set-up generates the stream, builds the machine and touches the
//! hottest pages until the frames are full, so the timed stream starts
//! in steady state.

use std::collections::BTreeMap;
use std::time::Instant;

use epcm_core::types::{AccessKind, SegmentId, SegmentKind};
use epcm_managers::Machine;

use crate::machine_stats::MachineTotals;
use crate::spans::Ctx;
use crate::stats::{derive, quantile, Digest, SplitMix};
use crate::{Check, Outcome, Workload};

const FRAMES: usize = 2_048;
const PAGES: u64 = 8_192;
const REFS: usize = 200_000;
const THETA: f64 = 0.9;
const WRITE_SHARE: f64 = 0.3;
const TICK_EVERY: usize = 1_000;

pub struct PagerZipf;

/// A seeded Zipf(`THETA`) stream over the segment's pages. Page ranks
/// are scattered by a seeded permutation so the hot set is not one
/// contiguous range. Returns the stream and the pages hottest-first.
pub fn zipf_stream(seed: u64) -> (Vec<(u64, AccessKind)>, Vec<u64>) {
    let mut rng = SplitMix::new(derive(seed, 2));
    let mut by_rank: Vec<u64> = (0..PAGES).collect();
    for i in (1..by_rank.len()).rev() {
        by_rank.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut cdf = Vec::with_capacity(PAGES as usize);
    let mut total = 0.0;
    for rank in 0..PAGES {
        total += 1.0 / ((rank + 1) as f64).powf(THETA);
        cdf.push(total);
    }
    let stream = (0..REFS)
        .map(|_| {
            let u = rng.unit() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(PAGES as usize - 1);
            let kind = if rng.unit() < WRITE_SHARE {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (by_rank[rank], kind)
        })
        .collect();
    (stream, by_rank)
}

pub struct Prepared {
    machine: Machine,
    seg: SegmentId,
    stream: Vec<(u64, AccessKind)>,
    errors: u64,
}

pub struct Finished {
    machine: Machine,
    errors: u64,
    /// Simulated µs of each touch that faulted.
    fault_us: Vec<u64>,
    elapsed_us: u64,
}

impl Workload for PagerZipf {
    type Input = Prepared;
    type Output = Finished;
    const OP: &'static str = "ref (one Machine::touch)";
    const RATE: &'static str = "refs";

    fn setup(&self, seed: u64, ctx: Ctx) -> Prepared {
        let (stream, hottest) = zipf_stream(seed);
        let mut machine = ctx.span("managers", "machine_build", |_| {
            Machine::with_default_manager(FRAMES)
        });
        let seg = machine
            .create_segment(SegmentKind::Anonymous, PAGES)
            .expect("the default manager creates an anonymous segment");
        let errors = ctx.span("core", "warm_up", |_| {
            hottest[..FRAMES]
                .iter()
                .filter(|&&p| machine.touch(seg, p, AccessKind::Write).is_err())
                .count() as u64
        });
        Prepared {
            machine,
            seg,
            stream,
            errors,
        }
    }

    fn run(&self, input: Prepared, ctx: Ctx) -> Finished {
        let Prepared {
            mut machine,
            seg,
            stream,
            mut errors,
        } = input;
        let m = &mut machine;
        let mut fault_us = Vec::new();
        let start = m.now();
        let mut faults = m.kernel_stats().faults();
        for (i, &(page, kind)) in stream.iter().enumerate() {
            let v0 = m.now();
            let h0 = ctx.is_on().then(Instant::now);
            if m.touch(seg, page, kind).is_err() {
                errors += 1;
            }
            let after = m.kernel_stats().faults();
            if let Some(h0) = h0 {
                let name = if after != faults {
                    "touch_fault"
                } else {
                    "touch_hit"
                };
                ctx.leaf("core", name, h0, Instant::now());
            }
            if after != faults {
                fault_us.push(m.now().duration_since(v0).as_micros());
            }
            faults = after;
            if (i + 1) % TICK_EVERY == 0 {
                if ctx.span("managers", "tick", |_| m.tick()).is_err() {
                    errors += 1;
                }
                faults = m.kernel_stats().faults();
            }
        }
        let elapsed_us = m.now().duration_since(start).as_micros();
        Finished {
            machine,
            errors,
            fault_us,
            elapsed_us,
        }
    }

    fn outcome(&self, f: Finished) -> Outcome {
        let mut digest = Digest::default();
        let mut totals = MachineTotals::default();
        totals.add(&f.machine, "machine", &mut digest);
        let mut fault_us: Vec<f64> = f.fault_us.iter().map(|&us| us as f64).collect();
        let mut o = Outcome {
            ops: REFS as u64,
            errors: f.errors,
            sim_us_per_op: f.elapsed_us as f64 / REFS as f64,
            sim_p99_us: quantile(&mut fault_us, 0.99),
            checks: pager_checks(f.errors, totals.default_faults(), totals.faults()),
            ..Outcome::default()
        };
        digest.put("elapsed_us", f.elapsed_us);
        digest.put("fault_us", format!("{:?}", f.fault_us));
        o.digest = digest.finish();
        o.headline = vec![
            ("virt_us_per_ref", o.sim_us_per_op, "sim_us"),
            ("virt_us_per_fault", totals.virt_us_per_fault(), "sim_us"),
            ("fault_p99_us", o.sim_p99_us, "sim_us"),
            ("faults", fault_us.len() as f64, "count"),
        ];
        let mut layer = BTreeMap::new();
        totals.write_layer(&mut layer);
        o.layer = layer;
        o
    }
}

/// Zero failed touches or ticks, and every kernel fault handled by the
/// default manager (the only manager on the machine).
pub fn pager_checks(errors: u64, manager_faults: u64, kernel_faults: u64) -> Vec<Check> {
    vec![
        Check::new(format!("{errors} touch/tick errors == 0"), errors == 0),
        Check::new(
            format!(
                "default-manager faults {manager_faults} == kernel missing+protection+cow {kernel_faults}"
            ),
            manager_faults == kernel_faults,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_skewed_and_in_range() {
        let (a, hottest) = zipf_stream(7);
        assert_eq!(a, zipf_stream(7).0);
        assert_ne!(a, zipf_stream(8).0);
        assert!(a.iter().all(|&(p, _)| p < PAGES));
        let hot = a.iter().filter(|&&(p, _)| p == hottest[0]).count();
        let cold = a
            .iter()
            .filter(|&&(p, _)| p == hottest[PAGES as usize - 1])
            .count();
        assert!(hot > 100 * cold.max(1), "hot {hot} cold {cold}");
        let writes = a.iter().filter(|&&(_, k)| k == AccessKind::Write).count();
        assert!((0.28..0.32).contains(&(writes as f64 / REFS as f64)));
    }

    #[test]
    fn pager_checks_pass_then_trip_on_corruption() {
        let mut m = Machine::with_default_manager(64);
        let seg = m.create_segment(SegmentKind::Anonymous, 256).unwrap();
        for p in 0..256 {
            m.touch(seg, p, AccessKind::Write).unwrap();
        }
        let mut totals = MachineTotals::default();
        totals.add(&m, "m", &mut Digest::default());
        let (dm, k) = (totals.default_faults(), totals.faults());
        assert!(k > 0);
        assert!(pager_checks(0, dm, k).iter().all(|c| c.ok));
        assert!(!pager_checks(1, dm, k)[0].ok);
        assert!(!pager_checks(0, dm, k + 1)[1].ok);
    }
}
