//! `economy-stress`: `EconomyConfig::stress()` (576 market-funded lanes,
//! five epochs) lowered by `engine_config`, run by `shard::run_with`
//! with the V++ tenant workload and aggregated by `economy::aggregate`.
//! The only workload where the shard coordinator, market billing, tier
//! demotion and revocation, and per-lane `Machine` construction dominate
//! host time and memory. Tenant churn is an open loop in virtual time.
//!
//! The timed runs use one worker thread, so host numbers do not depend
//! on what else the machine runs; a final check reruns the scenario with
//! two workers and must reproduce the digest.
//!
//! A lane-epoch that ends `starved:` (bankruptcy revoked the lane down to
//! no frames) is a refused operation: it counts against `served_share`
//! and is left out of the latency quantiles, which come from the raw
//! `LaneEpochSample::epoch_us` values, not the bucketed class tails.

use std::collections::{BTreeMap, BTreeSet};

use epcm_core::types::AccessKind;
use epcm_economy::{aggregate, EconomyConfig, EconomyReport, IncomeClass};
use epcm_managers::shard::{self, ShardEngineConfig};
use epcm_managers::{ShardRunReport, TenantWorkload};
use epcm_workloads::runner::VppTenantWorkload;

use crate::spans::Ctx;
use crate::stats::{derive, quantile, share, Digest};
use crate::{Check, Outcome, Workload};

/// Worker threads of the timed runs.
const WORKERS: u32 = 1;

pub struct EconomyStress;

pub struct Prepared {
    cfg: EconomyConfig,
    engine: ShardEngineConfig,
    workers: u32,
}

/// The aggregated report, or the engine report alone when the ledger
/// checks failed (`aggregate` asserts them).
pub struct Finished(Result<EconomyReport, ShardRunReport>);

impl Finished {
    fn shard(&self) -> &ShardRunReport {
        match &self.0 {
            Ok(report) => &report.shard,
            Err(shard) => shard,
        }
    }
}

/// The tenant planner, timed as the `workloads` layer.
struct TimedPlanner<'a> {
    inner: VppTenantWorkload,
    ctx: Ctx<'a>,
}

impl TenantWorkload for TimedPlanner<'_> {
    fn round(
        &self,
        lane: u64,
        epoch: u32,
        round: u32,
        pages: u64,
        leased: u64,
    ) -> Vec<(u64, AccessKind)> {
        self.ctx.span("workloads", "plan", |_| {
            self.inner.round(lane, epoch, round, pages, leased)
        })
    }
}

fn prepare(seed: u64, workers: u32, ctx: Ctx) -> Prepared {
    let cfg = EconomyConfig {
        seed: derive(seed, 4),
        ..EconomyConfig::stress()
    };
    let engine = ctx.span("economy", "engine_config", |_| cfg.engine_config());
    Prepared {
        cfg,
        engine,
        workers,
    }
}

/// `(epoch, lane)` of every lane-epoch the engine reported `starved:`.
/// The coordinator trace closes each epoch with an `epoch N:` line.
pub fn starved_lane_epochs(trace: &[String]) -> BTreeSet<(u32, u64)> {
    let mut starved = BTreeSet::new();
    let mut epoch = 0u32;
    for line in trace {
        let rest = line.split_once(']').map_or(line.as_str(), |(_, rest)| rest);
        let mut words = rest.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("epoch"), Some(_), _) => epoch += 1,
            (Some("lane"), Some(lane), Some("starved:")) => {
                if let Ok(lane) = lane.parse() {
                    starved.insert((epoch, lane));
                }
            }
            _ => {}
        }
    }
    starved
}

/// The spill pool conserved every frame and the market ledger balances.
pub fn ledger_checks(shard: &ShardRunReport) -> Vec<Check> {
    let (residual, bound) = shard
        .economy
        .as_ref()
        .map_or((f64::NAN, 0.0), |l| (l.residual, l.residual_bound));
    vec![
        Check::new("spill pool conserved every frame", shard.conserved),
        Check::new(
            format!("|ledger residual {residual:e}| < bound {bound:e}"),
            residual.abs() < bound,
        ),
    ]
}

impl Workload for EconomyStress {
    type Input = Prepared;
    type Output = Finished;
    const OP: &'static str = "lane-epoch (one active lane through one epoch)";
    const RATE: &'static str = "lane_epochs";

    fn setup(&self, seed: u64, ctx: Ctx) -> Prepared {
        prepare(seed, WORKERS, ctx)
    }

    fn run(&self, p: Prepared, ctx: Ctx) -> Finished {
        let shard = ctx.span("managers", "shard_run_with", |c| {
            let planner = TimedPlanner {
                inner: VppTenantWorkload {
                    seed: p.engine.seed,
                },
                ctx: c,
            };
            shard::run_with(&p.engine, p.workers, &planner)
        });
        if ledger_checks(&shard).iter().all(|c| c.ok) {
            Finished(Ok(
                ctx.span("economy", "aggregate", |_| aggregate(&p.cfg, shard))
            ))
        } else {
            Finished(Err(shard))
        }
    }

    fn outcome(&self, f: Finished) -> Outcome {
        let shard = f.shard();
        let samples = shard.economy.as_ref().map_or(&[][..], |l| &l.samples[..]);
        let starved = starved_lane_epochs(&shard.trace);
        let mut served: Vec<f64> = samples
            .iter()
            .filter(|s| !starved.contains(&(s.epoch, s.lane)))
            .map(|s| s.epoch_us as f64)
            .collect();
        let mut o = Outcome {
            ops: samples.len() as u64,
            refused: (samples.len() - served.len()) as u64,
            sim_us_per_op: share(served.iter().sum(), served.len() as f64),
            checks: ledger_checks(shard),
            ..Outcome::default()
        };
        o.sim_p99_us = quantile(&mut served, 0.99);
        let epoch_p50 = quantile(&mut served, 0.5);
        o.headline = vec![
            ("lane_epochs", o.ops as f64, "count"),
            ("starved_lane_epochs", o.refused as f64, "count"),
            ("epoch_p50_us (served)", epoch_p50, "sim_us"),
            ("epoch_p99_us (served)", o.sim_p99_us, "sim_us"),
        ];
        let lanes = &shard.lanes;
        let sum = |field: fn(&epcm_managers::LaneResult) -> u64| {
            lanes.iter().map(field).sum::<u64>() as f64
        };
        let mut layer = BTreeMap::from([
            ("managers.manager_calls", sum(|l| l.manager_calls)),
            ("core.pages_migrated", sum(|l| l.pages_migrated)),
            (
                "managers.shard.conserved",
                f64::from(u8::from(shard.conserved)),
            ),
            (
                "managers.shard.ledger_residual",
                shard.ledger_residual.abs(),
            ),
            ("managers.market.revocations", sum(|l| l.revocations)),
            ("managers.market.seized", sum(|l| l.seized)),
            ("managers.starved_lane_epochs", o.refused as f64),
            ("economy.demotions", sum(|l| l.demotions)),
            (
                "economy.tier_migrations",
                sum(|l| l.demotions + l.promotions),
            ),
        ]);
        let mut digest = Digest::default();
        digest.put("served_epoch_us", format!("{served:?}"));
        match &f.0 {
            Ok(report) => {
                digest.put("report", format!("{report:?}"));
                layer.insert("economy.peak_dram_rent", report.peak_dram_rent());
                for (class, name) in [
                    (IncomeClass::Premium, "economy.p99_us.premium"),
                    (IncomeClass::Standard, "economy.p99_us.standard"),
                    (IncomeClass::Spot, "economy.p99_us.spot"),
                ] {
                    layer.insert(name, report.class(class).p99_us as f64);
                }
            }
            Err(shard) => digest.put("shard", format!("{shard:?}")),
        }
        o.digest = digest.finish();
        o.layer = layer;
        o
    }

    fn final_checks(&self, seed: u64, reference: &Outcome) -> Vec<Check> {
        let two = self.outcome(self.run(prepare(seed, 2, Ctx::off()), Ctx::off()));
        vec![Check::new(
            "two workers reproduce the one-worker digest",
            two.digest == reference.digest,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> EconomyConfig {
        EconomyConfig {
            lanes: 24,
            epochs: 3,
            spill_frames: 16,
            seed,
            ..EconomyConfig::stress()
        }
    }

    #[test]
    fn starved_parser_assigns_epochs() {
        let trace: Vec<String> = [
            "[     10us] lane  3 starved: no frames until balance recovers",
            "[     12us] epoch 0: demand=1/2 contended=false leased=0 pool=4",
            "[     20us] lane 12 lease +1/1 pool=3",
            "[     22us] lane 12 starved: no frames until balance recovers",
            "[     30us] epoch 1: demand=1/2 contended=false leased=0 pool=4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let got: Vec<_> = starved_lane_epochs(&trace).into_iter().collect();
        assert_eq!(got, vec![(0, 3), (1, 12)]);
    }

    #[test]
    fn ledger_checks_pass_then_trip_on_corruption() {
        let cfg = small(5);
        let good = shard::run_with(
            &cfg.engine_config(),
            1,
            &VppTenantWorkload { seed: cfg.seed },
        );
        assert!(ledger_checks(&good).iter().all(|c| c.ok));
        let mut bad = good.clone();
        bad.conserved = false;
        assert!(!ledger_checks(&bad)[0].ok);
        let mut bad = good;
        let ledger = bad.economy.as_mut().expect("economy ledger");
        ledger.residual = ledger.residual_bound * 2.0;
        assert!(!ledger_checks(&bad)[1].ok);
    }
}
