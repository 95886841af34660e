//! `dbms-table4`: the four `IndexStrategy` configurations at paper scale
//! through `epcm_dbms::run`. The DBMS engine, its lock manager and the
//! `sim` event queue do all the work; no `Machine` is touched, so a
//! kernel or manager optimisation must show no change here. Arrivals are
//! an open loop in virtual time (40 TPS Poisson) inside each run.

use std::collections::BTreeMap;

use epcm_bench::table4::paper_values;
use epcm_dbms::{run, DbmsConfig, DbmsReport, IndexStrategy};

use crate::spans::Ctx;
use crate::stats::{derive, share, Digest};
use crate::{Check, Outcome, Workload};

pub struct DbmsTable4;

fn span_name(s: IndexStrategy) -> &'static str {
    match s {
        IndexStrategy::NoIndex => "run.no_index",
        IndexStrategy::InMemory => "run.in_memory",
        IndexStrategy::Paging => "run.paging",
        IndexStrategy::Regeneration => "run.regeneration",
    }
}

impl Workload for DbmsTable4 {
    type Input = Vec<DbmsConfig>;
    type Output = Vec<(DbmsConfig, DbmsReport)>;
    const OP: &'static str = "txn (simulated transaction, warm-up included)";
    const RATE: &'static str = "txns";

    fn setup(&self, seed: u64, _ctx: Ctx) -> Self::Input {
        IndexStrategy::all()
            .into_iter()
            .map(|s| DbmsConfig {
                seed: derive(seed, 3),
                ..DbmsConfig::paper(s)
            })
            .collect()
    }

    fn run(&self, configs: Self::Input, ctx: Ctx) -> Self::Output {
        configs
            .into_iter()
            .map(|c| {
                let report = ctx.span("dbms", span_name(c.strategy), |_| run(&c));
                (c, report)
            })
            .collect()
    }

    fn outcome(&self, runs: Self::Output) -> Outcome {
        let mut o = Outcome::default();
        let mut digest = Digest::default();
        let mut pooled: BTreeMap<u64, u64> = BTreeMap::new();
        let (mut total_us, mut measured) = (0u64, 0u64);
        let (mut grants, mut waits, mut restorations) = (0u64, 0u64, 0u64);
        let mut worst_err = Vec::new();
        for (config, r) in &runs {
            o.ops += config.txn_count;
            o.checks.push(count_check(config, r));
            digest.put(span_name(r.strategy), format!("{r:?}"));
            total_us += r.all.total().as_micros();
            measured += r.all.count();
            for (lower, count) in r.histogram.iter() {
                *pooled.entry(lower.as_micros()).or_default() += count;
            }
            grants += r.lock_contention.0;
            waits += r.lock_contention.1;
            restorations += r.index_restorations;
            let (_, paper_worst) = paper_values(r.strategy);
            worst_err.push((r.worst_ms() - paper_worst).abs() / paper_worst * 100.0);
        }
        let avg_us = share(total_us as f64, measured as f64);
        let p99_us = interpolated_quantile(&pooled, 0.99);
        let worst_err_pct = worst_err.iter().sum::<f64>() / worst_err.len().max(1) as f64;
        o.sim_us_per_op = avg_us;
        o.sim_p99_us = p99_us;
        o.digest = digest.finish();
        o.headline = vec![
            ("txn_avg_ms", avg_us / 1e3, "sim_ms"),
            ("txn_p99_ms", p99_us / 1e3, "sim_ms"),
            ("paper_err_pct (Table 4 worst case)", worst_err_pct, "%"),
        ];
        o.layer = BTreeMap::from([
            ("dbms.lock_grants", grants as f64),
            ("dbms.lock_waits", waits as f64),
            (
                "dbms.lock_wait_share",
                share(waits as f64, (grants + waits) as f64),
            ),
            ("dbms.index_restorations", restorations as f64),
            ("dbms.table4_worst_err_pct", worst_err_pct),
        ]);
        o
    }
}

/// Quantile `q` of a log2-bucketed distribution (`lower bound -> count`,
/// buckets `[2^i, 2^(i+1))` and `[0, 2)`), interpolated linearly by rank
/// inside its bucket. The DBMS publishes only these buckets; a bucket
/// edge would move only when the tail crossed a power of two.
pub fn interpolated_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    let target = (q * total as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (&lower, &count) in buckets {
        let count = count as f64;
        if seen + count >= target {
            let upper = if lower == 0 { 2.0 } else { 2.0 * lower as f64 };
            return lower as f64 + (target - seen) / count * (upper - lower as f64);
        }
        seen += count;
    }
    0.0
}

/// Every simulated transaction past the warm-up was measured.
pub fn count_check(config: &DbmsConfig, r: &DbmsReport) -> Check {
    let want = config.txn_count - config.warmup;
    Check::new(
        format!(
            "{}: measured txns {} == {want}",
            r.strategy.label(),
            r.all.count()
        ),
        r.all.count() == want,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcm_sim::clock::Micros;

    #[test]
    fn interpolated_quantile_stays_in_its_bucket() {
        let buckets = BTreeMap::from([(0, 10), (1024, 80), (2048, 10)]);
        assert_eq!(
            interpolated_quantile(&buckets, 0.5),
            1024.0 + 40.0 / 80.0 * 1024.0
        );
        assert_eq!(interpolated_quantile(&buckets, 1.0), 4096.0);
        assert_eq!(interpolated_quantile(&BTreeMap::new(), 0.99), 0.0);
    }

    #[test]
    fn count_check_passes_then_trips_on_corruption() {
        let config = DbmsConfig::quick(IndexStrategy::InMemory);
        let mut r = run(&config);
        assert!(count_check(&config, &r).ok);
        r.all.record(Micros::from_millis(1));
        assert!(!count_check(&config, &r).ok);
    }
}
