//! `paper-apps`: the Table 2/3 path. diff, uncompress and latex run on a
//! fresh default-manager V++ machine (`run_vpp_app`) and on the Ultrix
//! baseline (`run_on_ultrix`). The working set fits in memory, so the
//! work is the core fault and UIO paths plus per-run machine
//! construction; reclaim, disk, market and shards are skipped.
//!
//! The applications are fixed by the paper; the seed only permutes the
//! order in which they run.

use std::collections::BTreeMap;

use epcm_managers::{Machine, MachineError, TraceStep};
use epcm_workloads::apps::{table2_apps, PaperRow};
use epcm_workloads::runner::{run_on_ultrix, run_vpp_app, PAPER_FRAMES};
use epcm_workloads::{AppSpec, RunReport};

use crate::machine_stats::MachineTotals;
use crate::spans::Ctx;
use crate::stats::{derive, quantile, share, Digest, SplitMix};
use crate::{Check, Outcome, Workload};

pub struct PaperApps;

/// Table 3 manager calls as this model produces them mechanistically
/// (the paper reports 379/197/250; the gap is part of `table3_err_pct`).
fn expected_manager_calls(app: &str) -> u64 {
    match app {
        "diff" => 376,
        "uncompress" => 198,
        "latex" => 250,
        other => panic!("no Table 3 row for {other}"),
    }
}

fn vpp_span_name(app: &str) -> &'static str {
    match app {
        "diff" => "run_vpp_app.diff",
        "uncompress" => "run_vpp_app.uncompress",
        "latex" => "run_vpp_app.latex",
        other => panic!("no span name for {other}"),
    }
}

/// One application's results on both systems.
pub struct AppRun {
    spec: AppSpec,
    paper: PaperRow,
    machine: Machine,
    vpp: Result<RunReport, MachineError>,
    steps: Vec<TraceStep>,
    ultrix: RunReport,
}

impl Workload for PaperApps {
    type Input = Vec<(AppSpec, PaperRow)>;
    type Output = Vec<AppRun>;
    const OP: &'static str = "ref (4 KB I/O call or heap page touch, both systems)";
    const RATE: &'static str = "refs";

    fn setup(&self, seed: u64, _ctx: Ctx) -> Self::Input {
        let mut apps = table2_apps();
        let mut rng = SplitMix::new(derive(seed, 1));
        for i in (1..apps.len()).rev() {
            apps.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        apps
    }

    fn run(&self, input: Self::Input, ctx: Ctx) -> Self::Output {
        input
            .into_iter()
            .map(|(spec, paper)| {
                let mut machine = ctx.span("managers", "machine_build", |_| {
                    Machine::with_default_manager(PAPER_FRAMES)
                });
                machine.enable_trace();
                let vpp = ctx.span("workloads", vpp_span_name(&spec.name), |_| {
                    run_vpp_app(&spec, &mut machine)
                });
                let steps = machine.take_trace();
                let ultrix = ctx.span("baseline", "run_on_ultrix", |_| {
                    run_on_ultrix(&spec, PAPER_FRAMES)
                });
                AppRun {
                    spec,
                    paper,
                    machine,
                    vpp,
                    steps,
                    ultrix,
                }
            })
            .collect()
    }

    fn outcome(&self, mut runs: Self::Output) -> Outcome {
        runs.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
        let mut o = Outcome::default();
        let mut digest = Digest::default();
        let mut totals = MachineTotals::default();
        let mut fault_us = Vec::new();
        let (mut vpp_refs, mut vpp_us) = (0u64, 0u64);
        let (mut ultrix_s, mut ultrix_zero_fills) = (0.0, 0u64);
        let mut err_pct = Vec::new();
        for run in &runs {
            let name = &run.spec.name;
            totals.add(&run.machine, name, &mut digest);
            fault_us.extend(run.steps.iter().filter_map(|s| match s {
                TraceStep::Resumed { elapsed } => Some(elapsed.as_micros() as f64),
                _ => None,
            }));
            let u = &run.ultrix;
            o.ops += u.read_ops + u.write_ops + run.spec.heap_pages;
            ultrix_s += u.elapsed.as_secs_f64();
            ultrix_zero_fills += u.zero_fills;
            digest.put("ultrix", format!("{u:?}"));
            match &run.vpp {
                Ok(v) => {
                    let refs = v.read_ops + v.write_ops + run.spec.heap_pages;
                    o.ops += refs;
                    vpp_refs += refs;
                    vpp_us += v.elapsed.saturating_sub(run.spec.compute_vpp).as_micros();
                    digest.put("vpp", format!("{v:?}"));
                    o.checks.extend(table3_checks(&run.spec, v));
                    for (got, paper) in [
                        (v.manager_calls, run.paper.manager_calls),
                        (v.migrate_calls, run.paper.migrate_calls),
                    ] {
                        err_pct
                            .push(share((got as f64 - paper as f64).abs(), paper as f64) * 100.0);
                    }
                }
                Err(e) => {
                    o.errors += 1;
                    o.checks
                        .push(Check::new(format!("{name}: V++ run failed: {e}"), false));
                }
            }
        }
        digest.put("fault_us", format!("{fault_us:?}"));
        let table3_err_pct = err_pct.iter().sum::<f64>() / err_pct.len().max(1) as f64;
        o.sim_us_per_op = share(vpp_us as f64, vpp_refs as f64);
        o.sim_p99_us = quantile(&mut fault_us, 0.99);
        o.digest = digest.finish();
        o.headline = vec![
            ("virt_us_per_ref", o.sim_us_per_op, "sim_us"),
            ("virt_us_per_fault", totals.virt_us_per_fault(), "sim_us"),
            ("fault_p99_us", o.sim_p99_us, "sim_us"),
            ("paper_err_pct (Table 3 counts)", table3_err_pct, "%"),
        ];
        let mut layer = BTreeMap::new();
        totals.write_layer(&mut layer);
        layer.insert("baseline.elapsed_s", ultrix_s);
        layer.insert("baseline.zero_fills", ultrix_zero_fills as f64);
        layer.insert("workloads.table3_err_pct", table3_err_pct);
        o.layer = layer;
        o
    }
}

/// The Table 3 mechanistic counts: `MigratePages` calls as the spec
/// implies, manager calls as the model produces them.
pub fn table3_checks(spec: &AppSpec, v: &RunReport) -> Vec<Check> {
    let name = &spec.name;
    vec![
        Check::new(
            format!(
                "{name}: MigratePages calls {} == {}",
                v.migrate_calls,
                spec.expected_migrate_calls()
            ),
            v.migrate_calls == spec.expected_migrate_calls(),
        ),
        Check::new(
            format!(
                "{name}: manager calls {} == {}",
                v.manager_calls,
                expected_manager_calls(name)
            ),
            v.manager_calls == expected_manager_calls(name),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcm_workloads::runner::run_on_vpp;

    #[test]
    fn table3_checks_pass_then_trip_on_corruption() {
        for (spec, _) in table2_apps() {
            let good = run_on_vpp(&spec, PAPER_FRAMES).expect("paper app runs");
            assert!(table3_checks(&spec, &good).iter().all(|c| c.ok));
            let mut bad = good.clone();
            bad.migrate_calls += 1;
            assert!(!table3_checks(&spec, &bad)[0].ok);
            let mut bad = good;
            bad.manager_calls -= 1;
            assert!(!table3_checks(&spec, &bad)[1].ok);
        }
    }
}
