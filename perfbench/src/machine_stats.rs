//! Per-layer counters read from a V++ `Machine` through its public
//! accessors, summed over the machines of one iteration.

use std::collections::BTreeMap;

use epcm_managers::{DefaultManagerStats, DefaultSegmentManager, Machine};

use crate::stats::{share, Digest};

#[derive(Debug, Default)]
pub struct MachineTotals {
    faults_missing: u64,
    faults_protection: u64,
    faults_cow: u64,
    crossings: u64,
    pages_migrated: u64,
    zero_fills: u64,
    lookups: u64,
    lookup_hits: u64,
    manager_calls: u64,
    manager_time_us: u64,
    default: DefaultManagerStats,
    disk_reads: u64,
    disk_writes: u64,
}

/// The default manager's own counters, if `m` runs one.
pub fn default_stats(m: &Machine) -> Option<DefaultManagerStats> {
    let id = m.default_manager()?;
    let dm = m
        .manager(id)?
        .as_any()
        .downcast_ref::<DefaultSegmentManager>()?;
    Some(dm.manager_stats())
}

impl MachineTotals {
    /// Adds `m`'s lifetime counters, and digests its full metrics
    /// registry under `label`.
    pub fn add(&mut self, m: &Machine, label: &str, digest: &mut Digest) {
        let k = m.kernel_stats();
        self.faults_missing += k.faults_missing;
        self.faults_protection += k.faults_protection;
        self.faults_cow += k.faults_cow;
        self.crossings += k.crossings;
        self.pages_migrated += k.pages_migrated;
        self.zero_fills += k.zero_fills;
        let map = m.kernel().mapping_stats();
        self.lookups += map.lookups();
        self.lookup_hits += map.direct_hits + map.overflow_hits;
        let s = m.stats();
        self.manager_calls += s.manager_calls;
        self.manager_time_us += s.manager_time.as_micros();
        if let Some(d) = default_stats(m) {
            self.default.faults += d.faults;
            self.default.reclaimed += d.reclaimed;
            self.default.writebacks += d.writebacks;
            self.default.swap_ins += d.swap_ins;
            self.default.laundry_rescues += d.laundry_rescues;
        }
        self.disk_reads += m.store().read_count();
        self.disk_writes += m.store().write_count();
        digest.put(label, m.metrics().snapshot().to_json());
        digest.put(
            "disk",
            format!("{} {}", m.store().read_count(), m.store().write_count()),
        );
    }

    pub fn faults(&self) -> u64 {
        self.faults_missing + self.faults_protection + self.faults_cow
    }

    /// Simulated µs per fault, trap to resume.
    pub fn virt_us_per_fault(&self) -> f64 {
        share(self.manager_time_us as f64, self.faults() as f64)
    }

    pub fn default_faults(&self) -> u64 {
        self.default.faults
    }

    pub fn write_layer(&self, layer: &mut BTreeMap<&'static str, f64>) {
        let d = &self.default;
        for (name, value) in [
            ("core.faults_missing", self.faults_missing as f64),
            ("core.faults_protection", self.faults_protection as f64),
            ("core.faults_cow", self.faults_cow as f64),
            ("core.crossings", self.crossings as f64),
            ("core.pages_migrated", self.pages_migrated as f64),
            ("core.zero_fills", self.zero_fills as f64),
            (
                "core.translate.hit_rate",
                share(self.lookup_hits as f64, self.lookups as f64),
            ),
            ("core.virt_us_per_fault", self.virt_us_per_fault()),
            ("managers.manager_calls", self.manager_calls as f64),
            ("managers.manager_time_us", self.manager_time_us as f64),
            ("managers.default.reclaimed", d.reclaimed as f64),
            ("managers.default.writebacks", d.writebacks as f64),
            ("managers.default.swap_ins", d.swap_ins as f64),
            ("managers.default.laundry_rescues", d.laundry_rescues as f64),
            (
                "managers.default.laundry_rescue_share",
                share(d.laundry_rescues as f64, d.reclaimed as f64),
            ),
            ("sim.disk.reads", self.disk_reads as f64),
            ("sim.disk.writes", self.disk_writes as f64),
        ] {
            layer.insert(name, value);
        }
    }
}
