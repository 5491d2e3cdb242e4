//! The run record: every metric with its unit and sample count, the
//! provenance of the run, and the one-line JSON result.

use crate::stats::Counted;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports in its untraced run; the
/// names and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics that only some workloads can measure, that read 0
/// on a healthy run, or that swing too far between runs of the same code
/// to gate.  They are printed and recorded with their sample counts but
/// are not part of the JSON result (see the README).
pub const WORKLOAD_SPECIFIC: &[(&str, &str)] = &[
    ("lat_p90_ms", "ms"),
    ("lat_p95_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("fail_share", "ratio"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.  A
/// layer a workload does not pass through reads 0 with a sample count of 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("build.engine_s", "s"),
    ("build.index_mib", "MiB"),
    ("build.servers_ready_s", "s"),
    ("planner.warmup_s", "s"),
    ("planner.hit_ratio", "ratio"),
    ("planner.invalidations_per_update", "count"),
    ("planner.explore_share", "ratio"),
    ("planner.pick_share.AIS", "ratio"),
    ("planner.pick_share.AIS-", "ratio"),
    ("planner.pick_share.AIS-BID", "ratio"),
    ("planner.pick_share.SFA", "ratio"),
    ("planner.pick_share.SPA", "ratio"),
    ("planner.pick_share.TSA", "ratio"),
    ("planner.pick_share.TSA-QC", "ratio"),
    ("planner.cold_oracle_ratio", "ratio"),
    ("engine.run_ms.p50", "ms"),
    ("engine.social_pops", "count"),
    ("engine.spatial_pops", "count"),
    ("engine.index_pops", "count"),
    ("engine.relaxed_edges", "count"),
    ("engine.evaluated_users", "count"),
    ("engine.distance_calls", "count"),
    ("engine.useful_ratio", "ratio"),
    ("engine.ns_per_edge", "ns"),
    ("shard.executed_per_query", "count"),
    ("shard.skipped_share", "ratio"),
    ("wire.round_trips_per_query", "count"),
    ("wire.bytes_per_query", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.query_us.p50", "us"),
    ("server.busy_share", "ratio"),
    ("coord.shard_rtt_us.p50", "us"),
    ("coord.origin_round_trips", "count"),
    ("coord.relocations_per_update", "count"),
    ("coord.unattributed_share", "ratio"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Where and on what a run was made.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Workload seed (`--seed`).
    pub workload_seed: u64,
    /// Seed of the generated dataset.
    pub dataset_seed: u64,
    /// Users in the dataset.
    pub users: usize,
    /// Shard-server processes (0 for an in-process engine).
    pub shards: usize,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Measured seconds (`--seconds`).
    pub seconds: f64,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Source revision of the measured code.
    pub commit: String,
    /// `rustc --version` of the build.
    pub rustc: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Counted>,
    /// Operations attempted in the timed phases.
    pub attempted: usize,
    /// Errors, timeouts, refusals, degraded and wrong answers.
    pub failed: usize,
    /// Answers that differed from the reference.
    pub wrong: usize,
    /// Why the run is invalid, if it is.
    pub invalid: Option<String>,
}

/// The declared name equal to `name`, with its unit.
fn declared(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(WORKLOAD_SPECIFIC)
        .chain(PER_LAYER)
        .find(|(known, _)| *known == name)
        .copied()
}

impl Report {
    /// Records metric `name` (one of the lists above).
    ///
    /// # Panics
    ///
    /// On a name no list declares, or a non-finite value.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let (key, _) = declared(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(key, Counted { value, n });
    }

    /// Records a summary that may be missing (no samples reads 0).
    pub fn set_counted(&mut self, name: &str, counted: Option<Counted>) {
        let c = counted.unwrap_or(Counted { value: 0.0, n: 0 });
        self.set(name, c.value, c.n);
    }

    /// Whether the answers were right and the run itself was valid.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.invalid.is_none()
    }

    fn listed(&self, traced: bool) -> Vec<(&'static str, &'static str, Counted)> {
        let names: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END
                .iter()
                .chain(WORKLOAD_SPECIFIC)
                .copied()
                .collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| {
                let c = self
                    .values
                    .get(name)
                    .copied()
                    .unwrap_or(Counted { value: 0.0, n: 0 });
                (name, unit, c)
            })
            .collect()
    }

    /// The human-readable table: every metric with unit and sample count.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (name, unit, c) in self.listed(traced) {
            let _ = writeln!(out, "{name:<36} {:>16.6} {unit:<6} n={}", c.value, c.n);
        }
        let _ = writeln!(
            out,
            "attempted={} failed={} wrong={} valid={}",
            self.attempted,
            self.failed,
            self.wrong,
            self.invalid.as_deref().unwrap_or("yes")
        );
        out
    }

    /// The run record kept on disk: provenance plus every metric.
    pub fn record_json(&self, p: &Provenance) -> String {
        let mut metrics = String::new();
        for (name, unit, c) in self.listed(p.traced) {
            if !metrics.is_empty() {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
                quote(name),
                c.value,
                quote(unit),
                c.n
            );
        }
        format!(
            "{{\"workload\":{},\"workload_seed\":{},\"dataset_seed\":{},\"users\":{},\
             \"shards\":{},\"traced\":{},\"seconds\":{},\"cores\":{},\"commit\":{},\
             \"rustc\":{},\"correct\":{},\"invalid\":{},\"attempted\":{},\"failed\":{},\
             \"wrong\":{},\"metrics\":{{{metrics}}}}}",
            quote(&p.workload),
            p.workload_seed,
            p.dataset_seed,
            p.users,
            p.shards,
            p.traced,
            p.seconds,
            p.cores,
            quote(&p.commit),
            quote(&p.rustc),
            self.correct(),
            self.invalid.as_deref().map_or("null".to_string(), quote),
            self.attempted,
            self.failed,
            self.wrong,
        )
    }

    /// The one-line result: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).map_or(0.0, |c| c.value);
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
