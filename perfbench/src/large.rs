//! `engine-large`: the paper's algorithm on one in-process engine over a
//! dataset whose index is several times the L2 cache — no planner, no
//! wire, no scatter.

use crate::check::{agrees, reference};
use crate::inputs::{dataset, located_users, Shape, DATASET_SEED};
use crate::procfs::vm_hwm_kib;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{mean, median, percentile, ratio};
use crate::Env;
use ssrq_core::{Algorithm, GeoSocialEngine, QueryResult};
use std::time::{Duration, Instant};

/// Users of the dataset.
pub const USERS: usize = 200_000;
/// Engines built per run; `setup_s` is the median of their set-up times.
const SETUP_REPEATS: usize = 3;
/// Distinct requests of the catalogue: four users for each (k, α) pair.
/// A run sends it about four times over, so the partial last round, whose
/// mix depends on the seed, is a small part of the run.
const CATALOGUE: usize = 36;

/// Runs `engine-large`: one closed-loop client sending the catalogue's
/// `Ais` requests (k ∈ {1, 10, 50}, α ∈ {0.2, 0.3, 0.5}) for the measured
/// time.
pub fn engine_large(env: &Env, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut generate = Vec::new();
    let mut build = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        drop(engine.take());
        let started = Instant::now();
        let data = dataset(USERS);
        generate.push(started.elapsed().as_secs_f64());
        let built = Instant::now();
        let e = GeoSocialEngine::builder(data)
            .build()
            .map_err(|e| format!("engine build: {e}"))?;
        build.push(built.elapsed().as_secs_f64());
        setups.push(started.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one setup");
    report.set("setup_s", median(&setups), setups.len());
    report.set("data.generate_s", median(&generate), generate.len());
    report.set("build.engine_s", median(&build), build.len());
    let index = engine.memory_breakdown().total_bytes() as f64 / (1024.0 * 1024.0);
    report.set("build.index_mib", index, 1);

    // A fixed catalogue of requests, like the dataset; the workload seed
    // sets the order they are sent in, round after round.
    let mut users = located_users(engine.dataset());
    Rng::stream(DATASET_SEED, 1).shuffle(&mut users);
    let catalogue: Vec<Shape> = users[..CATALOGUE]
        .iter()
        .enumerate()
        .map(|(i, &u)| Shape::plain(u, i, &[1, 10, 50], &[0.2, 0.3, 0.5]))
        .collect();
    let mut order: Vec<usize> = (0..CATALOGUE).collect();
    Rng::stream(env.seed, 1).shuffle(&mut order);

    let measured = Duration::from_secs_f64(env.seconds);
    let mut runs: Vec<(usize, Duration, Result<QueryResult, String>)> = Vec::new();
    let started = Instant::now();
    for &i in order.iter().cycle() {
        if started.elapsed() >= measured {
            break;
        }
        let request = catalogue[i].request(Algorithm::Ais);
        let sent = Instant::now();
        let result = engine.run(&request).map_err(|e| e.to_string());
        runs.push((i, sent.elapsed(), result));
    }
    let wall = started.elapsed();
    report.set(
        "peak_rss_mib",
        vm_hwm_kib(None).unwrap_or(0) as f64 / 1024.0,
        1,
    );

    // The exhaustive oracle answers every catalogue request sent; every
    // answer received is compared with it.
    let shapes: Vec<&Shape> = catalogue.iter().collect();
    let wanted: Vec<bool> = (0..CATALOGUE)
        .map(|i| runs.iter().any(|(j, _, _)| *j == i))
        .collect();
    let (expected, _) = reference(&engine, Algorithm::Exhaustive, &shapes, &wanted, env.cores);
    let mut wrong = 0;
    let mut failed = 0;
    for (i, _, result) in &runs {
        match (result, &expected[*i]) {
            (Ok(answer), Some(reference)) if agrees(answer, reference) => {}
            (Ok(_), _) => {
                wrong += 1;
                failed += 1;
            }
            (Err(_), _) => failed += 1,
        }
    }
    report.attempted = runs.len();
    report.wrong = wrong;
    report.failed = failed;
    report.set(
        "fail_share",
        ratio(failed as f64, runs.len() as f64),
        runs.len(),
    );

    let ok: Vec<(f64, &QueryResult)> = runs
        .iter()
        .filter_map(|(_, d, r)| Some((d.as_secs_f64() * 1e3, r.as_ref().ok()?)))
        .collect();
    let latency: Vec<f64> = ok.iter().map(|(ms, _)| *ms).collect();
    report.set_counted("lat_p50_ms", percentile(&latency, 50.0));
    report.set_counted("lat_p90_ms", percentile(&latency, 90.0));
    report.set_counted("lat_p95_ms", percentile(&latency, 95.0));
    report.set_counted("lat_p99_ms", percentile(&latency, 99.0));
    report.set(
        "throughput_qps",
        ok.len() as f64 / wall.as_secs_f64(),
        ok.len(),
    );
    report.set_counted("engine.run_ms.p50", percentile(&latency, 50.0));

    if env.traced {
        let n = ok.len();
        let per_query = |f: &dyn Fn(&QueryResult) -> f64| {
            mean(&ok.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
        };
        report.set(
            "engine.social_pops",
            per_query(&|r| r.stats.social_pops as f64),
            n,
        );
        report.set(
            "engine.spatial_pops",
            per_query(&|r| r.stats.spatial_pops as f64),
            n,
        );
        report.set(
            "engine.index_pops",
            per_query(&|r| r.stats.index_pops as f64),
            n,
        );
        report.set(
            "engine.relaxed_edges",
            per_query(&|r| r.stats.relaxed_edges as f64),
            n,
        );
        report.set(
            "engine.evaluated_users",
            per_query(&|r| r.stats.evaluated_users as f64),
            n,
        );
        report.set(
            "engine.distance_calls",
            per_query(&|r| r.stats.distance_calls as f64),
            n,
        );
        let results: f64 = ok.iter().map(|(_, r)| r.ranked.len() as f64).sum();
        let evaluated: f64 = ok.iter().map(|(_, r)| r.stats.evaluated_users as f64).sum();
        report.set("engine.useful_ratio", ratio(results, evaluated), n);
        let engine_ns: f64 = ok
            .iter()
            .map(|(_, r)| r.stats.runtime.as_nanos() as f64)
            .sum();
        let edges: f64 = ok.iter().map(|(_, r)| r.stats.relaxed_edges as f64).sum();
        report.set("engine.ns_per_edge", ratio(engine_ns, edges), n);
        // One engine: every query executes on it once.
        report.set("shard.executed_per_query", 1.0, n);
        let wall_ns: f64 = latency.iter().sum::<f64>() * 1e6;
        report.set(
            "coord.unattributed_share",
            1.0 - ratio(engine_ns, wall_ns),
            n,
        );
    }
    Ok(())
}
