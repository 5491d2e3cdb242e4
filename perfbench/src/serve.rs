//! The two workloads served by `shard-server` processes: `serve-cold`
//! (every request for a different user) and `serve-hot-churn` (repeated
//! request shapes mixed with location updates).

use crate::check::{agrees, reference};
use crate::cluster::{Cluster, MetricsDelta, SHARDS, USERS};
use crate::drive::{closed_loop, open_loop, Sent, Timing};
use crate::inputs::{dataset, degree_class, located_users, moved_location, Shape, DATASET_SEED};
use crate::procfs::vm_hwm_kib;
use crate::report::Report;
use crate::rng::{poisson_schedule, Rng, Zipf};
use crate::stats::{histogram_percentile, mean, median, percentile, ratio, Counted};
use crate::Env;
use ssrq_core::{
    Algorithm, GeoSocialDataset, GeoSocialEngine, PlannerSnapshot, QueryPlanner, QueryRequest,
    QueryResult, UserId,
};
use ssrq_net::{wire::parse_header, Message, ShardClient};
use ssrq_obs::{MetricValue, Registry};
use ssrq_shard::ShardStats;
use ssrq_spatial::Point;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load of `serve-cold`'s open-loop phase, requests per second:
/// about a quarter of what the deployment sustains closed-loop.  At half
/// (100/s), queueing turned the host's own speed swings into a p50 that
/// moved from 7.9 to 13.3 ms between runs.
pub const COLD_RATE: f64 = 50.0;
/// Offered load of `serve-hot-churn`, operations per second: about a
/// quarter of what its single sender sustains back to back.  At half, the
/// queue behind the sender turned the host's own speed swings (±15 % over
/// tens of seconds on a 2-core host) into ±25 % at p90.
pub const HOT_RATE: f64 = 30.0;
/// Share of `serve-cold`'s measured time spent in the open-loop phase;
/// the rest is the closed-loop phase.
const OPEN_SHARE: f64 = 0.75;
/// A run whose generator sent its p99 request later than this after its
/// due time is invalid: the offered load was not the stated one.  Lag
/// includes waiting for a free sender, so it grows with the service time.
pub const LAG_LIMIT_MS: f64 = 1000.0;
/// A request that could only be sent this late is refused (and fails).
const GIVE_UP: Duration = Duration::from_secs(5);
/// Deployments set up per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untimed requests (on users the timed phase does not ask for) that
/// open the connections and fault the servers' pages in.
const WARM_REQUESTS: usize = 32;
/// Algorithm of every served read.  `Auto` is measured on the in-process
/// twin instead: its AIS-BID probes take 0.02-20 s each on this data and
/// would make any ten-second serving window a lottery (see the README).
const SERVED: Algorithm = Algorithm::Ais;
/// Request shapes `serve-hot-churn` reads from: 4× a shard planner's
/// 1024-entry result cache.
const HOT_POOL: usize = 4096;
/// Zipf exponent of the shape popularity.
const ZIPF_S: f64 = 1.1;
/// Share of `serve-hot-churn`'s operations that are location updates.
const UPDATE_SHARE: f64 = 0.2;
/// Reads of the pool run before the timed phase (untimed).
const HOT_WARM_READS: usize = 1024;
/// Twin warm-up requests per planner bucket (k class × window × degree
/// class): one heuristic pick plus one probe of each other candidate.
const PLANNER_WARM_PER_BUCKET: usize = 8;
/// α of the twin's warm-up shapes.  α is not part of the planner's
/// bucket, and AIS-BID's first probe of a bucket takes seconds at α = 0.8
/// (up to 20 s on this data) against at most about one at α ≤ 0.3.
const WARM_ALPHAS: &[f64] = &[0.2, 0.3];
/// Timed requests the twin plans with `Auto` after its warm-up.
const PLANNER_SAMPLE: usize = 120;
/// Of those, how many are also run with every fixed candidate.
const ORACLE_SAMPLE: usize = 30;
/// Frames timed by the wire probes.
const PROBES: usize = 200;

/// One read: the answer, and in a traced run the per-shard outcomes and
/// the time the benchmark spent recording them.
struct Read {
    answer: Result<QueryResult, String>,
    shards: Option<ShardStats>,
    book_ns: u64,
}

impl Read {
    fn ok(&self) -> Option<&QueryResult> {
        self.answer.as_ref().ok()
    }
}

fn read(engine: &ssrq_net::RemoteShardedEngine, request: &QueryRequest, traced: bool) -> Read {
    if !traced {
        return Read {
            answer: engine.query(request).map_err(|e| e.to_string()),
            shards: None,
            book_ns: 0,
        };
    }
    match engine.query_detailed(request) {
        Ok((result, stats)) => {
            let started = Instant::now();
            let shards = Some(black_box(stats));
            Read {
                answer: Ok(result),
                shards,
                book_ns: started.elapsed().as_nanos() as u64,
            }
        }
        Err(e) => Read {
            answer: Err(e.to_string()),
            shards: None,
            book_ns: 0,
        },
    }
}

/// The in-process reference: the served dataset and one engine over all
/// of it, which also answers the exactness checks.
struct Reference {
    dataset: GeoSocialDataset,
    engine: GeoSocialEngine,
}

fn served_reference(report: &mut Report) -> Reference {
    let started = Instant::now();
    let dataset = dataset(USERS);
    report.set("data.generate_s", started.elapsed().as_secs_f64(), 1);
    let started = Instant::now();
    let engine = GeoSocialEngine::builder(dataset.clone())
        .build()
        .expect("reference engine builds");
    report.set("build.engine_s", started.elapsed().as_secs_f64(), 1);
    let mib = engine.memory_breakdown().total_bytes() as f64 / (1024.0 * 1024.0);
    report.set("build.index_mib", mib, 1);
    Reference { dataset, engine }
}

/// Sets the deployment up `SETUP_REPEATS` times and keeps the last one.
fn launch(env: &Env, report: &mut Report) -> Result<Cluster, String> {
    let mut setups = Vec::new();
    let mut ready = Vec::new();
    let mut cluster = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = cluster.take() {
            Cluster::shutdown(previous);
        }
        let launched = Cluster::launch(&env.shard_server, &env.work_dir.join(format!("c{i}")))?;
        setups.push(launched.setup.as_secs_f64());
        ready.push(launched.ready.as_secs_f64());
        cluster = Some(launched);
    }
    report.set("setup_s", median(&setups), setups.len());
    report.set("build.servers_ready_s", median(&ready), ready.len());
    Ok(cluster.expect("at least one setup"))
}

/// Warm-up shapes for the twin's planner: `PLANNER_WARM_PER_BUCKET`
/// users of every degree class for each (k, window) pair, taken from the
/// front of `users`, which is returned without them.
fn planner_warm_shapes(
    dataset: &GeoSocialDataset,
    users: Vec<UserId>,
) -> (Vec<Shape>, Vec<UserId>) {
    let per_class = PLANNER_WARM_PER_BUCKET * 6;
    let mut by_class: [Vec<UserId>; 3] = Default::default();
    let mut rest = Vec::new();
    for user in users {
        let class = &mut by_class[degree_class(dataset, user)];
        if class.len() < per_class {
            class.push(user);
        } else {
            rest.push(user);
        }
    }
    let mut warm = Vec::new();
    for class in by_class {
        for (i, user) in class.into_iter().enumerate() {
            let k = [1, 10, 50][(i / PLANNER_WARM_PER_BUCKET) % 3];
            let shape = Shape::plain(user, i, &[k], WARM_ALPHAS);
            warm.push(if i < per_class / 2 {
                shape
            } else {
                shape.windowed(dataset)
            });
        }
    }
    (warm, rest)
}

/// Runs `requests` untimed, one client per core.
fn warm_up(env: &Env, cluster: &Cluster, requests: &[QueryRequest]) -> Result<(), String> {
    let (done, _) = closed_loop(env.cores, Duration::MAX, requests.len(), |i| {
        cluster.engine.query(&requests[i]).map(drop)
    });
    match done.into_iter().find_map(|(_, r)| r.err()) {
        Some(e) => Err(format!("warm-up request failed: {e}")),
        None => Ok(()),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The latency metrics of the timed reads (successful ones; failures are
/// counted in `fail_share` instead).
fn report_latency(report: &mut Report, latencies_ms: &[f64]) {
    report.set_counted("lat_p50_ms", percentile(latencies_ms, 50.0));
    report.set_counted("lat_p90_ms", percentile(latencies_ms, 90.0));
    report.set_counted("lat_p95_ms", percentile(latencies_ms, 95.0));
    report.set_counted("lat_p99_ms", percentile(latencies_ms, 99.0));
}

fn report_lag(report: &mut Report, timings: &[&Timing]) {
    let lags: Vec<f64> = timings.iter().map(|t| ms(t.lag())).collect();
    let lag = percentile(&lags, 99.0);
    report.set_counted("gen.lag_p99_ms", lag);
    if let Some(lag) = lag.filter(|c| c.value > LAG_LIMIT_MS) {
        report.invalid = Some(format!(
            "generator p99 lag {:.1} ms exceeds {LAG_LIMIT_MS} ms",
            lag.value
        ));
    }
}

fn report_rss(report: &mut Report, cluster: &Cluster) {
    let kib = vm_hwm_kib(None).unwrap_or(0) + cluster.servers_hwm_kib();
    report.set("peak_rss_mib", kib as f64 / 1024.0, SHARDS + 1);
}

/// `serve-cold`: an open-loop Poisson phase at `COLD_RATE`, then a
/// closed-loop phase with one client per core; every request is for a
/// user no earlier request asked for.
pub fn serve_cold(env: &Env, report: &mut Report) -> Result<(), String> {
    let r = served_reference(report);
    let mut users = located_users(&r.dataset);
    Rng::stream(env.seed, 1).shuffle(&mut users);
    let (planner_warm, users) = planner_warm_shapes(&r.dataset, users);
    let measured = Duration::from_secs_f64(env.seconds);
    let schedule = poisson_schedule(
        &mut Rng::stream(env.seed, 2),
        COLD_RATE,
        measured.mul_f64(OPEN_SHARE),
    );
    let shapes: Vec<Shape> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| Shape::mixed(&r.dataset, u, i))
        .collect();
    if shapes.len() <= WARM_REQUESTS + schedule.len() {
        return Err(format!(
            "{} users cannot feed {} requests",
            shapes.len(),
            schedule.len()
        ));
    }
    let (warm, timed) = shapes.split_at(WARM_REQUESTS);
    let (open_shapes, closed_shapes) = timed.split_at(schedule.len());
    let open_requests = requests(open_shapes, SERVED);
    let closed_requests = requests(closed_shapes, SERVED);

    let cluster = launch(env, report)?;
    warm_up(env, &cluster, &requests(warm, SERVED))?;
    let before = cluster.metrics()?;
    let merge_before = merge_ns();
    let phase = Instant::now();
    let open = open_loop(&schedule, env.cores, GIVE_UP, |i| {
        read(&cluster.engine, &open_requests[i], env.traced)
    });
    let closed_time = measured.saturating_sub(phase.elapsed());
    let (closed, closed_wall) = closed_loop(env.cores, closed_time, closed_requests.len(), |i| {
        read(&cluster.engine, &closed_requests[i], env.traced)
    });
    let wall = phase.elapsed();
    let delta = MetricsDelta {
        before,
        after: cluster.metrics()?,
    };
    let merge = merge_ns() - merge_before;
    report_rss(report, &cluster);

    // Exactness of every answer received.
    let mut checked: Vec<&Shape> = open_shapes.iter().collect();
    checked.extend(&closed_shapes[..closed.len()]);
    let answers: Vec<Option<&QueryResult>> = open
        .iter()
        .map(|(_, read)| read.as_ref().and_then(Read::ok))
        .chain(closed.iter().map(|(_, read)| read.ok()))
        .collect();
    let wanted: Vec<bool> = answers.iter().map(Option::is_some).collect();
    let (expected, reference_ms) =
        reference(&r.engine, Algorithm::Ais, &checked, &wanted, env.cores);
    let wrong = answers
        .iter()
        .zip(&expected)
        .filter(|(answer, expected)| match (answer, expected) {
            (Some(answer), Some(expected)) => !agrees(answer, expected),
            (Some(_), None) => true,
            (None, _) => false,
        })
        .count();
    report.attempted = answers.len();
    report.wrong = wrong;
    report.failed = answers.iter().filter(|a| a.is_none()).count() + wrong;
    report.set(
        "fail_share",
        ratio(report.failed as f64, report.attempted as f64),
        report.attempted,
    );

    let open_ok: Vec<f64> = open
        .iter()
        .filter(|(_, r)| r.as_ref().and_then(Read::ok).is_some())
        .map(|(t, _)| ms(t.latency()))
        .collect();
    report_latency(report, &open_ok);
    let closed_ok = closed.iter().filter(|(_, r)| r.ok().is_some()).count();
    report.set(
        "throughput_qps",
        closed_ok as f64 / closed_wall.as_secs_f64(),
        closed_ok,
    );
    report_lag(report, &open.iter().map(|(t, _)| t).collect::<Vec<_>>());
    report.set_counted("engine.run_ms.p50", percentile(&reference_ms, 50.0));

    if env.traced {
        let reads: Vec<(&Timing, &Read)> = open
            .iter()
            .filter_map(|(t, r)| r.as_ref().map(|r| (t, r)))
            .chain(closed.iter().map(|(t, r)| (t, r)))
            .collect();
        let layers = Layers {
            reads: &reads,
            updates: &[],
            delta: &delta,
            merge_ns: merge,
            wall,
        };
        layers.report(env, report);
        let codec_ns = probe_wire(report, &cluster, &r.dataset, open_shapes, &answers);
        layers.report_unattributed(report, codec_ns);
        probe_planner(report, &r.engine, &planner_warm, open_shapes);
    }
    cluster.shutdown();
    Ok(())
}

fn requests(shapes: &[Shape], algorithm: Algorithm) -> Vec<QueryRequest> {
    shapes.iter().map(|s| s.request(algorithm)).collect()
}

/// One `serve-hot-churn` operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Read shape `i` of the pool.
    Read(usize),
    /// Move a user.
    Update(UserId, Point),
}

enum Done {
    Read(Box<Read>),
    Update(Result<usize, String>),
}

/// The timed operations of `serve-hot-churn` for workload seed `seed`:
/// their due times (Poisson at `HOT_RATE`) and what each one does.
pub fn churn_ops(
    seed: u64,
    dataset: &GeoSocialDataset,
    zipf: &Zipf,
    duration: Duration,
) -> (Vec<Duration>, Vec<Op>) {
    let located = located_users(dataset);
    let schedule = poisson_schedule(&mut Rng::stream(seed, 2), HOT_RATE, duration);
    let mut mix = Rng::stream(seed, 3);
    let ops = schedule
        .iter()
        .map(|_| {
            if mix.unit() < UPDATE_SHARE {
                let user = *mix.pick(&located);
                Op::Update(user, moved_location(&mut mix, dataset, user, &located))
            } else {
                Op::Read(zipf.sample(&mut mix))
            }
        })
        .collect();
    (schedule, ops)
}

/// `serve-hot-churn`: one open-loop sender at `HOT_RATE`; 80 % reads of
/// Zipf-popular shapes, 20 % location updates.
pub fn serve_hot_churn(env: &Env, report: &mut Report) -> Result<(), String> {
    let mut r = served_reference(report);
    // The catalogue of shapes is part of the workload, like the dataset:
    // the workload seed draws which shapes are read, and when.
    let located = located_users(&r.dataset);
    let mut catalogue = Rng::stream(DATASET_SEED, 1);
    let pool: Vec<Shape> = (0..HOT_POOL)
        .map(|i| Shape::mixed(&r.dataset, *catalogue.pick(&located), i))
        .collect();
    let pool_requests = requests(&pool, SERVED);
    let zipf = Zipf::new(HOT_POOL, ZIPF_S);
    let (schedule, ops) = churn_ops(
        env.seed,
        &r.dataset,
        &zipf,
        Duration::from_secs_f64(env.seconds),
    );
    let mut warm_rng = Rng::stream(env.seed, 4);
    let warm_reads: Vec<usize> = (0..HOT_WARM_READS)
        .map(|_| zipf.sample(&mut warm_rng))
        .collect();

    let mut cluster = launch(env, report)?;
    let warm: Vec<QueryRequest> = warm_reads[..WARM_REQUESTS]
        .iter()
        .map(|&i| pool_requests[i].clone())
        .collect();
    warm_up(env, &cluster, &warm)?;
    let before = cluster.metrics()?;
    let merge_before = merge_ns();
    let phase = Instant::now();
    // One sender: the lock is never contended, it only lends the
    // coordinator to updates mutably.
    let engine = Mutex::new(&mut cluster.engine);
    let done: Vec<Sent<Done>> = open_loop(&schedule, 1, GIVE_UP, |i| {
        let mut engine = engine.lock().expect("coordinator lock");
        match ops[i] {
            Op::Read(shape) => {
                Done::Read(Box::new(read(&engine, &pool_requests[shape], env.traced)))
            }
            Op::Update(user, to) => {
                Done::Update(engine.update_location(user, to).map_err(|e| e.to_string()))
            }
        }
    });
    let wall = phase.elapsed();
    let delta = MetricsDelta {
        before,
        after: cluster.metrics()?,
    };
    let merge = merge_ns() - merge_before;
    report_rss(report, &cluster);

    // Replay the operations in order on the reference engine: updates
    // applied as the servers applied them, each read answered over the
    // state it saw (memoised per shape and update count).
    let mut applied = 0usize;
    let mut memo: HashMap<(usize, usize), QueryResult> = HashMap::new();
    let mut reference_ms = Vec::new();
    let mut failed = 0;
    let mut wrong = 0;
    let mut read_latency = Vec::new();
    let mut update_latency = Vec::new();
    for (op, (timing, outcome)) in ops.iter().zip(&done) {
        match (op, outcome) {
            (_, None) => failed += 1,
            (Op::Update(user, to), Some(Done::Update(result))) => {
                r.engine
                    .update_location(*user, *to)
                    .map_err(|e| format!("reference update: {e}"))?;
                applied += 1;
                match result {
                    Ok(_) => update_latency.push(ms(timing.latency())),
                    Err(_) => failed += 1,
                }
            }
            (Op::Read(shape), Some(Done::Read(read))) => {
                let expected = memo.entry((*shape, applied)).or_insert_with(|| {
                    let started = Instant::now();
                    let result = r
                        .engine
                        .run(&pool[*shape].request(Algorithm::Ais))
                        .expect("reference answers every pool shape");
                    reference_ms.push(ms(started.elapsed()));
                    result
                });
                match read.ok() {
                    Some(answer) if agrees(answer, expected) => {
                        read_latency.push(ms(timing.latency()))
                    }
                    Some(_) => {
                        wrong += 1;
                        failed += 1;
                    }
                    None => failed += 1,
                }
            }
            _ => unreachable!("every operation answers in kind"),
        }
    }
    report.attempted = ops.len();
    report.failed = failed;
    report.wrong = wrong;
    report.set(
        "fail_share",
        ratio(failed as f64, ops.len() as f64),
        ops.len(),
    );
    report_latency(report, &read_latency);
    report.set_counted("update_p50_ms", percentile(&update_latency, 50.0));
    report.set_counted("update_p99_ms", percentile(&update_latency, 99.0));
    let completed = ops.len() - failed;
    report.set(
        "throughput_qps",
        completed as f64 / wall.as_secs_f64(),
        completed,
    );
    report_lag(report, &done.iter().map(|(t, _)| t).collect::<Vec<_>>());
    report.set_counted("engine.run_ms.p50", percentile(&reference_ms, 50.0));

    if env.traced {
        let mut reads = Vec::new();
        let mut updates = Vec::new();
        let mut read_shapes = Vec::new();
        for (op, (timing, outcome)) in ops.iter().zip(&done) {
            match (op, outcome) {
                (Op::Read(i), Some(Done::Read(read))) => {
                    reads.push((timing, &**read));
                    read_shapes.push(pool[*i].clone());
                }
                (_, Some(Done::Update(_))) => updates.push(timing),
                _ => {}
            }
        }
        let layers = Layers {
            reads: &reads,
            updates: &updates,
            delta: &delta,
            merge_ns: merge,
            wall,
        };
        layers.report(env, report);
        let answers: Vec<Option<&QueryResult>> = reads.iter().map(|(_, r)| r.ok()).collect();
        let codec_ns = probe_wire(report, &cluster, r.engine.dataset(), &read_shapes, &answers);
        layers.report_unattributed(report, codec_ns);
        probe_cache(report, &r.dataset, &pool, &warm_reads, &ops, &done);
    }
    cluster.shutdown();
    Ok(())
}

/// Sum of the coordinator's merge time histogram, in nanoseconds.
fn merge_ns() -> u64 {
    Registry::global()
        .snapshot()
        .iter()
        .filter(|s| s.name == "ssrq_shard_merge_ns")
        .map(|s| match &s.value {
            MetricValue::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum()
}

/// What the traced run saw in its timed phase.
struct Layers<'a> {
    reads: &'a [(&'a Timing, &'a Read)],
    updates: &'a [&'a Timing],
    delta: &'a MetricsDelta,
    merge_ns: u64,
    wall: Duration,
}

impl Layers<'_> {
    fn report(&self, env: &Env, report: &mut Report) {
        let answered: Vec<(&QueryResult, &ShardStats)> = self
            .reads
            .iter()
            .filter_map(|(_, r)| Some((r.ok()?, r.shards.as_ref()?)))
            .collect();
        let n = answered.len();
        let per_query = |f: &dyn Fn(&QueryResult, &ShardStats) -> f64| {
            mean(&answered.iter().map(|(r, s)| f(r, s)).collect::<Vec<_>>())
        };
        report.set(
            "engine.social_pops",
            per_query(&|r, _| r.stats.social_pops as f64),
            n,
        );
        report.set(
            "engine.spatial_pops",
            per_query(&|r, _| r.stats.spatial_pops as f64),
            n,
        );
        report.set(
            "engine.index_pops",
            per_query(&|r, _| r.stats.index_pops as f64),
            n,
        );
        report.set(
            "engine.relaxed_edges",
            per_query(&|r, _| r.stats.relaxed_edges as f64),
            n,
        );
        report.set(
            "engine.evaluated_users",
            per_query(&|r, _| r.stats.evaluated_users as f64),
            n,
        );
        report.set(
            "engine.distance_calls",
            per_query(&|r, _| r.stats.distance_calls as f64),
            n,
        );
        let results: f64 = answered.iter().map(|(r, _)| r.ranked.len() as f64).sum();
        let evaluated: f64 = answered
            .iter()
            .map(|(r, _)| r.stats.evaluated_users as f64)
            .sum();
        report.set("engine.useful_ratio", ratio(results, evaluated), n);
        let engine_ns = self.delta.histogram("ssrq_server_query_ns");
        let edges: f64 = answered
            .iter()
            .map(|(r, _)| r.stats.relaxed_edges as f64)
            .sum();
        report.set("engine.ns_per_edge", ratio(engine_ns.sum as f64, edges), n);

        report.set(
            "shard.executed_per_query",
            per_query(&|_, s| s.executed_shards() as f64),
            n,
        );
        report.set(
            "shard.skipped_share",
            per_query(&|_, s| s.skipped_shards() as f64) / SHARDS as f64,
            n,
        );
        report.set(
            "wire.round_trips_per_query",
            per_query(&|r, _| r.stats.wire_round_trips as f64),
            n,
        );
        report.set(
            "wire.bytes_per_query",
            per_query(&|r, _| (r.stats.bytes_sent + r.stats.bytes_received) as f64),
            n,
        );
        report.set(
            "coord.origin_round_trips",
            per_query(&|r, s| r.stats.wire_round_trips as f64 - s.executed_shards() as f64),
            n,
        );

        let queue = self.delta.histogram("ssrq_server_queue_wait_ns");
        let us = |c: Option<Counted>| {
            c.map(|c| Counted {
                value: c.value / 1e3,
                n: c.n,
            })
        };
        report.set_counted(
            "server.queue_wait_us.p50",
            us(histogram_percentile(&queue, 50.0)),
        );
        report.set_counted(
            "server.queue_wait_us.p99",
            us(histogram_percentile(&queue, 99.0)),
        );
        report.set_counted(
            "server.query_us.p50",
            us(histogram_percentile(&engine_ns, 50.0)),
        );
        let busy = self.delta.histogram("ssrq_server_worker_busy_ns");
        // The servers run their default pool: one worker per core, at most four.
        let workers = (env.cores.min(4) * SHARDS) as f64;
        report.set(
            "server.busy_share",
            ratio(busy.sum as f64, self.wall.as_nanos() as f64 * workers),
            busy.count as usize,
        );
        let updates = self.updates.len();
        let relocations = self.delta.counter("ssrq_server_relocations_total", &[]) as f64;
        report.set(
            "coord.relocations_per_update",
            ratio(relocations, updates as f64),
            updates,
        );

        let book: u64 = self.reads.iter().map(|(_, r)| r.book_ns).sum();
        report.set(
            "trace.overhead_share",
            ratio(book as f64, self.service_ns()),
            self.reads.len(),
        );
    }

    fn service_ns(&self) -> f64 {
        self.reads
            .iter()
            .map(|(t, _)| t.service())
            .chain(self.updates.iter().map(|t| t.service()))
            .map(|d| d.as_nanos() as f64)
            .sum()
    }

    /// `coord.unattributed_share`: the share of the phase's service time
    /// not accounted for by engine time and queue wait on the servers,
    /// the coordinator's merge, and the wire codec (`codec_ns` per round
    /// trip) of every round trip.
    fn report_unattributed(&self, report: &mut Report, codec_ns: f64) {
        let round_trips = self
            .reads
            .iter()
            .filter_map(|(_, r)| r.ok())
            .map(|r| r.stats.wire_round_trips as f64)
            .sum::<f64>()
            + (self.updates.len() * SHARDS) as f64;
        let attributed = self.delta.histogram("ssrq_server_query_ns").sum as f64
            + self.delta.histogram("ssrq_server_queue_wait_ns").sum as f64
            + self.merge_ns as f64
            + codec_ns * round_trips;
        report.set(
            "coord.unattributed_share",
            1.0 - ratio(attributed, self.service_ns()),
            self.reads.len() + self.updates.len(),
        );
    }
}

/// Times `Message::encode` and `Message::decode` on the run's query and
/// answer frames, and `ShardClient::call` of shard-local queries.
/// Returns the codec time of one round trip: each end encodes one frame
/// and decodes the other.
fn probe_wire(
    report: &mut Report,
    cluster: &Cluster,
    dataset: &GeoSocialDataset,
    shapes: &[Shape],
    answers: &[Option<&QueryResult>],
) -> f64 {
    let frames: Vec<(Message, Message)> = shapes
        .iter()
        .zip(answers)
        .filter_map(|(shape, answer)| {
            let origin = dataset.location(shape.user)?;
            let query = Message::query(shape.request(SERVED).with_origin(origin));
            Some((query, Message::Answer((*answer)?.clone())))
        })
        .take(PROBES)
        .collect();
    const REPEAT: usize = 50;
    let per_frame = |started: Instant| {
        started.elapsed().as_nanos() as f64 / (frames.len() * REPEAT).max(1) as f64
    };
    let started = Instant::now();
    for (query, answer) in &frames {
        for _ in 0..REPEAT {
            black_box(black_box(query).encode());
            black_box(black_box(answer).encode());
        }
    }
    let encode_ns = per_frame(started);
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(q, a)| (q.encode(), a.encode()))
        .collect();
    let decode = |bytes: &[u8]| {
        let header = parse_header(bytes).expect("own frames parse");
        Message::decode(header.tag, &bytes[header.header_len()..]).expect("own frames decode")
    };
    let started = Instant::now();
    for (query, answer) in &encoded {
        for _ in 0..REPEAT {
            black_box(decode(black_box(query)));
            black_box(decode(black_box(answer)));
        }
    }
    let decode_ns = per_frame(started);
    report.set("wire.encode_us", encode_ns / 1e3, frames.len());
    report.set("wire.decode_us", decode_ns / 1e3, frames.len());

    let rtts: Vec<f64> = ShardClient::connect(&cluster.endpoints[0], Duration::from_secs(5))
        .and_then(|mut client| {
            client.set_deadline(Some(crate::cluster::DEADLINE))?;
            frames
                .iter()
                .map(|(query, _)| {
                    let started = Instant::now();
                    client.call(query)?;
                    Ok(started.elapsed().as_secs_f64() * 1e6)
                })
                .collect()
        })
        .unwrap_or_default();
    report.set_counted("coord.shard_rtt_us.p50", percentile(&rtts, 50.0));
    encode_ns + decode_ns
}

/// Planner decisions between two snapshots, as `(algorithm, reason, n)`.
fn choices_delta(
    before: &PlannerSnapshot,
    after: &PlannerSnapshot,
) -> Vec<(String, &'static str, u64)> {
    after
        .choices
        .iter()
        .map(|(a, why, n)| {
            let earlier = before
                .choices
                .iter()
                .find(|(b, w, _)| b == a && w == why)
                .map_or(0, |c| c.2);
            (a.clone(), *why, n - earlier)
        })
        .collect()
}

/// `Auto` on the in-process twin: after a warm-up that lets every bucket
/// probe every candidate once (timed: that is the planner's exploration
/// cost), plans a sample of the timed requests, and compares the time of
/// an `Auto` miss with the fastest fixed candidate on part of them.
fn probe_planner(report: &mut Report, twin: &GeoSocialEngine, warm: &[Shape], shapes: &[Shape]) {
    let started = Instant::now();
    for shape in warm {
        let _ = twin.run(&shape.request(Algorithm::Auto));
    }
    report.set(
        "planner.warmup_s",
        started.elapsed().as_secs_f64(),
        warm.len(),
    );
    let time = |request: &QueryRequest| {
        let started = Instant::now();
        let _ = black_box(twin.run(request));
        started.elapsed().as_secs_f64()
    };
    let before = twin.planner().snapshot();
    let sample = &shapes[..PLANNER_SAMPLE.min(shapes.len())];
    let auto: Vec<f64> = sample
        .iter()
        .map(|s| time(&s.request(Algorithm::Auto)))
        .collect();
    let choices = choices_delta(&before, &twin.planner().snapshot());
    let decided: u64 = choices.iter().map(|c| c.2).sum();
    let share = |keep: &dyn Fn(&str, &str) -> bool| {
        let n: u64 = choices
            .iter()
            .filter(|(a, why, _)| keep(a, why))
            .map(|c| c.2)
            .sum();
        ratio(n as f64, decided as f64)
    };
    let n = decided as usize;
    report.set(
        "planner.explore_share",
        share(&|_, why| why == "explore"),
        n,
    );
    for algorithm in ["AIS", "AIS-", "AIS-BID", "SFA", "SPA", "TSA", "TSA-QC"] {
        let name = format!("planner.pick_share.{algorithm}");
        report.set(&name, share(&|a, _| a == algorithm), n);
    }
    // AIS-BID takes seconds where the others take milliseconds on this
    // data, so it is never the minimum; timing it would only stretch the run.
    let candidates: Vec<Algorithm> = QueryPlanner::candidates(twin)
        .into_iter()
        .filter(|&a| a != Algorithm::AisBid)
        .collect();
    let oracle = &sample[..ORACLE_SAMPLE.min(sample.len())];
    let best: f64 = oracle
        .iter()
        .map(|s| {
            candidates
                .iter()
                .map(|&a| time(&s.request(a)))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let auto_misses: f64 = auto[..oracle.len()].iter().sum();
    report.set(
        "planner.cold_oracle_ratio",
        ratio(auto_misses, best),
        oracle.len(),
    );
}

/// The planner's result cache under the run's own operations, on an
/// in-process twin whose planner is pinned to AIS (the cache key ignores
/// the algorithm, so this measures the cache alone): hit ratio of the
/// reads and entries invalidated per update.
fn probe_cache(
    report: &mut Report,
    dataset: &GeoSocialDataset,
    pool: &[Shape],
    warm_reads: &[usize],
    ops: &[Op],
    done: &[Sent<Done>],
) {
    let mut twin = GeoSocialEngine::builder(dataset.clone())
        .build()
        .expect("twin engine builds");
    twin.planner().pin(Some(Algorithm::Ais));
    for &i in warm_reads {
        let _ = twin.run(&pool[i].request(Algorithm::Auto));
    }
    let before = twin.planner().snapshot();
    let mut updates = 0usize;
    for (op, (_, outcome)) in ops.iter().zip(done) {
        match (op, outcome) {
            (Op::Read(i), Some(_)) => {
                let _ = twin.run(&pool[*i].request(Algorithm::Auto));
            }
            (Op::Update(user, to), Some(_)) => {
                let _ = twin.update_location(*user, *to);
                updates += 1;
            }
            (_, None) => {}
        }
    }
    let after = twin.planner().snapshot();
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let lookups = hits + (after.cache_misses - before.cache_misses) as f64;
    report.set("planner.hit_ratio", ratio(hits, lookups), lookups as usize);
    let invalidations = (after.cache_invalidations - before.cache_invalidations) as f64;
    report.set(
        "planner.invalidations_per_update",
        ratio(invalidations, updates as f64),
        updates,
    );
}
