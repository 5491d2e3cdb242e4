//! Self-tests of the benchmark's own machinery: percentiles, seeded
//! inputs, the open-loop timing rule and the memory reader.

use perfbench::drive::open_loop;
use perfbench::inputs::dataset;
use perfbench::procfs::{parse_vm_hwm, vm_hwm_kib};
use perfbench::rng::{poisson_schedule, Rng, Zipf};
use perfbench::serve::{churn_ops, Op};
use perfbench::stats::{histogram_percentile, percentile, Counted};
use ssrq_obs::HistogramSnapshot;
use std::time::Duration;

#[test]
fn percentiles_are_nearest_rank_with_their_sample_count() {
    let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    let at = |q| percentile(&values, q).expect("samples");
    assert_eq!(at(50.0), Counted { value: 5.0, n: 10 });
    assert_eq!(at(90.0), Counted { value: 9.0, n: 10 });
    assert_eq!(at(91.0), Counted { value: 10.0, n: 10 });
    assert_eq!(at(99.0), Counted { value: 10.0, n: 10 });
    assert_eq!(at(1.0), Counted { value: 1.0, n: 10 });
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn histogram_percentiles_interpolate_inside_the_bucket() {
    // 10 observations in [512, 1024) and 10 in [1024, 2048).
    let h = HistogramSnapshot {
        buckets: vec![(10, 10), (11, 10)],
        sum: 25_000,
        count: 20,
    };
    let p50 = histogram_percentile(&h, 50.0).expect("observations");
    assert_eq!(p50.n, 20);
    assert!((p50.value - 1023.0).abs() < 1e-9, "{p50:?}");
    let p100 = histogram_percentile(&h, 100.0).expect("observations");
    assert!((p100.value - 2047.0).abs() < 1e-9, "{p100:?}");
    assert_eq!(
        histogram_percentile(&HistogramSnapshot::default(), 50.0),
        None
    );
}

#[test]
fn poisson_schedules_reproduce_exactly_and_hold_the_stated_count() {
    let duration = Duration::from_secs(10);
    let a = poisson_schedule(&mut Rng::stream(7, 2), 100.0, duration);
    let b = poisson_schedule(&mut Rng::stream(7, 2), 100.0, duration);
    let c = poisson_schedule(&mut Rng::stream(8, 2), 100.0, duration);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!(a.len(), 1000);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| t < duration));
    // Exponential gaps: about 1 - 1/e of them are shorter than the mean.
    let short = a
        .windows(2)
        .filter(|w| w[1] - w[0] < Duration::from_millis(10))
        .count();
    assert!((550..720).contains(&short), "{short} short gaps");
}

#[test]
fn zipf_draws_reproduce_exactly_and_favour_low_ranks() {
    let zipf = Zipf::new(4096, 1.1);
    let draw = |seed| {
        let mut rng = Rng::stream(seed, 3);
        (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
    };
    let a = draw(1);
    assert_eq!(a, draw(1));
    assert_ne!(a, draw(2));
    assert!(a.iter().all(|&r| r < 4096));
    let count = |rank| a.iter().filter(|&&r| r == rank).count();
    // Rank 0 has weight 1, rank 9 weight 10^-1.1: about 12.6 times fewer.
    assert!(count(0) > 8 * count(9), "{} vs {}", count(0), count(9));
    assert!(count(0) > count(1), "{} vs {}", count(0), count(1));
}

#[test]
fn churn_streams_reproduce_exactly() {
    let data = dataset(600);
    let zipf = Zipf::new(4096, 1.1);
    let duration = Duration::from_secs(5);
    let (due_a, ops_a) = churn_ops(11, &data, &zipf, duration);
    let (due_b, ops_b) = churn_ops(11, &data, &zipf, duration);
    let (_, ops_c) = churn_ops(12, &data, &zipf, duration);
    assert_eq!((&due_a, &ops_a), (&due_b, &ops_b));
    assert_ne!(ops_a, ops_c);
    let bounds = data.bounds();
    let updates: Vec<_> = ops_a
        .iter()
        .filter_map(|op| match op {
            Op::Update(user, to) => Some((*user, *to)),
            Op::Read(_) => None,
        })
        .collect();
    let share = updates.len() as f64 / ops_a.len() as f64;
    assert!((0.12..0.28).contains(&share), "update share {share}");
    assert!(updates
        .iter()
        .all(|(user, to)| data.location(*user).is_some() && bounds.contains(*to)));
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // Due every 10 ms; the target stalls 100 ms on the third request.
    let schedule: Vec<Duration> = (0..8).map(|i| Duration::from_millis(10 * i)).collect();
    let out = open_loop(&schedule, 1, Duration::from_secs(5), |i| {
        if i == 2 {
            std::thread::sleep(Duration::from_millis(100));
        }
        i
    });
    assert_eq!(out.len(), 8);
    assert!(out.iter().enumerate().all(|(i, (_, r))| *r == Some(i)));
    let (before, _) = out[1];
    assert!(before.latency() < Duration::from_millis(50), "{before:?}");
    // Due at 30 ms, sent only once the stalled request returned (~120 ms).
    let (after, _) = out[3];
    assert!(after.lag() >= Duration::from_millis(80), "{after:?}");
    assert!(after.latency() >= Duration::from_millis(80), "{after:?}");
    assert!(after.service() < Duration::from_millis(50), "{after:?}");
}

#[test]
fn open_loop_refuses_requests_past_the_give_up_lag() {
    let schedule: Vec<Duration> = (0..6).map(|i| Duration::from_millis(5 * i)).collect();
    let out = open_loop(&schedule, 1, Duration::from_millis(40), |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    assert!(out[0].1.is_some());
    assert!(out[1..].iter().all(|(_, r)| r.is_none()));
}

#[test]
fn vm_hwm_is_read_and_grows_with_touched_memory() {
    let status = "Name:\tx\nVmPeak:\t  2000 kB\nVmHWM:\t  1234 kB\nVmRSS:\t  1000 kB\n";
    assert_eq!(parse_vm_hwm(status), Some(1234));
    assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    let before = vm_hwm_kib(None).expect("own status is readable");
    assert!(before > 0);
    let block = vec![1u8; 64 << 20];
    std::hint::black_box(&block);
    let after = vm_hwm_kib(None).expect("own status is readable");
    assert!(after >= before + 60 * 1024, "{before} -> {after} KiB");
}
