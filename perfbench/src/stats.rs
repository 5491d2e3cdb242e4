//! Summaries of measured samples: nearest-rank percentiles that carry
//! their sample count, and quantiles of `ssrq-obs` histogram deltas.

use ssrq_obs::HistogramSnapshot;

/// A summary value together with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counted {
    /// The value.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// The nearest-rank `q`-th percentile (`0 < q ≤ 100`) of `values`: the
/// smallest sample with at least `q` % of the samples at or below it.
/// `None` for no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<Counted> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(Counted {
        value: sorted[rank.min(sorted.len()) - 1],
        n: sorted.len(),
    })
}

/// The median (nearest rank) of `values`, 0 for none.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).map_or(0.0, |c| c.value)
}

/// The arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The observations recorded between two snapshots of one histogram.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .map(|&(index, count)| {
            let earlier = before
                .buckets
                .iter()
                .find(|&&(i, _)| i == index)
                .map_or(0, |&(_, n)| n);
            (index, count.saturating_sub(earlier))
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        buckets,
        sum: after.sum.saturating_sub(before.sum),
        count: after.count.saturating_sub(before.count),
    }
}

/// Sums histograms (e.g. one series per shard) bucket by bucket.
pub fn histogram_sum<'a>(
    parts: impl IntoIterator<Item = &'a HistogramSnapshot>,
) -> HistogramSnapshot {
    let mut total = HistogramSnapshot::default();
    for part in parts {
        for &(index, count) in &part.buckets {
            match total.buckets.iter_mut().find(|(i, _)| *i == index) {
                Some((_, n)) => *n += count,
                None => total.buckets.push((index, count)),
            }
        }
        total.sum += part.sum;
        total.count += part.count;
    }
    total.buckets.sort_unstable();
    total
}

/// The nearest-rank `q`-th percentile of a log-bucketed histogram,
/// interpolated linearly inside the bucket the rank falls in (bucket `i`
/// spans `[2^(i-1), 2^i)`).  `None` for an empty histogram.
pub fn histogram_percentile(h: &HistogramSnapshot, q: f64) -> Option<Counted> {
    if h.count == 0 {
        return None;
    }
    let rank = ((q / 100.0) * h.count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(index, count) in &h.buckets {
        if seen + count >= rank {
            let upper = HistogramSnapshot::upper_bound(index) as f64;
            let lower = if index == 0 { 0.0 } else { (upper + 1.0) / 2.0 };
            let within = (rank - seen) as f64 / count as f64;
            return Some(Counted {
                value: lower + within * (upper - lower),
                n: h.count as usize,
            });
        }
        seen += count;
    }
    None
}
