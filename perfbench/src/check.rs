//! The exactness gate: every answer a workload received is compared with
//! an in-process reference engine's answer to the same request over the
//! same data.  Scores may differ by float rounding (different algorithms
//! sum the same distances in different orders), so answers are compared
//! with `same_users_and_scores` at a tolerance of 1e-9.

use crate::inputs::Shape;
use ssrq_core::{Algorithm, GeoSocialEngine, QueryResult};
use std::time::Instant;

/// Score tolerance of the comparison.
pub const TOLERANCE: f64 = 1e-9;

/// Whether `answer` is an exact, complete answer equal to `reference`.
pub fn agrees(answer: &QueryResult, reference: &QueryResult) -> bool {
    !answer.degraded && answer.same_users_and_scores(reference, TOLERANCE)
}

/// Runs `algorithm` on `shapes[i]` for every `i` with `wanted[i]`, on
/// `threads` threads: the reference answers (`None` where not wanted or
/// where the reference failed) and the run times in milliseconds.
pub fn reference(
    engine: &GeoSocialEngine,
    algorithm: Algorithm,
    shapes: &[&Shape],
    wanted: &[bool],
    threads: usize,
) -> (Vec<Option<QueryResult>>, Vec<f64>) {
    let chunk = shapes.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Vec<(Option<QueryResult>, Option<f64>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shapes
            .chunks(chunk)
            .zip(wanted.chunks(chunk))
            .map(|(shapes, wanted)| {
                scope.spawn(move || {
                    shapes
                        .iter()
                        .zip(wanted)
                        .map(|(shape, &wanted)| {
                            if !wanted {
                                return (None, None);
                            }
                            let started = Instant::now();
                            let answer = engine.run(&shape.request(algorithm)).ok();
                            (answer, Some(started.elapsed().as_secs_f64() * 1e3))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let (answers, run_ms): (Vec<_>, Vec<_>) = parts.into_iter().flatten().unzip();
    (answers, run_ms.into_iter().flatten().collect())
}
