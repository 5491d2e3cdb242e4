//! What the workloads send: the datasets and the seeded request shapes.

use crate::rng::Rng;
use ssrq_core::{Algorithm, GeoSocialDataset, QueryRequest, UserId};
use ssrq_data::DatasetConfig;
use ssrq_spatial::{Point, Rect};

/// Seed of every generated dataset (fixed, so runs of different workload
/// seeds measure the same data).
pub const DATASET_SEED: u64 = 4242;

/// The gowalla-like dataset of `users` users.
pub fn dataset(users: usize) -> GeoSocialDataset {
    DatasetConfig::gowalla_like(users)
        .with_seed(DATASET_SEED)
        .generate()
}

/// Every located user, in id order.
pub fn located_users(dataset: &GeoSocialDataset) -> Vec<UserId> {
    dataset.located_users().map(|(u, _)| u).collect()
}

/// One request as the workload describes it; [`Shape::request`] turns it
/// into a [`QueryRequest`] for any algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Query user.
    pub user: UserId,
    /// Result size.
    pub k: usize,
    /// Social weight α.
    pub alpha: f64,
    /// Spatial filter window.
    pub within: Option<Rect>,
    /// Score cutoff.
    pub max_score: Option<f64>,
    /// Excluded users.
    pub exclude: Vec<UserId>,
}

impl Shape {
    /// The request for this shape, run with `algorithm`.
    pub fn request(&self, algorithm: Algorithm) -> QueryRequest {
        let mut b = QueryRequest::for_user(self.user)
            .k(self.k)
            .alpha(self.alpha)
            .algorithm(algorithm);
        if let Some(rect) = self.within {
            b = b.within(rect);
        }
        if let Some(cutoff) = self.max_score {
            b = b.max_score(cutoff);
        }
        if !self.exclude.is_empty() {
            b = b.exclude(self.exclude.iter().copied());
        }
        b.build().expect("generated request shapes are valid")
    }

    /// A plain shape: request `i` of a stream takes the `i`-th pair of
    /// the `ks` × `alphas` grid (cycling), so every pair is equally
    /// represented in any run.
    pub fn plain(user: UserId, i: usize, ks: &[usize], alphas: &[f64]) -> Shape {
        Shape {
            user,
            k: ks[i % ks.len()],
            alpha: alphas[(i / ks.len()) % alphas.len()],
            within: None,
            max_score: None,
            exclude: Vec::new(),
        }
    }

    /// Request `i` of the serve workloads' mix: (k, α) cycles through
    /// {1, 10, 50} × {0.2, 0.3, 0.5, 0.8}; of every ten requests two carry
    /// a selective window (2 % of the data's bounding box, centred on the
    /// user), one a score cutoff and one excludes up to five of the user's
    /// friends.
    pub fn mixed(dataset: &GeoSocialDataset, user: UserId, i: usize) -> Shape {
        let mut shape = Shape::plain(user, i, &[1, 10, 50], &[0.2, 0.3, 0.5, 0.8]);
        match i % 10 {
            0 | 1 => shape.within = Some(selective_window(dataset, user)),
            2 => shape.max_score = Some(MAX_SCORE),
            3 => {
                shape.exclude = dataset
                    .graph()
                    .neighbors(user)
                    .map(|e| e.to)
                    .take(5)
                    .collect()
            }
            _ => {}
        }
        shape
    }

    /// The same shape with a selective window, whatever it had before.
    pub fn windowed(mut self, dataset: &GeoSocialDataset) -> Shape {
        self.within = Some(selective_window(dataset, self.user));
        self
    }
}

/// Score cutoff of the `max_score` requests.
const MAX_SCORE: f64 = 0.05;

/// Side of the selective window as a share of the bounding box's sides
/// (0.14² ≈ 2 % of its area, under the planner's 5 % "selective" line).
const WINDOW_SIDE: f64 = 0.14;

fn selective_window(dataset: &GeoSocialDataset, user: UserId) -> Rect {
    let bounds = dataset.bounds();
    let c = dataset.location(user).unwrap_or_else(|| bounds.center());
    let (hw, hh) = (
        bounds.width() * WINDOW_SIDE / 2.0,
        bounds.height() * WINDOW_SIDE / 2.0,
    );
    Rect::new(
        Point::new(c.x - hw, c.y - hh),
        Point::new(c.x + hw, c.y + hh),
    )
}

/// The planner's social-degree class of `user` (0: ≤ 8, 1: ≤ 64, 2: more).
pub fn degree_class(dataset: &GeoSocialDataset, user: UserId) -> usize {
    match dataset.graph().degree(user) {
        0..=8 => 0,
        9..=64 => 1,
        _ => 2,
    }
}

/// A new location for a moving user: half the moves stay close (a jitter
/// of 1 % of the box), half jump to another located user's spot and so
/// often cross into another shard.  Always inside the bounding box.
pub fn moved_location(
    rng: &mut Rng,
    dataset: &GeoSocialDataset,
    user: UserId,
    located: &[UserId],
) -> Point {
    let bounds = dataset.bounds();
    let base = if rng.unit() < 0.5 {
        dataset.location(user).unwrap_or_else(|| bounds.center())
    } else {
        dataset
            .location(*rng.pick(located))
            .unwrap_or_else(|| bounds.center())
    };
    let jitter = |rng: &mut Rng, side: f64| (rng.unit() - 0.5) * 0.01 * side;
    let x = (base.x + jitter(rng, bounds.width())).clamp(bounds.min.x, bounds.max.x);
    let y = (base.y + jitter(rng, bounds.height())).clamp(bounds.min.y, bounds.max.y);
    Point::new(x, y)
}
