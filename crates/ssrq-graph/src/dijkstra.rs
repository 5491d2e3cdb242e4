use crate::scratch::{FORWARD, REVERSE};
use crate::{Distance, NodeId, SearchScratch, SocialGraph};
use std::cmp::Ordering;

/// A min-heap entry (distance key + vertex) used by all graph searches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapItem {
    pub key: f64,
    pub node: NodeId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.node == other.node
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering on the key: BinaryHeap is a max-heap, searches
        // need a min-heap.  Ties broken on node id for determinism.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// `d` if it is below `budget`, `f64::INFINITY` otherwise.
#[inline]
pub(crate) fn within(d: Distance, budget: Distance) -> Distance {
    if d < budget {
        d
    } else {
        f64::INFINITY
    }
}

/// A resumable Dijkstra expansion from a fixed source vertex.
///
/// The expansion yields settled vertices one at a time in non-decreasing
/// distance order, which is exactly the "sorted access" on the social
/// repository that SFA and TSA require (§4).  The AIS graph-distance module
/// keeps one instance alive for the whole query and meets it with a short
/// reverse search from each target ([`IncrementalDijkstra::distance_within`]);
/// the forward half of every such search is resumed, never restarted
/// (*forward heap caching*, §5.2) — possible precisely because Dijkstra keys
/// do not depend on the target vertex.
///
/// The search borrows its dense state from a [`SearchScratch`], so starting
/// one costs `O(1)` instead of `O(|V|)`: the scratch is reset by epoch bump,
/// not by reallocation.  Create the scratch once per worker and reuse it for
/// every query.
#[derive(Debug)]
pub struct IncrementalDijkstra<'s> {
    source: NodeId,
    scratch: &'s mut SearchScratch,
    last_settled: Distance,
    settled_count: usize,
    reverse_settled_count: usize,
    pops: usize,
    relaxations: usize,
}

impl<'s> IncrementalDijkstra<'s> {
    /// Starts a new expansion around `source`, drawing state from
    /// `scratch` (which is reset first).
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a vertex of `graph`.
    pub fn new(graph: &SocialGraph, source: NodeId, scratch: &'s mut SearchScratch) -> Self {
        assert!(
            graph.contains(source),
            "source vertex {source} out of range"
        );
        scratch.begin(graph.node_count());
        scratch.relax(FORWARD, source, 0.0);
        scratch.heaps[FORWARD].push(HeapItem {
            key: 0.0,
            node: source,
        });
        IncrementalDijkstra {
            source,
            scratch,
            last_settled: 0.0,
            settled_count: 0,
            reverse_settled_count: 0,
            pops: 0,
            relaxations: 0,
        }
    }

    /// The source vertex of the expansion.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Settles and returns the next closest vertex, or `None` when every
    /// reachable vertex has been settled.
    pub fn next_settled(&mut self, graph: &SocialGraph) -> Option<(NodeId, Distance)> {
        let mut unused_mu = f64::INFINITY;
        self.step::<FORWARD, false>(graph, &mut unused_mu)
    }

    /// Settles the next vertex of direction `DIR`.  With `MEET`, every
    /// relaxation also offers the path through the relaxed edge and the
    /// other direction's label of its head as a source–target path length
    /// (`mu`).
    #[inline]
    fn step<const DIR: usize, const MEET: bool>(
        &mut self,
        graph: &SocialGraph,
        mu: &mut Distance,
    ) -> Option<(NodeId, Distance)> {
        while let Some(HeapItem { key, node }) = self.scratch.heaps[DIR].pop() {
            self.pops += 1;
            if self.scratch.is_settled(DIR, node) {
                continue; // stale heap entry (lazy deletion)
            }
            self.scratch.mark_settled(DIR, node);
            if DIR == FORWARD {
                self.settled_count += 1;
                self.last_settled = key;
            } else {
                self.reverse_settled_count += 1;
            }
            for edge in graph.neighbors(node) {
                self.relaxations += 1;
                let cand = key + edge.weight;
                if self.scratch.relax(DIR, edge.to, cand) {
                    self.scratch.heaps[DIR].push(HeapItem {
                        key: cand,
                        node: edge.to,
                    });
                }
                if MEET {
                    let through = cand + self.scratch.tentative(1 - DIR, edge.to);
                    if through < *mu {
                        *mu = through;
                    }
                }
            }
            return Some((node, key));
        }
        None
    }

    /// Exact distance from the source to `target` if it is below `budget`,
    /// `f64::INFINITY` otherwise (including when `target` is unreachable).
    ///
    /// A bidirectional Dijkstra (Goldberg & Harrelson, SODA 2005): a fresh
    /// reverse search from `target` meets the persistent forward expansion,
    /// whose progress is kept for later calls.  The side with the smaller
    /// heap top steps; every relaxation offers the path through the relaxed
    /// edge and the other side's label as `μ`; the search stops once
    /// `top_f + top_r ≥ min(μ, budget)`.  A drained heap counts as an
    /// infinite top, which stops the search: that side's whole component
    /// has been explored.
    ///
    /// The answer is exact bit for bit when the graph's weights lie on the
    /// grid of [`GraphBuilder::build`](crate::GraphBuilder::build): every
    /// path sum is then computed without rounding, so `μ` equals what a
    /// plain Dijkstra returns, whichever order the directions step in.
    pub fn distance_within(
        &mut self,
        graph: &SocialGraph,
        target: NodeId,
        budget: Distance,
    ) -> Distance {
        if let Some(d) = self.settled_distance(target) {
            return within(d, budget);
        }
        self.scratch.begin_reverse();
        self.scratch.relax(REVERSE, target, 0.0);
        self.scratch.heaps[REVERSE].push(HeapItem {
            key: 0.0,
            node: target,
        });
        let mut mu = self.scratch.tentative(FORWARD, target);
        loop {
            let top = |dir: usize| {
                self.scratch.heaps[dir]
                    .peek()
                    .map_or(f64::INFINITY, |e| e.key)
            };
            let (top_f, top_r) = (top(FORWARD), top(REVERSE));
            if top_f + top_r >= mu.min(budget) {
                break;
            }
            if top_f <= top_r {
                self.step::<FORWARD, true>(graph, &mut mu);
            } else {
                self.step::<REVERSE, true>(graph, &mut mu);
            }
        }
        within(mu, budget)
    }

    /// Runs the expansion until `target` is settled and returns its exact
    /// distance (`f64::INFINITY` if unreachable).
    pub fn run_until_settled(&mut self, graph: &SocialGraph, target: NodeId) -> Distance {
        if let Some(d) = self.settled_distance(target) {
            return d;
        }
        while let Some((node, d)) = self.next_settled(graph) {
            if node == target {
                return d;
            }
        }
        f64::INFINITY
    }

    /// Exact distance of a vertex if it has already been settled.
    #[inline]
    pub fn settled_distance(&self, v: NodeId) -> Option<Distance> {
        if self.scratch.is_settled(FORWARD, v) {
            Some(self.scratch.tentative(FORWARD, v))
        } else {
            None
        }
    }

    /// Tentative (upper-bound) distance of a vertex; `INFINITY` if it has
    /// not been touched yet.
    #[inline]
    pub fn tentative_distance(&self, v: NodeId) -> Distance {
        self.scratch.tentative(FORWARD, v)
    }

    /// Returns `true` when `v` has been settled (its distance is exact).
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.scratch.is_settled(FORWARD, v)
    }

    /// Distance of the most recently settled vertex — a lower bound on the
    /// distance of every unsettled vertex (the `t_p` / `β` bound used by the
    /// algorithms).
    #[inline]
    pub fn frontier_bound(&self) -> Distance {
        self.last_settled
    }

    /// Returns `true` when the expansion has settled every vertex it can
    /// reach.
    pub fn exhausted(&self) -> bool {
        self.scratch.heaps[FORWARD].is_empty()
    }

    /// Number of vertices settled by the forward expansion so far.
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Number of vertices settled by the reverse searches of
    /// [`IncrementalDijkstra::distance_within`] so far (a vertex settled by
    /// several of them counts once per search).
    pub fn reverse_settled_count(&self) -> usize {
        self.reverse_settled_count
    }

    /// Number of heap pops performed in both directions (including stale
    /// entries).
    pub fn pops(&self) -> usize {
        self.pops
    }

    /// Number of edge relaxations attempted so far in both directions (one
    /// per neighbour edge of every settled vertex).  The expansion's
    /// run-time is dominated by these, which makes the counter a
    /// timing-free proxy for search effort.
    pub fn relaxations(&self) -> usize {
        self.relaxations
    }

    /// Reconstructs a shortest path from the source to `v` (inclusive of
    /// both endpoints).  Returns `None` if `v` has not been settled.
    ///
    /// No parent pointers are kept: the walk steps back from each vertex to
    /// a settled neighbour `u` with `d(u) + w(u, v) == d(v)`.  The test is
    /// exact because path sums on the weight grid of
    /// [`GraphBuilder::build`](crate::GraphBuilder::build) do not round, and
    /// such a neighbour always exists because Dijkstra settles every vertex
    /// closer than `v` before `v`.
    pub fn path_to(&self, graph: &SocialGraph, v: NodeId) -> Option<Vec<NodeId>> {
        let mut d = self.settled_distance(v)?;
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            let (prev, dp) = graph.neighbors(cur).find_map(|edge| {
                self.settled_distance(edge.to)
                    .filter(|&du| du + edge.weight == d)
                    .map(|du| (edge.to, du))
            })?;
            path.push(prev);
            cur = prev;
            d = dp;
        }
        path.reverse();
        Some(path)
    }

    /// The exact distances of every vertex settled so far, materialized as a
    /// dense vector (`INFINITY` for unsettled vertices).
    pub fn distances(&self, graph: &SocialGraph) -> Vec<Distance> {
        graph
            .nodes()
            .map(|v| self.settled_distance(v).unwrap_or(f64::INFINITY))
            .collect()
    }
}

/// Computes the distances from `source` to every vertex (single-source
/// shortest paths).  Unreachable vertices get `f64::INFINITY`.
///
/// Allocates a fresh [`SearchScratch`] per call; use
/// [`dijkstra_all_with`] in loops that can reuse one.
pub fn dijkstra_all(graph: &SocialGraph, source: NodeId) -> Vec<Distance> {
    let mut scratch = SearchScratch::new();
    dijkstra_all_with(graph, source, &mut scratch)
}

/// [`dijkstra_all`] drawing state from a caller-provided scratch, for reuse
/// across many single-source computations (landmark construction, oracle
/// sweeps).
pub fn dijkstra_all_with(
    graph: &SocialGraph,
    source: NodeId,
    scratch: &mut SearchScratch,
) -> Vec<Distance> {
    let mut search = IncrementalDijkstra::new(graph, source, scratch);
    while search.next_settled(graph).is_some() {}
    search.distances(graph)
}

/// Computes the point-to-point distance between `source` and `target` with
/// plain Dijkstra, stopping as soon as the target is settled.
pub fn dijkstra_distance(graph: &SocialGraph, source: NodeId, target: NodeId) -> Distance {
    let mut scratch = SearchScratch::new();
    let mut search = IncrementalDijkstra::new(graph, source, &mut scratch);
    search.run_until_settled(graph, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The small example graph of Figure 5 in the paper.
    fn example_graph() -> SocialGraph {
        // vq=0, v1..v11 = 1..11
        GraphBuilder::from_edges(
            12,
            vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (0, 3, 1.0),
                (2, 4, 1.0),
                (3, 4, 2.0),
                (4, 5, 1.0),
                (4, 6, 2.0),
                (5, 7, 1.0),
                (6, 8, 1.0),
                (7, 9, 5.0),
                (8, 9, 3.0),
                (9, 10, 1.0),
                (10, 11, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn distances_match_hand_computation() {
        let g = example_graph();
        let d = dijkstra_all(&g, 0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[3], 1.0);
        assert_eq!(d[4], 3.0);
        assert_eq!(d[5], 4.0);
        assert_eq!(d[6], 5.0);
        assert_eq!(d[7], 5.0);
        assert_eq!(d[8], 6.0);
        assert_eq!(d[9], 9.0);
        assert_eq!(d[10], 10.0);
        assert_eq!(d[11], 12.0);
    }

    #[test]
    fn settled_order_is_nondecreasing() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        let mut prev = 0.0;
        while let Some((_, d)) = search.next_settled(&g) {
            assert!(d >= prev);
            prev = d;
        }
        assert_eq!(search.settled_count(), 12);
        assert!(search.exhausted());
    }

    #[test]
    fn point_to_point_early_termination() {
        let g = example_graph();
        assert_eq!(dijkstra_distance(&g, 0, 5), 4.0);
        assert_eq!(dijkstra_distance(&g, 11, 0), 12.0);
        assert_eq!(dijkstra_distance(&g, 3, 3), 0.0);
    }

    #[test]
    fn unreachable_vertices_are_infinite() {
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 1.0)]).unwrap();
        let d = dijkstra_all(&g, 0);
        assert_eq!(d[1], 1.0);
        assert!(d[2].is_infinite());
        assert!(d[3].is_infinite());
        assert!(dijkstra_distance(&g, 0, 3).is_infinite());
    }

    #[test]
    fn resumable_expansion_can_be_interleaved() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        // Settle a few vertices, query the state, then continue.
        let first = search.next_settled(&g).unwrap();
        assert_eq!(first, (0, 0.0));
        let _ = search.next_settled(&g).unwrap();
        assert!(search.is_settled(0));
        assert!(!search.is_settled(11));
        assert!(search.tentative_distance(11).is_infinite());
        let d5 = search.run_until_settled(&g, 5);
        assert_eq!(d5, 4.0);
        // Frontier bound equals distance of last settled vertex.
        assert_eq!(search.frontier_bound(), 4.0);
        // Continue to the end without issues.
        let d11 = search.run_until_settled(&g, 11);
        assert_eq!(d11, 12.0);
    }

    #[test]
    fn path_reconstruction_follows_shortest_path() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        search.run_until_settled(&g, 9);
        let path = search.path_to(&g, 9).unwrap();
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&9));
        // Path length equals the computed distance.
        let mut total = 0.0;
        for w in path.windows(2) {
            total += g.edge_weight(w[0], w[1]).unwrap();
        }
        assert_eq!(total, 9.0);
        assert!(search.path_to(&g, 11).is_none());
    }

    #[test]
    fn frontier_bound_lower_bounds_unsettled_vertices() {
        let g = example_graph();
        let full = dijkstra_all(&g, 0);
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        for _ in 0..6 {
            search.next_settled(&g);
        }
        let bound = search.frontier_bound();
        for v in g.nodes() {
            if !search.is_settled(v) {
                assert!(full[v as usize] >= bound);
            }
        }
    }

    #[test]
    fn scratch_reuse_across_searches_gives_identical_results() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        // Run a partial search to deliberately dirty the scratch.
        {
            let mut partial = IncrementalDijkstra::new(&g, 11, &mut scratch);
            partial.run_until_settled(&g, 9);
        }
        // A full search over the dirty scratch must match a fresh one.
        let reused = dijkstra_all_with(&g, 0, &mut scratch);
        let fresh = dijkstra_all(&g, 0);
        assert_eq!(reused, fresh);
        assert!(scratch.resets() >= 2);
    }

    #[test]
    fn one_scratch_serves_many_sources_without_reallocating() {
        let g = example_graph();
        let mut scratch = SearchScratch::with_capacity(g.node_count());
        for source in g.nodes() {
            let with_scratch = dijkstra_all_with(&g, source, &mut scratch);
            assert_eq!(with_scratch, dijkstra_all(&g, source), "source {source}");
        }
        assert_eq!(scratch.capacity(), g.node_count());
    }

    #[test]
    fn compressed_layout_is_bit_identical_including_counters() {
        let g = example_graph();
        let c = g.with_layout(crate::CsrLayout::Compressed);
        for source in g.nodes() {
            let mut s1 = SearchScratch::new();
            let mut s2 = SearchScratch::new();
            let mut a = IncrementalDijkstra::new(&g, source, &mut s1);
            let mut b = IncrementalDijkstra::new(&c, source, &mut s2);
            loop {
                let (x, y) = (a.next_settled(&g), b.next_settled(&c));
                // Identical settle order, identical exact distances.
                assert_eq!(x, y, "source {source}");
                assert_eq!(a.relaxations(), b.relaxations(), "source {source}");
                assert_eq!(a.pops(), b.pops(), "source {source}");
                if x.is_none() {
                    break;
                }
            }
        }
    }

    /// A connected-ish random graph with non-dyadic input weights spanning
    /// several orders of magnitude, plus a few isolated vertices.
    fn random_graph(rng: &mut rand::rngs::StdRng, n: usize) -> SocialGraph {
        use rand::Rng;
        let mut b = GraphBuilder::new(n + 3);
        let weight = |rng: &mut rand::rngs::StdRng| 10f64.powf(rng.gen_range(-4.0..1.0)) / 3.0;
        for v in 1..n {
            let u = rng.gen_range(0..v);
            let w = weight(rng);
            b.add_edge(u as NodeId, v as NodeId, w).unwrap();
        }
        for _ in 0..2 * n {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                let w = weight(rng);
                b.add_edge(u as NodeId, v as NodeId, w).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn distance_within_is_bit_equal_to_dijkstra_in_any_call_order() {
        use rand::{Rng, SeedableRng};
        for seed in 0..24 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..150);
            let g = random_graph(&mut rng, n);
            let n = g.node_count();
            let source = rng.gen_range(0..n) as NodeId;
            let truth = dijkstra_all(&g, source);
            let calls: Vec<(NodeId, Distance)> = (0..60)
                .map(|_| {
                    let target = rng.gen_range(0..n) as NodeId;
                    let budget = match rng.gen_range(0..4) {
                        0 => f64::INFINITY,
                        1 => truth[target as usize], // exactly at the budget
                        _ => rng.gen_range(0.0..2.0),
                    };
                    (target, budget)
                })
                .collect();
            let (mut s1, mut s2) = (SearchScratch::new(), SearchScratch::new());
            let mut first = IncrementalDijkstra::new(&g, source, &mut s1);
            let mut second = IncrementalDijkstra::new(&g, source, &mut s2);
            let in_order = calls.iter().map(|&(t, b)| (t, b, 0));
            let reversed = calls.iter().rev().map(|&(t, b)| (t, b, 1));
            for (target, budget, engine) in in_order.chain(reversed) {
                let search = if engine == 0 { &mut first } else { &mut second };
                let got = search.distance_within(&g, target, budget);
                let want = truth[target as usize];
                let want = if want < budget { want } else { f64::INFINITY };
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {seed}: d({source}, {target}) within {budget}"
                );
            }
        }
    }

    #[test]
    fn path_to_walks_back_along_exact_distances() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = random_graph(&mut rng, 120);
        let mut scratch = SearchScratch::new();
        let mut search = IncrementalDijkstra::new(&g, 0, &mut scratch);
        while search.next_settled(&g).is_some() {}
        for v in 0..120 {
            let path = search.path_to(&g, v).unwrap();
            assert_eq!((path[0], path[path.len() - 1]), (0, v));
            let length = path
                .windows(2)
                .map(|e| g.edge_weight(e[0], e[1]).unwrap())
                .fold(0.0, |acc, w| acc + w);
            assert_eq!(length, search.settled_distance(v).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_source_panics() {
        let g = example_graph();
        let mut scratch = SearchScratch::new();
        IncrementalDijkstra::new(&g, 99, &mut scratch);
    }
}
