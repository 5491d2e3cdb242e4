use crate::{CsrLayout, Edge, EdgeWeight, GraphError, NodeId, SocialGraph};

/// Incremental builder for a [`SocialGraph`].
///
/// Edges are collected as `(u, v, w)` triples and converted into the CSR
/// layout by [`GraphBuilder::build`].  Duplicate edges are collapsed keeping
/// the smallest weight (the strongest friendship); self-loops are rejected
/// because they can never influence a shortest-path distance between two
/// distinct users.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId, EdgeWeight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` vertices
    /// (ids `0 .. node_count`).
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of (possibly duplicate) edges added so far.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Ensures the builder has room for vertex `v` (growing the vertex count
    /// if necessary).
    pub fn ensure_node(&mut self, v: NodeId) {
        if v as usize >= self.node_count {
            self.node_count = v as usize + 1;
        }
    }

    /// Adds an undirected edge between `u` and `v` with weight `w`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownNode`] if either endpoint is out of range.
    /// * [`GraphError::InvalidEdge`] for self-loops or non-positive /
    ///   non-finite weights.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) -> Result<(), GraphError> {
        if u as usize >= self.node_count {
            return Err(GraphError::UnknownNode(u));
        }
        if v as usize >= self.node_count {
            return Err(GraphError::UnknownNode(v));
        }
        if u == v {
            return Err(GraphError::InvalidEdge(format!("self loop on vertex {u}")));
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(GraphError::InvalidEdge(format!(
                "edge ({u}, {v}) has non-positive or non-finite weight {w}"
            )));
        }
        self.edges.push((u, v, w));
        Ok(())
    }

    /// Convenience constructor: builds a graph directly from an edge list.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, EdgeWeight)>,
    ) -> Result<SocialGraph, GraphError> {
        let mut b = GraphBuilder::new(node_count);
        for (u, v, w) in edges {
            b.add_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    /// Finalizes the builder into a CSR [`SocialGraph`] in the requested
    /// physical layout (see [`CsrLayout`]); topology, weights and iteration
    /// order are identical for every layout.
    pub fn build_with_layout(self, layout: CsrLayout) -> SocialGraph {
        let graph = self.build();
        match layout {
            CsrLayout::Standard => graph,
            CsrLayout::Compressed => graph.with_layout(CsrLayout::Compressed),
        }
    }

    /// Finalizes the builder into a CSR [`SocialGraph`].
    ///
    /// Duplicate undirected edges are merged keeping the minimum weight.
    /// Every weight is then rounded to the nearest multiple of the graph's
    /// quantum `2^-q`, `q = 51 − ⌈log2 Σw⌉` over the merged weights, and
    /// never below one quantum.  Any sum of a few path lengths is then an
    /// integer multiple of the quantum below `2^53` quanta, so every
    /// shortest-path distance is computed without rounding, whichever order
    /// a search adds its edges in: Dijkstra, a bidirectional meeting-point
    /// sum and a Contraction Hierarchies shortcut all return the same bits.
    pub fn build(self) -> SocialGraph {
        let n = self.node_count;
        // Canonicalize (u < v), sort, and deduplicate keeping the minimum
        // weight per pair.
        let mut canon: Vec<(NodeId, NodeId, EdgeWeight)> = self
            .edges
            .into_iter()
            .map(|(u, v, w)| if u < v { (u, v, w) } else { (v, u, w) })
            .collect();
        canon.sort_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        canon.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                // keep the smaller weight, which sorts first
                true
            } else {
                false
            }
        });
        snap_to_grid(&mut canon);

        // Count degrees for both directions.
        let mut degrees = vec![0u32; n];
        for &(u, v, _) in &canon {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degrees[i];
        }
        let total = offsets[n] as usize;
        let mut edges = vec![Edge { to: 0, weight: 0.0 }; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v, w) in &canon {
            edges[cursor[u as usize] as usize] = Edge { to: v, weight: w };
            cursor[u as usize] += 1;
            edges[cursor[v as usize] as usize] = Edge { to: u, weight: w };
            cursor[v as usize] += 1;
        }
        SocialGraph::from_csr(offsets, edges, canon.len())
    }
}

/// The weight grid of a graph whose (deduplicated) edge weights sum to
/// `total`: `2^-q` with `q = 51 − ⌈log2 total⌉`.  A simple path is no longer
/// than `total ≤ 2^51` quanta, so sums of up to four such lengths stay
/// below `2^53` quanta and are exact in `f64`.  `None` for a graph without
/// edges.
pub(crate) fn weight_quantum(total: EdgeWeight) -> Option<EdgeWeight> {
    if !(total > 0.0 && total.is_finite()) {
        return None;
    }
    // Clamped so that both the quantum and 2^53 quanta stay normal numbers.
    let q = (51 - total.log2().ceil() as i32).clamp(-960, 960);
    Some(2f64.powi(-q))
}

/// Rounds every weight to the nearest positive multiple of the edge set's
/// [`weight_quantum`].
fn snap_to_grid(edges: &mut [(NodeId, NodeId, EdgeWeight)]) {
    let total: EdgeWeight = edges.iter().map(|e| e.2).sum();
    let Some(quantum) = weight_quantum(total) else {
        return;
    };
    for edge in edges {
        // Scaling by a power of two is exact, so only `round` rounds.
        edge.2 = (edge.2 / quantum).round().max(1.0) * quantum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(0, 3, 1.0), Err(GraphError::UnknownNode(3)));
        assert_eq!(b.add_edge(5, 0, 1.0), Err(GraphError::UnknownNode(5)));
        assert!(matches!(
            b.add_edge(1, 1, 1.0),
            Err(GraphError::InvalidEdge(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, 0.0),
            Err(GraphError::InvalidEdge(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, -2.0),
            Err(GraphError::InvalidEdge(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidEdge(_))
        ));
    }

    #[test]
    fn duplicate_edges_keep_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5.0).unwrap();
        b.add_edge(1, 0, 2.0).unwrap();
        b.add_edge(0, 1, 7.0).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn ensure_node_grows_vertex_count() {
        let mut b = GraphBuilder::new(1);
        b.ensure_node(10);
        assert_eq!(b.node_count(), 11);
        b.add_edge(0, 10, 1.0).unwrap();
        let g = b.build();
        assert_eq!(g.node_count(), 11);
        assert_eq!(g.edge_weight(0, 10), Some(1.0));
    }

    #[test]
    fn from_edges_builds_symmetric_adjacency() {
        let g = GraphBuilder::from_edges(4, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        for (u, v, w) in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)] {
            assert_eq!(g.edge_weight(u, v), Some(w));
            assert_eq!(g.edge_weight(v, u), Some(w));
        }
    }

    #[test]
    fn pending_edge_counter() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.pending_edges(), 0);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        assert_eq!(b.pending_edges(), 2);
    }

    fn path_graph(weights: &[EdgeWeight]) -> SocialGraph {
        GraphBuilder::from_edges(
            weights.len() + 1,
            weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (i as NodeId, i as NodeId + 1, w)),
        )
        .unwrap()
    }

    #[test]
    fn snapped_weights_are_multiples_of_the_quantum() {
        let input: Vec<EdgeWeight> = (0..500)
            .map(|i| [0.1, 1.0 / 3.0, 2.7, 1e-7, 1e-15][i % 5] * (1.0 + i as f64 / 7.0))
            .collect();
        let g = path_graph(&input);
        let quantum = weight_quantum(input.iter().sum()).unwrap();
        for (i, &w) in input.iter().enumerate() {
            let snapped = g.edge_weight(i as NodeId, i as NodeId + 1).unwrap();
            assert_eq!((snapped / quantum).fract(), 0.0, "{snapped} off the grid");
            assert!(snapped >= quantum, "{w} snapped to zero");
            assert!((snapped - w).abs() <= quantum, "{w} moved to {snapped}");
        }
    }

    #[test]
    fn path_sums_are_equal_forwards_and_backwards() {
        let input = [0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1e-9, 5.1];
        let forwards = |ws: &[EdgeWeight]| ws.iter().fold(0.0, |acc, w| acc + w);
        let backwards = |ws: &[EdgeWeight]| ws.iter().rev().fold(0.0, |acc, w| acc + w);
        // Unsnapped, the order of addition shows in the last bit.
        let raw = &input[..3];
        assert_ne!(forwards(raw).to_bits(), backwards(raw).to_bits());
        let g = path_graph(&input);
        let snapped: Vec<EdgeWeight> = g.undirected_edges().map(|(_, _, w)| w).collect();
        assert_eq!(snapped.len(), input.len());
        for start in 0..snapped.len() {
            for end in start + 1..=snapped.len() {
                let path = &snapped[start..end];
                assert_eq!(forwards(path).to_bits(), backwards(path).to_bits());
            }
        }
    }

    #[test]
    fn min_weight_clamp_survives_snapping() {
        // 2^-30 is the smallest weight the data generators assign; it lies
        // on the grid of any graph whose weights sum to at most 2^21.
        let clamp = 2f64.powi(-30);
        let mut heavy = vec![1024.0; 1023];
        heavy.push(clamp);
        for weights in [vec![clamp; 4], heavy] {
            let g = path_graph(&weights);
            let last = weights.len() as NodeId;
            assert_eq!(g.edge_weight(last - 1, last), Some(clamp));
        }
    }
}
