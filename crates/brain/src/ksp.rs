//! Dijkstra and Yen's K-shortest-paths over a weighted overlay graph.
//!
//! The exact per-pair search (paper §4.3 cites Eppstein's KSP problem;
//! Yen's algorithm is simple, loopless, exact). Global Routing runs it for
//! hop limits above 3, and its tests hold the ≤ 3-hop enumeration of the
//! 10-minute job (`routing.rs`) against it.

use livenet_types::NodeId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A dense weighted digraph view used by the routing algorithms.
///
/// Node indices are positions in `ids`; adjacency holds `(neighbor, weight)`
/// in deterministic order.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// Node IDs by index.
    pub ids: Vec<NodeId>,
    /// Out-adjacency: `adj[u] = [(v, w), ...]`.
    pub adj: Vec<Vec<(usize, f64)>>,
}

impl WeightedGraph {
    /// Build from the caller's own edge list (weights finite and ≥ 0; measured
    /// ones are vetted by `GlobalRouting::build_graph`); nodes come from `ids`.
    pub fn new(ids: Vec<NodeId>, edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Self {
        let index: HashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut adj = vec![Vec::new(); ids.len()];
        for (f, t, w) in edges {
            let (Some(&fi), Some(&ti)) = (index.get(&f), index.get(&t)) else {
                continue;
            };
            debug_assert!(w.is_finite() && w >= 0.0, "bad edge weight {w}");
            adj[fi].push((ti, w));
        }
        WeightedGraph { ids, adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    node: usize,
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; tie-break on node index for determinism.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then(other.node.cmp(&self.node))
    }
}

/// Dijkstra from `src` to `dst` with optional banned nodes/edges.
///
/// Returns `(total_cost, node_index_path)` or `None` when unreachable.
/// `max_hops` bounds the number of edges on the returned path (the paper's
/// 3-hop constraint is applied during search to avoid discarding later).
pub fn dijkstra(
    g: &WeightedGraph,
    src: usize,
    dst: usize,
    banned_nodes: &HashSet<usize>,
    banned_edges: &HashSet<(usize, usize)>,
    max_hops: usize,
) -> Option<(f64, Vec<usize>)> {
    if banned_nodes.contains(&src) || banned_nodes.contains(&dst) {
        return None;
    }
    if src == dst {
        return Some((0.0, vec![src]));
    }
    // State space is (node, hops) because of the hop bound: a longer-hop
    // cheaper path must not shadow a shorter-hop costlier one.
    let n = g.len();
    let mut best = vec![f64::INFINITY; n * (max_hops + 1)];
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; n * (max_hops + 1)];
    let idx = |node: usize, hops: usize| hops * n + node;

    let mut heap = BinaryHeap::new();
    best[idx(src, 0)] = 0.0;
    heap.push((
        HeapItem {
            cost: 0.0,
            node: src,
        },
        0usize,
    ));

    let mut best_dst: Option<(f64, usize)> = None; // (cost, hops)
    while let Some((HeapItem { cost, node }, hops)) = heap.pop() {
        if cost > best[idx(node, hops)] {
            continue;
        }
        if node == dst {
            match best_dst {
                Some((c, _)) if c <= cost => {}
                _ => best_dst = Some((cost, hops)),
            }
            continue;
        }
        if hops == max_hops {
            continue;
        }
        for &(next, w) in &g.adj[node] {
            if banned_nodes.contains(&next) || banned_edges.contains(&(node, next)) {
                continue;
            }
            let nc = cost + w;
            // Prune: can't beat the best complete path already found.
            if let Some((c, _)) = best_dst {
                if nc >= c {
                    continue;
                }
            }
            let slot = idx(next, hops + 1);
            if nc < best[slot] {
                best[slot] = nc;
                prev[slot] = Some((node, hops));
                heap.push((
                    HeapItem {
                        cost: nc,
                        node: next,
                    },
                    hops + 1,
                ));
            }
        }
    }

    let (cost, hops) = best_dst?;
    // Reconstruct.
    let mut path = vec![dst];
    let mut cur = (dst, hops);
    while cur.0 != src || cur.1 != 0 {
        let Some(p) = prev[idx(cur.0, cur.1)] else {
            return None; // shouldn't happen
        };
        path.push(p.0);
        cur = p;
    }
    path.reverse();
    Some((cost, path))
}

/// Yen's K shortest loopless paths from `src` to `dst`.
///
/// Returns up to `k` paths, each `(cost, node_index_path)`, sorted by cost.
/// All paths respect `max_hops`.
pub fn yen_ksp(
    g: &WeightedGraph,
    src: usize,
    dst: usize,
    k: usize,
    max_hops: usize,
) -> Vec<(f64, Vec<usize>)> {
    let empty_nodes = HashSet::new();
    let empty_edges = HashSet::new();
    let Some(first) = dijkstra(g, src, dst, &empty_nodes, &empty_edges, max_hops) else {
        return Vec::new();
    };
    let mut paths: Vec<(f64, Vec<usize>)> = vec![first];
    let mut candidates: Vec<(f64, Vec<usize>)> = Vec::new();

    while paths.len() < k {
        let last = paths.last().expect("at least one path").1.clone();
        // For each spur node in the previous shortest path...
        for i in 0..last.len() - 1 {
            let spur = last[i];
            let root = &last[..=i];
            let root_cost: f64 = root.windows(2).map(|w| edge_weight(g, w[0], w[1])).sum();

            // Ban edges used by already-found paths sharing this root.
            let mut banned_edges = HashSet::new();
            for (_, p) in &paths {
                if p.len() > i && p[..=i] == *root {
                    if let (Some(&a), Some(&b)) = (p.get(i), p.get(i + 1)) {
                        banned_edges.insert((a, b));
                    }
                }
            }
            for (_, p) in &candidates {
                if p.len() > i && p[..=i] == *root {
                    if let (Some(&a), Some(&b)) = (p.get(i), p.get(i + 1)) {
                        banned_edges.insert((a, b));
                    }
                }
            }
            // Ban root nodes except the spur (looplessness).
            let banned_nodes: HashSet<usize> = root[..i].iter().copied().collect();

            let remaining_hops = max_hops.saturating_sub(i);
            if remaining_hops == 0 {
                continue;
            }
            if let Some((spur_cost, spur_path)) =
                dijkstra(g, spur, dst, &banned_nodes, &banned_edges, remaining_hops)
            {
                let mut total: Vec<usize> = root[..i].to_vec();
                total.extend(spur_path);
                let cost = root_cost + spur_cost;
                if !paths.iter().any(|(_, p)| *p == total)
                    && !candidates.iter().any(|(_, p)| *p == total)
                {
                    candidates.push((cost, total));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the cheapest candidate (deterministic tie-break on the path).
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        paths.push(candidates.remove(0));
    }
    paths
}

fn edge_weight(g: &WeightedGraph, a: usize, b: usize) -> f64 {
    g.adj[a]
        .iter()
        .find(|(n, _)| *n == b)
        .map(|(_, w)| *w)
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// Classic Yen example graph (C→H, from the Wikipedia illustration).
    fn yen_graph() -> WeightedGraph {
        // Nodes: C=0, D=1, E=2, F=3, G=4, H=5
        let ids: Vec<NodeId> = (0..6).map(nid).collect();
        let edges = vec![
            (nid(0), nid(1), 3.0), // C-D
            (nid(0), nid(2), 2.0), // C-E
            (nid(1), nid(3), 4.0), // D-F
            (nid(2), nid(1), 1.0), // E-D
            (nid(2), nid(3), 2.0), // E-F
            (nid(2), nid(4), 3.0), // E-G
            (nid(3), nid(4), 2.0), // F-G
            (nid(3), nid(5), 1.0), // F-H
            (nid(4), nid(5), 2.0), // G-H
        ];
        WeightedGraph::new(ids, edges)
    }

    #[test]
    fn dijkstra_finds_shortest() {
        let g = yen_graph();
        let (cost, path) = dijkstra(&g, 0, 5, &HashSet::new(), &HashSet::new(), 10).unwrap();
        assert_eq!(cost, 5.0);
        assert_eq!(path, vec![0, 2, 3, 5]); // C-E-F-H
    }

    #[test]
    fn dijkstra_respects_hop_limit() {
        let g = yen_graph();
        // Max 2 hops: C-E-F-H (3 hops) is out; C-D-F? that's 2 hops to F,
        // then no. No 2-hop path to H exists... C-E-G? then H needs 3.
        let r = dijkstra(&g, 0, 5, &HashSet::new(), &HashSet::new(), 2);
        assert!(r.is_none());
        let (cost, path) = dijkstra(&g, 0, 5, &HashSet::new(), &HashSet::new(), 3).unwrap();
        assert_eq!(path.len() - 1, 3);
        assert_eq!(cost, 5.0);
    }

    #[test]
    fn dijkstra_banned_node() {
        let g = yen_graph();
        let banned: HashSet<usize> = [2].into_iter().collect(); // ban E
        let (cost, path) = dijkstra(&g, 0, 5, &banned, &HashSet::new(), 10).unwrap();
        assert_eq!(path, vec![0, 1, 3, 5]); // C-D-F-H
        assert_eq!(cost, 8.0);
    }

    #[test]
    fn dijkstra_unreachable() {
        let ids: Vec<NodeId> = (0..2).map(nid).collect();
        let g = WeightedGraph::new(ids, vec![]);
        assert!(dijkstra(&g, 0, 1, &HashSet::new(), &HashSet::new(), 5).is_none());
    }

    #[test]
    fn dijkstra_src_equals_dst() {
        let g = yen_graph();
        let (cost, path) = dijkstra(&g, 3, 3, &HashSet::new(), &HashSet::new(), 5).unwrap();
        assert_eq!(cost, 0.0);
        assert_eq!(path, vec![3]);
    }

    #[test]
    fn yen_matches_known_k3() {
        // The canonical result: C-E-F-H (5), C-E-G-H (7), C-D-F-H (8).
        let g = yen_graph();
        let paths = yen_ksp(&g, 0, 5, 3, 10);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0], (5.0, vec![0, 2, 3, 5]));
        assert_eq!(paths[1], (7.0, vec![0, 2, 4, 5]));
        assert_eq!(paths[2], (8.0, vec![0, 1, 3, 5]));
    }

    #[test]
    fn yen_paths_are_loopless_and_distinct() {
        let g = yen_graph();
        let paths = yen_ksp(&g, 0, 5, 5, 10);
        for (i, (_, p)) in paths.iter().enumerate() {
            let set: HashSet<usize> = p.iter().copied().collect();
            assert_eq!(set.len(), p.len(), "loop in path {p:?}");
            for (j, (_, q)) in paths.iter().enumerate() {
                if i != j {
                    assert_ne!(p, q);
                }
            }
        }
    }

    #[test]
    fn yen_costs_nondecreasing() {
        let g = yen_graph();
        let paths = yen_ksp(&g, 0, 5, 5, 10);
        for w in paths.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn yen_respects_hop_limit() {
        let g = yen_graph();
        let paths = yen_ksp(&g, 0, 5, 5, 3);
        assert!(!paths.is_empty());
        for (_, p) in &paths {
            assert!(p.len() - 1 <= 3, "path {p:?} exceeds hop limit");
        }
    }

    #[test]
    fn hop_bounded_beats_greedy_when_cheap_path_is_long() {
        // src -0.1-> a -0.1-> b -0.1-> c -0.1-> dst  (cost 0.4, 4 hops)
        // src -----------1.0-----------> dst          (cost 1.0, 1 hop)
        let ids: Vec<NodeId> = (0..6).map(nid).collect();
        let edges = vec![
            (nid(0), nid(1), 0.1),
            (nid(1), nid(2), 0.1),
            (nid(2), nid(3), 0.1),
            (nid(3), nid(5), 0.1),
            (nid(0), nid(5), 1.0),
        ];
        let g = WeightedGraph::new(ids, edges);
        let (cost, path) = dijkstra(&g, 0, 5, &HashSet::new(), &HashSet::new(), 3).unwrap();
        assert_eq!(path, vec![0, 5]);
        assert_eq!(cost, 1.0);
        let (cost4, _) = dijkstra(&g, 0, 5, &HashSet::new(), &HashSet::new(), 4).unwrap();
        assert!((cost4 - 0.4).abs() < 1e-9);
    }
}
