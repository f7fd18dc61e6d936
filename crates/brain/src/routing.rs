//! Global Routing (paper §4.3): the two-step heuristic.
//!
//! Step 1: abstract link weights (Eq. 2–3) and find K = 3 best paths per
//! pair of routable nodes (enumeration up to 3 hops, Yen's KSP beyond).
//!
//! Step 2: filter out paths that violate the constraints — longer than
//! 3 hops, or containing overloaded (≥ 80%) links or nodes.
//!
//! When every computed path for a pair is filtered out, the Path Decision
//! module falls back to last-resort paths (producer → last-resort relay →
//! consumer), built here as well.

use crate::ksp::{yen_ksp, WeightedGraph};
use crate::pib::{position, OverlayPath, Pib};
use crate::weight::{link_weight, WeightParams};
use livenet_types::{NodeId, SimTime};
use livenet_topology::{LinkMetrics, Topology, OVERLOAD_TARGET};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Global Routing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingConfig {
    /// Number of candidate paths per pair (paper: K = 3).
    pub k: usize,
    /// Maximum overlay hops per path (paper: 3).
    pub max_hops: usize,
    /// Weight-function hyper-parameters.
    pub weight: WeightParams,
    /// Recompute period (paper: 10 minutes). Stored for drivers.
    pub period_secs: u64,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            k: 3,
            max_hops: 3,
            weight: WeightParams::default(),
            period_secs: 600,
        }
    }
}

/// The Global Routing module.
#[derive(Debug, Clone)]
pub struct GlobalRouting {
    config: RoutingConfig,
}

impl GlobalRouting {
    /// New module with the given config.
    pub fn new(config: RoutingConfig) -> Self {
        GlobalRouting { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// The abstracted weighted graph of the current topology view, for the
    /// per-pair Yen search ([`Self::compute_pair`]): the same snapshot the
    /// all-pairs job reads, as adjacency lists.
    pub fn build_graph(&self, topology: &Topology) -> WeightedGraph {
        Snapshot::take(topology, &self.config).into_graph()
    }

    /// Step 1 + step 2 for one pair: K shortest paths, then constraint
    /// filtering. `now` stamps the resulting paths.
    pub fn compute_pair(
        &self,
        topology: &Topology,
        graph: &WeightedGraph,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
    ) -> Vec<OverlayPath> {
        let (Some(s), Some(d)) = (position(&graph.ids, src), position(&graph.ids, dst)) else {
            return Vec::new();
        };
        self.yen_pair(topology, graph, s, d)
            .into_iter()
            .map(|(weight, path)| OverlayPath {
                nodes: path.into_iter().map(|i| graph.ids[i]).collect(),
                weight,
                computed_at: now,
                last_resort: false,
            })
            .collect()
    }

    /// [`Self::compute_pair`] by position in `graph.ids`: Yen's K that pass
    /// step 2, best first, as (weight, index path).
    fn yen_pair(&self, topology: &Topology, graph: &WeightedGraph, s: usize, d: usize) -> Vec<(f64, Vec<usize>)> {
        let mut paths = yen_ksp(graph, s, d, self.config.k, self.config.max_hops);
        paths.retain(|(_, path)| {
            let nodes: Vec<NodeId> = path.iter().map(|&i| graph.ids[i]).collect();
            self.satisfies_constraints(topology, &nodes)
        });
        paths
    }

    /// Step 2's predicate over a path's nodes, producer first: hop bound
    /// and overload checks.
    pub fn satisfies_constraints(&self, topology: &Topology, nodes: &[NodeId]) -> bool {
        if nodes.len().saturating_sub(1) > self.config.max_hops {
            return false;
        }
        for &n in nodes {
            if let Some(info) = topology.node(n) {
                if info.utilization >= OVERLOAD_TARGET {
                    return false;
                }
            }
        }
        for w in nodes.windows(2) {
            if !topology.link_is_up(w[0], w[1]) {
                return false; // link (or an endpoint) is down
            }
            if let Some(l) = topology.link(w[0], w[1]) {
                if l.utilization >= OVERLOAD_TARGET {
                    return false;
                }
            } else {
                return false; // link disappeared from the view
            }
        }
        true
    }

    /// Full recomputation over all routable pairs, as a map: one round
    /// into a fresh PIB, listed. What the Brain runs is
    /// [`Self::compute_into`]; this form serves the pins and the oracles.
    pub fn compute_all(
        &self,
        topology: &Topology,
        now: SimTime,
    ) -> HashMap<(NodeId, NodeId), Vec<OverlayPath>> {
        let mut pib = Pib::new();
        self.compute_into(topology, now, &mut pib);
        pib.iter().collect()
    }

    /// The 10-minute job: rewrite `pib` in place with a round over the
    /// current topology, stamped `now`.
    ///
    /// Enumerates direct, 2-hop and 3-hop paths over one dense snapshot
    /// when the hop limit is ≤ 3 (LiveNet's production constraint); falls
    /// back to Yen's KSP per pair for larger hop limits. The two agree on
    /// every pair's best path; the rest of a list can differ in 3-hop
    /// entries (see `mesh`).
    pub(crate) fn compute_into(&self, topology: &Topology, now: SimTime, pib: &mut Pib) {
        let snap = Snapshot::take(topology, &self.config);
        pib.begin_round(&snap.ids, self.config.k, self.config.max_hops, now);
        if self.config.max_hops <= 3 {
            return self.mesh(&snap, pib);
        }
        let graph = snap.into_graph();
        for s in 0..graph.len() {
            for d in (0..graph.len()).filter(|&d| d != s) {
                for (rank, (weight, path)) in self.yen_pair(topology, &graph, s, d).iter().enumerate() {
                    pib.write(s, d, rank, *weight, path);
                }
            }
        }
    }

    /// All-pairs K best paths of at most 3 hops over a dense overlay, O(n³):
    /// per pair the direct link, every 2-hop path s→r→d and, per second
    /// relay r2, the one 3-hop path s→r1→r2→d with the cheapest r1.
    ///
    /// The best path and its weight are Yen's. The rest of the list can
    /// differ from Yen's in 3-hop entries only: a second 3-hop path through
    /// the same r2 is never a candidate.
    ///
    /// Candidates are ordered by (weight, index path); the K best are
    /// selected first and the constraints filter that selection, so an
    /// overloaded path leaves a shorter list — it is not replaced by the
    /// K+1-th candidate (§4.3 step 1, then step 2): a filtered path's slot
    /// stays empty.
    fn mesh(&self, snap: &Snapshot, pib: &mut Pib) {
        let Snapshot { ids, w, wt, node_over, link_over } = snap;
        let n = ids.len();
        let max_hops = self.config.max_hops;
        let mut top = TopK(vec![EMPTY; self.config.k]);
        // Per second relay r2, the two cheapest s→r1→r2 (the runner-up
        // covers r1 == d). The diagonal of `w` is ∞, which excludes
        // r1 == s and r1 == r2 without a test.
        let mut heads = vec![[(f64::INFINITY, usize::MAX); 2]; n];
        for s in 0..n {
            let from_s = &w[s * n..][..n];
            if max_hops >= 3 {
                for (r2, head) in heads.iter_mut().enumerate() {
                    let into_r2 = &wt[r2 * n..][..n];
                    let mut best = [(f64::INFINITY, usize::MAX); 2];
                    for r1 in 0..n {
                        let c = from_s[r1] + into_r2[r1];
                        if c < best[0].0 {
                            best = [(c, r1), best[0]];
                        } else if c < best[1].0 {
                            best[1] = (c, r1);
                        }
                    }
                    *head = best;
                }
                heads[s] = [(f64::INFINITY, usize::MAX); 2];
            }
            for d in 0..n {
                if s == d {
                    continue;
                }
                let into_d = &wt[d * n..][..n];
                top.0.fill(EMPTY);
                if max_hops >= 1 {
                    top.offer(from_s[d], [s, d, 0, 0], 2);
                }
                if max_hops >= 2 {
                    for r in 0..n {
                        top.offer(from_s[r] + into_d[r], [s, r, d, 0], 3);
                    }
                }
                if max_hops >= 3 {
                    for (r2, &[(c0, r1a), (c1, r1b)]) in heads.iter().enumerate() {
                        let (c, r1) = if r1a != d { (c0, r1a) } else { (c1, r1b) };
                        top.offer(c + into_d[r2], [s, r1, r2, d], 4);
                    }
                }
                for (rank, (weight, path, len)) in top.0.iter().enumerate() {
                    let path = &path[..*len as usize];
                    if weight.is_finite()
                        && !path.iter().any(|&i| node_over[i])
                        && !path.windows(2).any(|hop| link_over[hop[0] * n + hop[1]])
                    {
                        pib.write(s, d, rank, *weight, path);
                    }
                }
            }
        }
    }

    /// Build last-resort paths for a pair: producer → LR relay → consumer,
    /// best (lowest RTT sum) first (§4.3 "Last-Resort Paths").
    pub fn last_resort_paths(
        &self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
    ) -> Vec<OverlayPath> {
        let leg = |from, to| {
            let link = topology.link(from, to).filter(|_| topology.link_is_up(from, to))?;
            usable_weight(link, 0.0, self.config.weight)
        };
        let mut out: Vec<OverlayPath> = topology
            .last_resort_ids()
            .filter_map(|lr| {
                Some(OverlayPath {
                    nodes: vec![src, lr, dst],
                    weight: leg(src, lr)? + leg(lr, dst)?,
                    computed_at: now,
                    last_resort: true,
                })
            })
            .collect();
        out.sort_by(|a, b| a.weight.total_cmp(&b.weight));
        out
    }
}

/// The Eq. 2 weight of a measured link under load `u_ab`, or `None`: "no
/// usable link". Measurements arrive in reports; one that is not a number
/// makes the link unusable, it does not reach the arithmetic or a caller.
fn usable_weight(m: &LinkMetrics, u_ab: f64, params: WeightParams) -> Option<f64> {
    let weight = link_weight(m.rtt, m.loss, u_ab, params);
    (weight.is_finite() && weight >= 0.0).then_some(weight)
}

/// What one recompute reads, taken from the topology in one pass and
/// indexed by position in `ids`.
struct Snapshot {
    /// Routable nodes (not last-resort, up) in id order.
    ids: Vec<NodeId>,
    /// `w[u * n + v]`: Eq. 2 weight of the usable link u→v; ∞ where there
    /// is none (no such link, a down link, a weight that is not finite and
    /// non-negative) and on the diagonal.
    w: Vec<f64>,
    /// `w` transposed, so loops over a path's *earlier* node are stride 1.
    wt: Vec<f64>,
    /// Step 2's masks: utilization at or above the overload target.
    node_over: Vec<bool>,
    link_over: Vec<bool>,
}

impl Snapshot {
    fn take(topology: &Topology, config: &RoutingConfig) -> Snapshot {
        let (ids, load): (Vec<NodeId>, Vec<f64>) = topology
            .nodes()
            .filter(|n| !n.last_resort && topology.node_is_up(n.id))
            .map(|n| (n.id, n.utilization))
            .unzip();
        let n = ids.len();
        let index = |id: NodeId| position(&ids, id);
        let mut w = vec![f64::INFINITY; n * n];
        let mut link_over = vec![false; n * n];
        for (from, to, m) in topology.links() {
            let (Some(u), Some(v)) = (index(from), index(to)) else {
                continue; // an endpoint is down or reserved for last-resort paths
            };
            // `u_AB` is the max of link utilization and both endpoint
            // loads (paper Eq. 2 text).
            let u_ab = m.utilization.max(load[u]).max(load[v]);
            if let Some(weight) = usable_weight(m, u_ab, config.weight) {
                w[u * n + v] = weight;
            }
            link_over[u * n + v] = m.utilization >= OVERLOAD_TARGET;
        }
        // Failed links keep their metrics for when they come back up.
        for (from, to) in topology.down_link_ids() {
            if let (Some(u), Some(v)) = (index(from), index(to)) {
                w[u * n + v] = f64::INFINITY;
            }
        }
        let wt = (0..n * n).map(|i| w[i % n * n + i / n]).collect();
        let node_over = load.iter().map(|&u| u >= OVERLOAD_TARGET).collect();
        Snapshot { ids, w, wt, node_over, link_over }
    }

    fn into_graph(self) -> WeightedGraph {
        let usable = |row: &[f64]| -> Vec<(usize, f64)> {
            row.iter().copied().enumerate().filter(|(_, w)| w.is_finite()).collect()
        };
        let adj = self.w.chunks(self.ids.len().max(1)).map(usable).collect();
        WeightedGraph { ids: self.ids, adj }
    }
}

/// A candidate path: weight, node indices, node count.
type Candidate = (f64, [usize; 4], u8);

/// The K best candidates seen so far under the total order (weight, then
/// index path lexicographically), best first; always K long, the unused
/// slots holding `EMPTY`. No two candidates of a pair are the same path,
/// so the order has no ties.
struct TopK(Vec<Candidate>);

const EMPTY: Candidate = (f64::INFINITY, [0; 4], 0);

impl TopK {
    #[inline]
    fn offer(&mut self, weight: f64, path: [usize; 4], len: u8) {
        let before = |(w, p, l): &Candidate| {
            weight < *w || (weight == *w && path[..len as usize] < p[..*l as usize])
        };
        // The K-th weight rejects a heavier candidate on one compare.
        let Some(last) = self.0.last() else { return };
        if weight > last.0 || weight == f64::INFINITY || !before(last) {
            return;
        }
        let mut at = self.0.len() - 1;
        while at > 0 && before(&self.0[at - 1]) {
            self.0[at] = self.0[at - 1];
            at -= 1;
        }
        self.0[at] = (weight, path, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livenet_topology::{GeoConfig, GeoTopology, LinkMetrics, NodeInfo};
    use livenet_types::{Bandwidth, DetRng, SimDuration};
    use proptest::prelude::*;

    fn topo(seed: u64) -> Topology {
        GeoTopology::generate(&GeoConfig::tiny(seed)).topology
    }

    // The oracle: the graph builder and all-pairs enumeration this module
    // shipped before the dense snapshot, bodies unchanged (`self` → `gr`).
    // It probes the topology's maps per link and per path and sorts every
    // candidate list; `compute_all` must return the same map, bit for bit.

    fn reference_graph(gr: &GlobalRouting, topology: &Topology) -> WeightedGraph {
        let ids: Vec<NodeId> = topology.routable_node_ids().collect();
        let mut edges = Vec::new();
        for (from, to, m) in topology.links() {
            let (Some(nf), Some(nt)) = (topology.node(from), topology.node(to)) else {
                continue;
            };
            if nf.last_resort || nt.last_resort {
                continue;
            }
            // Failed links and links touching failed nodes are invisible to
            // routing; their metrics survive for when they come back up.
            if !topology.link_is_up(from, to) {
                continue;
            }
            let u = m.utilization.max(nf.utilization).max(nt.utilization);
            let w = link_weight(m.rtt, m.loss, u, gr.config.weight);
            edges.push((from, to, w));
        }
        WeightedGraph::new(ids, edges)
    }

    fn reference_mesh(
        gr: &GlobalRouting,
        topology: &Topology,
        now: SimTime,
    ) -> HashMap<(NodeId, NodeId), Vec<OverlayPath>> {
        let graph = reference_graph(gr, topology);
        let n = graph.ids.len();
        // Dense weight matrix (infinity = no link).
        let mut w = vec![f64::INFINITY; n * n];
        for (u, adj) in graph.adj.iter().enumerate() {
            for &(v, weight) in adj {
                w[u * n + v] = weight;
            }
        }
        let k = gr.config.k;
        let max_hops = gr.config.max_hops;
        // For 3-hop paths s→r1→r2→d we need, per (s, r2), the two best r1
        // choices (second-best covers the r1 == d exclusion).
        let mut best2: Vec<[(f64, usize); 2]> =
            vec![[(f64::INFINITY, usize::MAX); 2]; n * n];
        if max_hops >= 3 {
            for s in 0..n {
                for r2 in 0..n {
                    if r2 == s {
                        continue;
                    }
                    let mut top = [(f64::INFINITY, usize::MAX); 2];
                    for r1 in 0..n {
                        if r1 == s || r1 == r2 {
                            continue;
                        }
                        let c = w[s * n + r1] + w[r1 * n + r2];
                        if c < top[0].0 {
                            top[1] = top[0];
                            top[0] = (c, r1);
                        } else if c < top[1].0 {
                            top[1] = (c, r1);
                        }
                    }
                    best2[s * n + r2] = top;
                }
            }
        }

        let mut out = HashMap::new();
        // Candidates are fixed-size (weight, node-index buffer, length) so
        // the inner loops allocate nothing: ~2n³ Vec allocations per
        // recompute used to dominate the Brain's 10-minute job.
        type Cand = (f64, [usize; 4], u8);
        let cmp = |a: &Cand, b: &Cand| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1[..a.2 as usize].cmp(&b.1[..b.2 as usize]))
        };
        let mut candidates: Vec<Cand> = Vec::with_capacity(2 * n);
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                candidates.clear();
                let direct = w[s * n + d];
                if direct.is_finite() {
                    candidates.push((direct, [s, d, 0, 0], 2));
                }
                if max_hops >= 2 {
                    for r in 0..n {
                        if r == s || r == d {
                            continue;
                        }
                        let c = w[s * n + r] + w[r * n + d];
                        if c.is_finite() {
                            candidates.push((c, [s, r, d, 0], 3));
                        }
                    }
                }
                if max_hops >= 3 {
                    for r2 in 0..n {
                        if r2 == s || r2 == d {
                            continue;
                        }
                        let tail = w[r2 * n + d];
                        if !tail.is_finite() {
                            continue;
                        }
                        // Pick the best r1 that is not d.
                        let [(c0, r1a), (c1, r1b)] = best2[s * n + r2];
                        let (c, r1) = if r1a != d { (c0, r1a) } else { (c1, r1b) };
                        if r1 == usize::MAX || !c.is_finite() {
                            continue;
                        }
                        candidates.push((c + tail, [s, r1, r2, d], 4));
                    }
                }
                // Top-k selection under the same total order as the old
                // sort-everything-then-take(k): partition, then sort only
                // the k survivors.
                if candidates.len() > k {
                    candidates.select_nth_unstable_by(k, cmp);
                    candidates.truncate(k);
                }
                candidates.sort_by(cmp);
                let paths: Vec<OverlayPath> = candidates
                    .iter()
                    .map(|&(weight, idx_path, len)| OverlayPath {
                        nodes: idx_path[..len as usize]
                            .iter()
                            .map(|&i| graph.ids[i])
                            .collect(),
                        weight,
                        computed_at: now,
                        last_resort: false,
                    })
                    .filter(|p| gr.satisfies_constraints(topology, &p.nodes))
                    .collect();
                out.insert((graph.ids[s], graph.ids[d]), paths);
            }
        }
        out
    }

    /// A random overlay of `n` nodes: most links present, measurements
    /// anywhere in [0, 1], some nodes and directed links down, some nodes
    /// reserved as last-resort relays. `coarse` draws RTT and load from a
    /// few values with no loss, so equal weights — the tie-break — are common.
    fn random_topology(n: u64, seed: u64, coarse: bool) -> Topology {
        let mut rng = DetRng::seed(seed);
        let mut t = Topology::new();
        let load = |rng: &mut DetRng| match coarse {
            true => [0.0, 0.0, 0.5, 0.9][rng.range_u64(0, 4) as usize],
            false => rng.range_f64(0.0, 1.0),
        };
        for id in 0..n {
            t.upsert_node(NodeInfo {
                // Sparse ids: index order must come from the ids, not equal them.
                id: NodeId::new(3 * id + 7),
                country: 0,
                capacity: Bandwidth::from_gbps(10),
                utilization: load(&mut rng),
                last_resort: rng.chance(0.1),
                well_peered: false,
            });
        }
        let ids: Vec<NodeId> = t.node_ids().collect();
        for &a in &ids {
            for &b in &ids {
                if a == b || !rng.chance(0.85) {
                    continue;
                }
                let rtt = match coarse {
                    true => SimDuration::from_millis(10 * rng.range_u64(1, 4)),
                    false => SimDuration::from_secs_f64(rng.range_f64(0.0, 1.0)),
                };
                let mut m = LinkMetrics::healthy(rtt, Bandwidth::from_gbps(10));
                m.utilization = load(&mut rng);
                if !coarse {
                    m.loss = rng.range_f64(0.0, 1.0);
                }
                t.upsert_link(a, b, m).expect("both ends exist");
                if rng.chance(0.08) {
                    t.set_link_up(a, b, false);
                }
            }
        }
        for &id in &ids {
            if rng.chance(0.12) {
                t.set_node_up(id, false);
            }
        }
        t
    }

    /// `compute_all` equals the oracle bit for bit, every emitted path
    /// passes the public predicate, every list is strictly ordered.
    fn assert_matches_reference(t: &Topology, k: usize, max_hops: usize) {
        let gr = GlobalRouting::new(RoutingConfig { k, max_hops, ..RoutingConfig::default() });
        let now = SimTime::from_secs(1200);
        let dense = gr.compute_all(t, now);
        let reference = reference_mesh(&gr, t, now);
        assert_eq!(dense, reference);
        for (pair, paths) in &dense {
            for (p, r) in paths.iter().zip(&reference[pair]) {
                assert_eq!(p.weight.to_bits(), r.weight.to_bits());
                assert!(gr.satisfies_constraints(t, &p.nodes), "{pair:?}: {p:?}");
            }
            for w in paths.windows(2) {
                assert!(
                    (w[0].weight, &w[0].nodes) < (w[1].weight, &w[1].nodes),
                    "{pair:?}: {paths:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dense_recompute_equals_reference(
            n in 4u64..=14,
            seed in any::<u64>(),
            coarse in any::<bool>(),
            k in 1usize..=4,
            max_hops in 0usize..=3,
        ) {
            assert_matches_reference(&random_topology(n, seed, coarse), k, max_hops);
        }
    }

    #[test]
    fn degenerate_shapes_match_reference() {
        // No routable node at all, then exactly one.
        let mut t = topo(1);
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        for &id in &ids[1..] {
            t.set_node_up(id, false);
        }
        assert_matches_reference(&t, 3, 3);
        assert!(GlobalRouting::new(RoutingConfig::default()).compute_all(&t, SimTime::ZERO).is_empty());
        t.set_node_up(ids[0], false);
        assert_matches_reference(&t, 3, 3);
        assert_matches_reference(&Topology::new(), 3, 3);
        // A node whose every link is down, both directions: still a pair
        // end point, with no path.
        let mut t = topo(2);
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        for &other in &ids[1..] {
            t.set_duplex_up(ids[0], other, false);
        }
        assert_matches_reference(&t, 3, 3);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let pib = gr.compute_all(&t, SimTime::ZERO);
        assert!(pib[&(ids[0], ids[1])].is_empty() && pib[&(ids[1], ids[0])].is_empty());
        assert!(!pib[&(ids[1], ids[2])].is_empty());
        // More slots than candidates: every candidate is listed, in order.
        let t = random_topology(4, 11, false);
        for max_hops in 0..=3 {
            assert_matches_reference(&t, 500, max_hops);
            assert_matches_reference(&t, 0, max_hops);
        }
    }

    #[test]
    fn compute_all_covers_all_routable_pairs() {
        let t = topo(1);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let pib = gr.compute_all(&t, SimTime::ZERO);
        let n = t.routable_node_ids().count();
        assert_eq!(pib.len(), n * (n - 1));
        // Every pair in a healthy full mesh has at least one path.
        assert!(pib.values().all(|v| !v.is_empty()));
    }

    #[test]
    fn paths_respect_hop_limit() {
        let t = topo(2);
        let gr = GlobalRouting::new(RoutingConfig::default());
        for paths in gr.compute_all(&t, SimTime::ZERO).values() {
            for p in paths {
                assert!(p.hops() <= 3);
                assert!(p.hops() >= 1);
            }
        }
    }

    #[test]
    fn paths_sorted_by_weight_and_start_end_correct() {
        let t = topo(3);
        let gr = GlobalRouting::new(RoutingConfig::default());
        for ((src, dst), paths) in gr.compute_all(&t, SimTime::ZERO) {
            for w in paths.windows(2) {
                assert!(w[0].weight <= w[1].weight);
            }
            for p in &paths {
                assert_eq!(p.producer(), src);
                assert_eq!(p.consumer(), dst);
            }
        }
    }

    #[test]
    fn overloaded_node_is_avoided() {
        let mut t = topo(4);
        let gr = GlobalRouting::new(RoutingConfig::default());
        // Overload one node; recompute; no path may traverse it (except as
        // endpoint... the paper invalidates those too, so endpoints count).
        let victim = t.routable_node_ids().nth(2).unwrap();
        t.node_mut(victim).unwrap().utilization = 0.95;
        let pib = gr.compute_all(&t, SimTime::ZERO);
        for ((src, dst), paths) in &pib {
            if *src == victim || *dst == victim {
                // Paths from/to an overloaded node are filtered entirely.
                assert!(paths.is_empty(), "pair ({src},{dst}) kept {paths:?}");
            } else {
                for p in paths {
                    assert!(!p.contains_node(victim));
                }
            }
        }
    }

    #[test]
    fn overloaded_link_is_avoided() {
        let mut t = topo(5);
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        let (a, b) = (ids[0], ids[1]);
        t.link_mut(a, b).unwrap().utilization = 0.9;
        let gr = GlobalRouting::new(RoutingConfig::default());
        let pib = gr.compute_all(&t, SimTime::ZERO);
        for paths in pib.values() {
            for p in paths {
                assert!(!p.contains_link(a, b));
            }
        }
        // The reverse direction is unaffected: paths still exist, and none
        // of them needs to dodge the (directed) overloaded link a→b.
        assert!(!pib[&(b, a)].is_empty());
        for p in &pib[&(b, a)] {
            assert!(!p.contains_link(a, b));
        }
    }

    #[test]
    fn loaded_links_get_heavier_and_lose_preference() {
        let mut t = topo(6);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        let (a, b) = (ids[0], ids[1]);
        let before = gr.compute_all(&t, SimTime::ZERO);
        let best_before = before[&(a, b)][0].clone();
        // Load every link on the previously-best path to just under target.
        for w in best_before.nodes.windows(2) {
            t.link_mut(w[0], w[1]).unwrap().utilization = 0.79;
        }
        let after = gr.compute_all(&t, SimTime::ZERO);
        let best_after = &after[&(a, b)][0];
        // Weight of the same path must have grown; best path may change.
        assert!(best_after.weight <= best_before.weight * 1.6);
        let same_path_after = after[&(a, b)]
            .iter()
            .find(|p| p.nodes == best_before.nodes);
        if let Some(p) = same_path_after {
            assert!(p.weight > best_before.weight);
        }
    }

    /// What the enumeration guarantees against Yen's exact K shortest: the
    /// same best path and weight, always; and the same list but for 3-hop
    /// paths it never proposes (per second relay r2 only the cheapest r1 is
    /// a candidate). Yen's list without those is a prefix of the mesh's.
    #[test]
    fn mesh_matches_yen_except_for_unproposed_three_hop_paths() {
        let mut differing = 0;
        for seed in 1..6 {
            let t = topo(seed);
            let gr = GlobalRouting::new(RoutingConfig::default());
            let graph = gr.build_graph(&t);
            let mesh = gr.compute_all(&t, SimTime::ZERO);
            let ids: Vec<NodeId> = t.routable_node_ids().collect();
            for &src in &ids {
                for &dst in &ids {
                    if src == dst {
                        continue;
                    }
                    let yen = gr.compute_pair(&t, &graph, src, dst, SimTime::ZERO);
                    let fast = &mesh[&(src, dst)];
                    assert_eq!(
                        yen.first().map(|p| &p.nodes),
                        fast.first().map(|p| &p.nodes),
                        "seed {seed} pair ({src},{dst}): best path differs"
                    );
                    if let (Some(a), Some(b)) = (yen.first(), fast.first()) {
                        assert!((a.weight - b.weight).abs() < 1e-9);
                    }
                    let proposed = |p: &&OverlayPath| fast.iter().any(|f| f.nodes == p.nodes);
                    let (shared, yen_only): (Vec<_>, Vec<_>) = yen.iter().partition(proposed);
                    assert!(yen_only.iter().all(|p| p.hops() == 3), "{yen_only:?}");
                    assert!(
                        shared.iter().map(|p| &p.nodes).eq(fast[..shared.len()].iter().map(|p| &p.nodes)),
                        "seed {seed} pair ({src},{dst}): {yen:?} vs {fast:?}"
                    );
                    differing += usize::from(!yen_only.is_empty());
                    // All fast paths are valid, sorted and within bounds.
                    for w in fast.windows(2) {
                        assert!(w[0].weight <= w[1].weight);
                    }
                    for p in fast {
                        assert!(p.hops() <= 3);
                        assert_eq!(p.producer(), src);
                        assert_eq!(p.consumer(), dst);
                    }
                }
            }
        }
        // Pinned as is: closing the gap would move every fleet pin.
        assert_eq!(differing, 6, "of 360 pairs");
    }

    #[test]
    fn last_resort_paths_are_two_hops_via_reserved_nodes() {
        let t = topo(7);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let ids: Vec<NodeId> = t.routable_node_ids().collect();
        let lrs: Vec<NodeId> = t.last_resort_ids().collect();
        let paths = gr.last_resort_paths(&t, ids[0], ids[3], SimTime::ZERO);
        assert_eq!(paths.len(), lrs.len());
        for p in &paths {
            assert_eq!(p.hops(), 2);
            assert!(p.last_resort);
            assert!(lrs.contains(&p.nodes[1]));
        }
    }

    #[test]
    fn normal_routing_never_uses_last_resort_nodes() {
        let t = topo(8);
        let gr = GlobalRouting::new(RoutingConfig::default());
        let lrs: Vec<NodeId> = t.last_resort_ids().collect();
        for paths in gr.compute_all(&t, SimTime::ZERO).values() {
            for p in paths {
                for lr in &lrs {
                    assert!(!p.contains_node(*lr));
                }
            }
        }
    }
}
