//! Weighted **CLUSTER(τ)** — decomposition of weighted graphs
//! (arXiv:1506.03265, the authors' follow-up to §7 of the SPAA paper).
//!
//! Clusters grow at unit speed in *weighted* distance: a cluster activated
//! at time `T` owns the nodes `v` minimizing `T + wdist(center, v)`. A new
//! batch of centers is drawn — with CLUSTER's own probabilities — whenever
//! the number of uncovered nodes has halved since the previous batch, and
//! both the **weighted radius** (cost of the claim path) and the **hop
//! radius** (its edge count, the parallel-depth proxy) are tracked per
//! round.
//!
//! Two implementations share exact claim semantics and are byte-identical
//! on every input, at any pool size and bucket width:
//!
//! * [`weighted_cluster`] — the parallel pipeline on the bucketed
//!   [`WeightedFrontierEngine`](pardec_graph::wfrontier): delta-stepping
//!   buckets resolve claims in arrival-time windows, and batch activation
//!   points are found by walking each bucket's claims in the sequential
//!   settle order `(t, owner, wdist, hops, node)`, rolling back whatever a
//!   new batch may steal;
//! * [`naive::weighted_cluster`] — the sequential event-driven Dijkstra
//!   (one binary heap keyed by the same settle order), retained as the
//!   byte-for-byte oracle.

use pardec_graph::wfrontier::{self, unpack_claim, WeightedFrontierEngine};
use pardec_graph::{quotient, CombineStats, NodeId, WeightedGraph, INVALID_NODE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{log2n, ClusterParams};

/// A clustering of a weighted graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedClustering {
    /// `assignment[v]` = cluster id.
    pub assignment: Vec<NodeId>,
    /// `centers[c]` = center node of cluster `c`.
    pub centers: Vec<NodeId>,
    /// Weighted distance from each node to its center along the claim tree.
    pub weighted_dist: Vec<u64>,
    /// Hop count of each node's claim path.
    pub hops: Vec<u32>,
    /// Per-cluster maximum weighted distance.
    pub weighted_radii: Vec<u64>,
    /// Per-cluster maximum hop count — the parallel-depth proxy.
    pub hop_radii: Vec<u32>,
}

impl WeightedClustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Maximum weighted radius over clusters.
    pub fn max_weighted_radius(&self) -> u64 {
        self.weighted_radii.iter().copied().max().unwrap_or(0)
    }

    /// Maximum hop radius over clusters.
    pub fn max_hop_radius(&self) -> u32 {
        self.hop_radii.iter().copied().max().unwrap_or(0)
    }

    /// Weighted quotient graph of this clustering over `g`: one node per
    /// cluster, edge weight = shortest connecting path between adjacent
    /// centers through one cut edge. Runs on the u128 min-combine kernel.
    pub fn quotient(&self, g: &WeightedGraph) -> WeightedGraph {
        self.quotient_with_stats(g).0
    }

    /// [`quotient`](Self::quotient), also returning the kernel's ledger.
    pub fn quotient_with_stats(&self, g: &WeightedGraph) -> (WeightedGraph, CombineStats) {
        quotient::weighted_graph_quotient_with_stats(
            g,
            &self.assignment,
            &self.weighted_dist,
            self.num_clusters(),
        )
    }

    /// Structural validation: complete assignment, centers at distance 0,
    /// every non-center has an in-cluster neighbour whose (weighted, hop)
    /// labels are consistent with a claim-tree edge.
    pub fn validate(&self, g: &WeightedGraph) -> Result<(), String> {
        let n = g.num_nodes();
        if self.assignment.len() != n {
            return Err("assignment size mismatch".into());
        }
        for (c, &ctr) in self.centers.iter().enumerate() {
            if self.assignment[ctr as usize] as usize != c {
                return Err(format!("center {ctr} not in cluster {c}"));
            }
            if self.weighted_dist[ctr as usize] != 0 || self.hops[ctr as usize] != 0 {
                return Err(format!("center {ctr} has nonzero labels"));
            }
        }
        for v in 0..n as NodeId {
            let vi = v as usize;
            let c = self.assignment[vi];
            if c == INVALID_NODE || c as usize >= self.centers.len() {
                return Err(format!("node {v} unassigned"));
            }
            if self.hops[vi] == 0 {
                if self.centers[c as usize] != v {
                    return Err(format!("node {v} at hop 0 is not a center"));
                }
                continue;
            }
            let ok = g.neighbors(v).any(|(u, w)| {
                self.assignment[u as usize] == c
                    && self.hops[u as usize] == self.hops[vi] - 1
                    && self.weighted_dist[u as usize] + w == self.weighted_dist[vi]
            });
            if !ok {
                return Err(format!("node {v} lacks a claim-tree predecessor"));
            }
        }
        let mut wr = vec![0u64; self.centers.len()];
        let mut hr = vec![0u32; self.centers.len()];
        for v in 0..n {
            let c = self.assignment[v] as usize;
            wr[c] = wr[c].max(self.weighted_dist[v]);
            hr[c] = hr[c].max(self.hops[v]);
        }
        if wr != self.weighted_radii || hr != self.hop_radii {
            return Err("recorded radii do not match assignment".into());
        }
        Ok(())
    }
}

/// Per-batch record of a weighted CLUSTER run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedRoundTrace {
    /// Uncovered nodes when the batch was drawn.
    pub uncovered_before: usize,
    /// Centers activated by this batch.
    pub new_centers: usize,
    /// Activation time of the batch (weighted Dijkstra clock).
    pub activated_at: u64,
    /// Max weighted distance over nodes claimed before the batch.
    pub weighted_radius: u64,
    /// Max hop count over nodes claimed before the batch.
    pub hop_radius: u32,
}

/// Execution trace of a weighted CLUSTER run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WeightedClusterTrace {
    /// One record per center batch (activation round).
    pub rounds: Vec<WeightedRoundTrace>,
    /// Singleton clusters created by the final sweep.
    pub tail_singletons: usize,
    /// Bucket width the engine ran with (outputs never depend on it).
    pub delta: u64,
    /// Non-empty arrival-time buckets the engine resolved.
    pub buckets: u64,
}

/// Result of [`weighted_cluster_result`]: the decomposition plus its trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedClusterResult {
    pub clustering: WeightedClustering,
    pub trace: WeightedClusterTrace,
}

/// Weighted CLUSTER(τ) on the bucketed frontier engine. See the module docs
/// for the growth rule; batch activation follows Algorithm 1 (while at
/// least `8·τ·log n` nodes are uncovered, each uncovered node joins the
/// next batch independently with probability `4·τ·log n / uncovered`; the
/// batch activates when the previous batch's uncovered count has halved;
/// remaining nodes become singletons).
pub fn weighted_cluster(g: &WeightedGraph, params: &ClusterParams) -> WeightedClustering {
    weighted_cluster_result(g, params).clustering
}

/// [`weighted_cluster`], also returning the per-round trace.
pub fn weighted_cluster_result(g: &WeightedGraph, params: &ClusterParams) -> WeightedClusterResult {
    let n = g.num_nodes();
    let delta = wfrontier::resolve_delta(g, params.delta);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let logn = log2n(n);
    let threshold = (params.stop_factor * params.tau as f64 * logn).max(1.0);
    let max_batches = (2.0 * logn) as usize + 32;

    let mut eng = WeightedFrontierEngine::new(g, delta);
    let mut trace = WeightedClusterTrace {
        delta,
        ..WeightedClusterTrace::default()
    };
    let mut covered = 0usize;
    let mut batches = 0usize;
    let mut batch_uncovered = n;

    // Draws one batch over the currently uncovered nodes (identical RNG
    // consumption to the sequential oracle), records its round trace, and
    // returns how many centers it activated.
    let activate = |eng: &mut WeightedFrontierEngine<'_>,
                    rng: &mut StdRng,
                    covered: &mut usize,
                    trace: &mut WeightedClusterTrace,
                    now: u64| {
        let uncovered = n - *covered;
        if uncovered == 0 {
            return;
        }
        let mut span = pardec_obs::span!(
            "wcluster.round",
            round = trace.rounds.len(),
            uncovered = uncovered,
        );
        let p = (params.batch_factor * params.tau as f64 * logn / uncovered as f64).clamp(0.0, 1.0);
        let mut new_centers = 0usize;
        let mut first_uncovered = None;
        for v in 0..n as NodeId {
            if eng.is_claimed(v) {
                continue;
            }
            if first_uncovered.is_none() {
                first_uncovered = Some(v);
            }
            if rng.gen::<f64>() < p {
                eng.add_source(v, now).expect("unclaimed node activates");
                *covered += 1;
                new_centers += 1;
            }
        }
        if new_centers == 0 {
            if let Some(v) = first_uncovered {
                // Progress guard, as in the unweighted algorithm.
                eng.add_source(v, now).expect("unclaimed node activates");
                *covered += 1;
                new_centers = 1;
            }
        }
        let (wr, hr) = claimed_radii(eng, n);
        span.field("new_centers", new_centers);
        trace.rounds.push(WeightedRoundTrace {
            uncovered_before: uncovered,
            new_centers,
            activated_at: now,
            weighted_radius: wr,
            hop_radius: hr,
        });
    };

    if (n as f64) >= threshold {
        activate(&mut eng, &mut rng, &mut covered, &mut trace, 0);
        batches = 1;
        batch_uncovered = n;
    }

    // Resolve arrival-time buckets; inside each, walk the claims in settle
    // order and fire batch activations at exactly the settles where the
    // uncovered set has halved — the positions the sequential oracle fires
    // at. A rollback discards the claims the new batch may steal before the
    // bucket's fixed point is recomputed.
    while eng.open_next_bucket().is_some() {
        let mut walk = eng.open_bucket_claims();
        let mut i = 0usize;
        while i < walk.len() {
            let (key, v) = walk[i];
            let (_, _, hops) = unpack_claim(key);
            if hops != 0 {
                covered += 1; // centers were counted at activation
            }
            let uncovered = n - covered;
            if (uncovered as f64) >= threshold
                && 2 * uncovered <= batch_uncovered
                && batches < max_batches
            {
                eng.rollback_open_bucket_after(key, v);
                let now = (key >> 64) as u64;
                activate(&mut eng, &mut rng, &mut covered, &mut trace, now);
                batches += 1;
                batch_uncovered = uncovered;
                eng.refine_open_bucket();
                walk = eng.open_bucket_claims();
                i = walk.partition_point(|&entry| entry <= (key, v));
                continue;
            }
            i += 1;
        }
        eng.seal_open_bucket();
    }

    trace.buckets = eng.stats().buckets;
    let parts = eng.into_parts();

    // Tail singletons (disconnected remainders or below-threshold
    // leftovers), then the per-cluster radii.
    let mut assignment = parts.owner;
    let mut weighted_dist = parts.weighted_dist;
    let mut hops = parts.hops;
    let mut centers = parts.sources;
    for v in 0..n as NodeId {
        let vi = v as usize;
        if assignment[vi] == INVALID_NODE {
            assignment[vi] = centers.len() as NodeId;
            weighted_dist[vi] = 0;
            hops[vi] = 0;
            centers.push(v);
            trace.tail_singletons += 1;
        }
    }
    let mut weighted_radii = vec![0u64; centers.len()];
    let mut hop_radii = vec![0u32; centers.len()];
    for v in 0..n {
        let c = assignment[v] as usize;
        weighted_radii[c] = weighted_radii[c].max(weighted_dist[v]);
        hop_radii[c] = hop_radii[c].max(hops[v]);
    }
    WeightedClusterResult {
        clustering: WeightedClustering {
            assignment,
            centers,
            weighted_dist,
            hops,
            weighted_radii,
            hop_radii,
        },
        trace,
    }
}

/// Max weighted distance and hop count over currently claimed nodes — the
/// per-round radius snapshot.
fn claimed_radii(eng: &WeightedFrontierEngine<'_>, n: usize) -> (u64, u32) {
    let mut wr = 0u64;
    let mut hr = 0u32;
    for v in 0..n as NodeId {
        if let Some((_, wd, h)) = eng.claim_parts(v) {
            wr = wr.max(wd);
            hr = hr.max(h);
        }
    }
    (wr, hr)
}

/// Sequential event-driven reference implementation, byte-identical to the
/// engine-backed [`weighted_cluster`](fn@super::weighted_cluster) on every
/// input.
pub mod naive {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Event settle order: `(arrival_time, owner, weighted_dist, hops,
    /// node)` — arrival first, then smallest owner id, fewest hops, and
    /// smallest node id. The engine's packed-claim minimum realizes exactly
    /// this order (weighted_dist is implied by `(arrival, owner)`).
    type Event = (u64, NodeId, u64, u32, NodeId);

    /// Weighted CLUSTER(τ) as one sequential multi-source Dijkstra over a
    /// binary heap — the oracle the bucketed engine is tested against.
    pub fn weighted_cluster(g: &WeightedGraph, params: &ClusterParams) -> WeightedClustering {
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let logn = log2n(n);
        let threshold = (params.stop_factor * params.tau as f64 * logn).max(1.0);
        let max_batches = (2.0 * logn) as usize + 32;

        let mut assignment = vec![INVALID_NODE; n];
        let mut weighted_dist = vec![0u64; n];
        let mut hops = vec![0u32; n];
        // A claim relaxes its neighbours (and runs the batch check) exactly
        // once, at its canonical pop; duplicates and stale events skip.
        let mut done = vec![false; n];
        let mut centers: Vec<NodeId> = Vec::new();
        let mut covered = 0usize;
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut batches = 0usize;
        let mut batch_uncovered = n;

        let activate = |rng: &mut StdRng,
                        assignment: &mut [NodeId],
                        centers: &mut Vec<NodeId>,
                        heap: &mut BinaryHeap<Reverse<Event>>,
                        covered: &mut usize,
                        now: u64| {
            let uncovered = n - *covered;
            if uncovered == 0 {
                return;
            }
            let p =
                (params.batch_factor * params.tau as f64 * logn / uncovered as f64).clamp(0.0, 1.0);
            let mut picked_any = false;
            let mut first_uncovered = None;
            for v in 0..n as NodeId {
                if assignment[v as usize] != INVALID_NODE {
                    continue;
                }
                if first_uncovered.is_none() {
                    first_uncovered = Some(v);
                }
                if rng.gen::<f64>() < p {
                    let id = centers.len() as NodeId;
                    assignment[v as usize] = id;
                    centers.push(v);
                    *covered += 1;
                    heap.push(Reverse((now, id, 0, 0, v)));
                    picked_any = true;
                }
            }
            if !picked_any {
                if let Some(v) = first_uncovered {
                    // Progress guard, as in the unweighted algorithm.
                    let id = centers.len() as NodeId;
                    assignment[v as usize] = id;
                    centers.push(v);
                    *covered += 1;
                    heap.push(Reverse((now, id, 0, 0, v)));
                }
            }
        };

        if (n as f64) >= threshold {
            activate(
                &mut rng,
                &mut assignment,
                &mut centers,
                &mut heap,
                &mut covered,
                0,
            );
            batches = 1;
            batch_uncovered = n;
        }

        while let Some(Reverse((t, owner, wd, h, v))) = heap.pop() {
            let vi = v as usize;
            if assignment[vi] != INVALID_NODE {
                let canonical = !done[vi]
                    && assignment[vi] == owner
                    && weighted_dist[vi] == wd
                    && hops[vi] == h;
                if !canonical {
                    continue; // stale event for an already-claimed node
                }
            } else {
                assignment[vi] = owner;
                weighted_dist[vi] = wd;
                hops[vi] = h;
                covered += 1;
            }
            done[vi] = true;
            for (u, w) in g.neighbors(v) {
                if assignment[u as usize] == INVALID_NODE {
                    heap.push(Reverse((t + w, owner, wd + w, h + 1, u)));
                }
            }
            // Batch policy: activate once the uncovered set has halved,
            // while above the loop threshold.
            let uncovered = n - covered;
            if (uncovered as f64) >= threshold
                && 2 * uncovered <= batch_uncovered
                && batches < max_batches
            {
                activate(
                    &mut rng,
                    &mut assignment,
                    &mut centers,
                    &mut heap,
                    &mut covered,
                    t,
                );
                batches += 1;
                batch_uncovered = uncovered;
            }
        }

        // Tail singletons.
        for v in 0..n as NodeId {
            if assignment[v as usize] == INVALID_NODE {
                let id = centers.len() as NodeId;
                assignment[v as usize] = id;
                centers.push(v);
            }
        }

        let mut weighted_radii = vec![0u64; centers.len()];
        let mut hop_radii = vec![0u32; centers.len()];
        for v in 0..n {
            let c = assignment[v] as usize;
            weighted_radii[c] = weighted_radii[c].max(weighted_dist[v]);
            hop_radii[c] = hop_radii[c].max(hops[v]);
        }
        WeightedClustering {
            assignment,
            centers,
            weighted_dist,
            hops,
            weighted_radii,
            hop_radii,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weighted grid: rows × cols, horizontal weight 1, vertical weight 3.
    fn weighted_grid(rows: usize, cols: usize) -> WeightedGraph {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let u = (r * cols + c) as NodeId;
                if c + 1 < cols {
                    edges.push((u, u + 1, 1u64));
                }
                if r + 1 < rows {
                    edges.push((u, u + cols as NodeId, 3u64));
                }
            }
        }
        WeightedGraph::from_edges(rows * cols, &edges)
    }

    #[test]
    fn partitions_weighted_grid() {
        let g = weighted_grid(20, 20);
        let r = weighted_cluster(&g, &ClusterParams::new(2, 3));
        r.validate(&g).unwrap();
        assert!(r.num_clusters() >= 2);
        assert!(r.max_weighted_radius() > 0);
    }

    #[test]
    fn hop_radius_bounded_by_weighted_radius() {
        // All weights ≥ 1, so hops ≤ weighted distance pointwise.
        let g = weighted_grid(15, 15);
        let r = weighted_cluster(&g, &ClusterParams::new(2, 7));
        for v in 0..g.num_nodes() {
            assert!(r.hops[v] as u64 <= r.weighted_dist[v] + 1);
        }
        assert!(r.max_hop_radius() as u64 <= r.max_weighted_radius() + 1);
    }

    #[test]
    fn tau_controls_granularity() {
        let g = weighted_grid(25, 25);
        let coarse = weighted_cluster(&g, &ClusterParams::new(1, 5));
        let fine = weighted_cluster(&g, &ClusterParams::new(16, 5));
        assert!(fine.num_clusters() > coarse.num_clusters());
        assert!(fine.max_weighted_radius() <= coarse.max_weighted_radius());
    }

    #[test]
    fn unit_weights_match_hop_metric() {
        // With all weights 1, weighted distance = hops for every node.
        let mut edges = Vec::new();
        for v in 1..40u32 {
            edges.push((v - 1, v, 1u64));
        }
        let g = WeightedGraph::from_edges(40, &edges);
        let r = weighted_cluster(&g, &ClusterParams::new(1, 2));
        r.validate(&g).unwrap();
        for v in 0..40 {
            assert_eq!(r.weighted_dist[v], r.hops[v] as u64);
        }
    }

    #[test]
    fn deterministic() {
        let g = weighted_grid(12, 12);
        assert_eq!(
            weighted_cluster(&g, &ClusterParams::new(2, 9)),
            weighted_cluster(&g, &ClusterParams::new(2, 9))
        );
    }

    #[test]
    fn matches_naive_oracle_across_deltas() {
        let g = weighted_grid(18, 14);
        for seed in [1u64, 7, 42] {
            for tau in [1usize, 4] {
                let oracle = naive::weighted_cluster(&g, &ClusterParams::new(tau, seed));
                for delta in [1u64, 2, 5, 1000] {
                    let params = ClusterParams::new(tau, seed).with_delta(delta);
                    let engine = weighted_cluster(&g, &params);
                    assert_eq!(
                        engine, oracle,
                        "engine diverged from oracle at tau={tau} seed={seed} delta={delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_records_rounds_and_buckets() {
        let g = weighted_grid(20, 20);
        let r = weighted_cluster_result(&g, &ClusterParams::new(2, 3).with_delta(2));
        r.clustering.validate(&g).unwrap();
        assert_eq!(r.trace.delta, 2);
        assert!(r.trace.buckets > 0);
        assert!(!r.trace.rounds.is_empty());
        assert_eq!(r.trace.rounds[0].uncovered_before, g.num_nodes());
        let activated: usize = r.trace.rounds.iter().map(|t| t.new_centers).sum();
        assert_eq!(
            activated + r.trace.tail_singletons,
            r.clustering.num_clusters()
        );
        // Radii snapshots grow monotonically with the Dijkstra clock.
        for w in r.trace.rounds.windows(2) {
            assert!(w[0].activated_at <= w[1].activated_at);
        }
    }

    #[test]
    fn disconnected_weighted_graph() {
        let g = WeightedGraph::from_edges(6, &[(0, 1, 2), (1, 2, 2), (3, 4, 5)]);
        let r = weighted_cluster(&g, &ClusterParams::new(1, 1));
        r.validate(&g).unwrap();
        // Node 5 is isolated -> singleton.
        assert_eq!(r.hops[5], 0);
        assert_eq!(r, naive::weighted_cluster(&g, &ClusterParams::new(1, 1)));
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::from_edges(0, &[]);
        let r = weighted_cluster(&g, &ClusterParams::new(1, 0));
        assert_eq!(r.num_clusters(), 0);
        assert_eq!(r, naive::weighted_cluster(&g, &ClusterParams::new(1, 0)));
    }

    #[test]
    fn heavy_edges_steer_growth() {
        // Two communities joined by a heavy bridge: with 2 centers seeded
        // by batches, the heavy edge should rarely be crossed early —
        // weighted radii stay below the bridge weight for fine clusterings.
        let mut edges = Vec::new();
        for v in 1..20u32 {
            edges.push((v - 1, v, 1u64));
        }
        for v in 21..40u32 {
            edges.push((v - 1, v, 1u64));
        }
        edges.push((19, 20, 1000));
        let g = WeightedGraph::from_edges(40, &edges);
        let r = weighted_cluster(&g, &ClusterParams::new(4, 3));
        r.validate(&g).unwrap();
        assert!(r.max_weighted_radius() < 1000 + 40);
    }

    #[test]
    fn quotient_helper_contracts_clustering() {
        let g = weighted_grid(10, 10);
        let r = weighted_cluster(&g, &ClusterParams::new(2, 5));
        let (q, stats) = r.quotient_with_stats(&g);
        assert_eq!(q.num_nodes(), r.num_clusters());
        assert!(q.check_invariants().is_ok());
        assert!(stats.input_pairs >= stats.output_pairs);
    }
}
