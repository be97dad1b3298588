//! §3.1–3.2 — approximation to the graph **k-center** problem.
//!
//! Given an unweighted connected graph, find `k` centers minimizing the
//! maximum distance of any node to its nearest center. NP-hard; the best
//! sequential approximation is the Gonzalez / Hochbaum–Shmoys factor 2.
//!
//! Theorem 2: running CLUSTER with `τ = Θ(k / log² n)` and, if more than `k`
//! clusters come back, merging them along a spanning forest of the quotient
//! graph yields an `O(log³ n)`-approximation — computable in parallel depth
//! far below the `k` sequential BFS waves Gonzalez needs.

use crate::cluster::{cluster, log2n, ClusterParams};
use pardec_graph::frontier::{multi_source_bfs, FrontierStrategy};
use pardec_graph::{components, CsrGraph, NodeId, INFINITE_DIST, INVALID_NODE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Errors of the k-center solvers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KCenterError {
    /// `k` is smaller than the number of connected components, so every
    /// feasible solution has infinite radius (§3.2 requires `k ≥ h`).
    TooFewCenters { k: usize, components: usize },
    /// `k = 0` or the graph is empty.
    Degenerate,
}

impl std::fmt::Display for KCenterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KCenterError::TooFewCenters { k, components } => {
                write!(
                    f,
                    "k = {k} below the number of connected components {components}"
                )
            }
            KCenterError::Degenerate => write!(f, "empty graph or k = 0"),
        }
    }
}

impl std::error::Error for KCenterError {}

/// A k-center solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KCenterResult {
    /// Chosen centers (`≤ k`, distinct).
    pub centers: Vec<NodeId>,
    /// The objective: `max_v dist(v, centers)`.
    pub radius: u32,
    /// Clusters CLUSTER produced before merging (`0` for Gonzalez).
    pub clusters_before_merge: usize,
}

/// The k-center objective value of a center set: the largest BFS distance
/// from any node to its nearest center ([`INFINITE_DIST`] if some node is
/// unreachable from every center).
pub fn kcenter_objective(g: &CsrGraph, centers: &[NodeId]) -> u32 {
    if g.num_nodes() == 0 {
        return 0;
    }
    if centers.is_empty() {
        return INFINITE_DIST;
    }
    let (res, _) = multi_source_bfs(g, centers, FrontierStrategy::TopDown);
    if res.visited < g.num_nodes() {
        INFINITE_DIST
    } else {
        res.levels
    }
}

/// Gonzalez's farthest-first traversal — the classic sequential
/// 2-approximation, used as the quality baseline.
///
/// Runs `k` BFS waves (`O(k(n + m))`); each iteration adds the node farthest
/// from the current center set.
pub fn gonzalez(g: &CsrGraph, k: usize, seed: u64) -> Result<KCenterResult, KCenterError> {
    let n = g.num_nodes();
    if n == 0 || k == 0 {
        return Err(KCenterError::Degenerate);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers = vec![rng.gen_range(0..n) as NodeId];
    let mut dist = pardec_graph::traversal::bfs(g, centers[0]).dist;
    while centers.len() < k.min(n) {
        // Farthest node, treating unreachable (other components) as +inf.
        let far = (0..n)
            .max_by_key(|&v| (dist[v], std::cmp::Reverse(v)))
            .expect("nonempty");
        if dist[far] == 0 {
            break; // everything is already a center
        }
        centers.push(far as NodeId);
        let d2 = pardec_graph::traversal::bfs(g, far as NodeId).dist;
        for v in 0..n {
            dist[v] = dist[v].min(d2[v]);
        }
    }
    let radius = dist.iter().copied().max().unwrap_or(0);
    Ok(KCenterResult {
        centers,
        radius,
        clusters_before_merge: 0,
    })
}

/// CLUSTER-based `O(log³ n)`-approximation (Theorem 2, extended to
/// disconnected graphs per §3.2).
///
/// Runs CLUSTER(`τ = max(1, ⌊k / log² n⌋)`); if more than `k` clusters come
/// back they are merged along a BFS spanning forest of the quotient graph by
/// size-bounded subtree partition (each merged group is a connected union of
/// clusters), leaving at most `k` groups.
pub fn kcenter(g: &CsrGraph, k: usize, seed: u64) -> Result<KCenterResult, KCenterError> {
    let n = g.num_nodes();
    if n == 0 || k == 0 {
        return Err(KCenterError::Degenerate);
    }
    let (h, _) = components::connected_components(g);
    if k < h {
        return Err(KCenterError::TooFewCenters { k, components: h });
    }
    if k >= n {
        return Ok(KCenterResult {
            centers: (0..n as NodeId).collect(),
            radius: 0,
            clusters_before_merge: n,
        });
    }

    let logn = log2n(n);
    let tau = ((k as f64 / (logn * logn)).floor() as usize).max(1);
    let res = cluster(g, &ClusterParams::new(tau, seed));
    let clustering = res.clustering;
    let w = clustering.num_clusters();

    let centers: Vec<NodeId> = if w <= k {
        clustering.centers.clone()
    } else {
        // Merge along a spanning forest of the quotient graph.
        let q = clustering.quotient(g);
        let group_of = forest_partition(&q, k, h);
        // One representative center per group: the first member cluster's.
        let num_groups = group_of
            .iter()
            .map(|&gid| gid as usize + 1)
            .max()
            .unwrap_or(0);
        let mut rep: Vec<NodeId> = vec![INVALID_NODE; num_groups];
        for (c, &gid) in group_of.iter().enumerate() {
            let gid = gid as usize;
            if rep[gid] == INVALID_NODE {
                rep[gid] = clustering.centers[c];
            }
        }
        rep.retain(|&r| r != INVALID_NODE);
        rep
    };
    debug_assert!(centers.len() <= k);
    let radius = kcenter_objective(g, &centers);
    Ok(KCenterResult {
        centers,
        radius,
        clusters_before_merge: w,
    })
}

/// Partitions the nodes of `q` (a quotient graph with `h` connected
/// components) into at most `k ≥ h` connected groups, by cutting a DFS
/// spanning forest into subtrees of at least `⌈W / (k - h)⌉` pending nodes
/// each (post-order accumulation); tree roots absorb the remainders.
/// Returns `group_of[node] = group id` (groups numbered contiguously).
fn forest_partition(q: &CsrGraph, k: usize, h: usize) -> Vec<NodeId> {
    let w = q.num_nodes();
    debug_assert!(k >= h && w > 0);
    // Every cut group absorbs ≥ `chunk` nodes, so cuts ≤ (k - h); the h
    // root-remainder groups bring the total to ≤ k.
    let budget = (k - h).max(1);
    let chunk = w.div_ceil(budget);

    let mut group_of: Vec<NodeId> = vec![INVALID_NODE; w];
    let mut next_group: NodeId = 0;
    let mut parent: Vec<NodeId> = vec![INVALID_NODE; w];
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); w];
    let mut visited = vec![false; w];
    // Unassigned ("pending") nodes remaining in each node's subtree.
    let mut pending_size: Vec<usize> = vec![1; w];

    // Cuts flood only along tree edges, through still-unassigned
    // descendants — quotient non-tree edges must not leak between subtrees.
    fn cut(start: NodeId, gid: NodeId, children: &[Vec<NodeId>], group_of: &mut [NodeId]) {
        let mut stack = vec![start];
        group_of[start as usize] = gid;
        while let Some(u) = stack.pop() {
            for &v in &children[u as usize] {
                if group_of[v as usize] == INVALID_NODE {
                    group_of[v as usize] = gid;
                    stack.push(v);
                }
            }
        }
    }

    for root in 0..w as NodeId {
        if visited[root as usize] {
            continue;
        }
        // Iterative DFS computing a spanning tree and a discovery order.
        let mut order: Vec<NodeId> = Vec::new();
        let mut stack = vec![root];
        visited[root as usize] = true;
        while let Some(u) = stack.pop() {
            order.push(u);
            for &v in q.neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    parent[v as usize] = u;
                    children[u as usize].push(v);
                    stack.push(v);
                }
            }
        }
        // Reverse discovery order is a valid post-order for accumulation:
        // every child appears after its parent in `order`.
        for &u in order.iter().rev() {
            let p = parent[u as usize];
            if pending_size[u as usize] >= chunk && p != INVALID_NODE {
                cut(u, next_group, &children, &mut group_of);
                next_group += 1;
            } else if p != INVALID_NODE {
                pending_size[p as usize] += pending_size[u as usize];
            }
        }
        // Root remainder group (possibly small).
        cut(root, next_group, &children, &mut group_of);
        next_group += 1;
    }
    group_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardec_graph::generators;

    #[test]
    fn gonzalez_on_path() {
        let g = generators::path(100);
        let r = gonzalez(&g, 2, 1).unwrap();
        assert_eq!(r.centers.len(), 2);
        // Optimal 2-center radius of a path of 100 nodes is 25; Gonzalez
        // guarantees ≤ 2·OPT.
        assert!(r.radius <= 50, "radius {}", r.radius);
        assert_eq!(r.radius, kcenter_objective(&g, &r.centers));
    }

    #[test]
    fn gonzalez_handles_disconnected() {
        let g = generators::disjoint_union(&generators::path(30), &generators::cycle(20));
        let r = gonzalez(&g, 2, 0).unwrap();
        // Farthest-first must place one center per component.
        assert!(r.radius < INFINITE_DIST);
    }

    #[test]
    fn gonzalez_k_ge_n() {
        let g = generators::path(5);
        let r = gonzalez(&g, 10, 0).unwrap();
        assert_eq!(r.radius, 0);
    }

    #[test]
    fn kcenter_feasible_and_bounded() {
        let g = generators::mesh(30, 30);
        for seed in 0..3 {
            let ours = kcenter(&g, 16, seed).unwrap();
            assert!(ours.centers.len() <= 16);
            assert!(ours.radius < INFINITE_DIST);
            assert_eq!(ours.radius, kcenter_objective(&g, &ours.centers));
            // Any feasible solution is ≥ OPT ≥ gonzalez/2; and Theorem 2
            // promises a polylog factor above OPT — checked loosely.
            let gz = gonzalez(&g, 16, seed).unwrap();
            assert!(ours.radius as u64 >= gz.radius as u64 / 2);
            let logn = log2n(g.num_nodes());
            let bound = (gz.radius as f64 * logn * logn).ceil() as u64 + 1;
            assert!(
                (ours.radius as u64) <= bound,
                "seed {seed}: ours {} vs bound {bound} (gonzalez {})",
                ours.radius,
                gz.radius
            );
        }
    }

    #[test]
    fn kcenter_merges_down_to_k() {
        // Small k forces the merge path (CLUSTER emits ≥ some log² n
        // clusters whenever its loop runs).
        let g = generators::road_network(40, 40, 0.4, 3);
        let r = kcenter(&g, 5, 1).unwrap();
        assert!(r.centers.len() <= 5);
        assert!(r.clusters_before_merge > 5, "merge path not exercised");
        assert!(r.radius < INFINITE_DIST);
    }

    #[test]
    fn kcenter_errors() {
        let g = generators::disjoint_union(&generators::path(5), &generators::path(5));
        assert_eq!(
            kcenter(&g, 1, 0),
            Err(KCenterError::TooFewCenters {
                k: 1,
                components: 2
            })
        );
        assert_eq!(kcenter(&g, 0, 0), Err(KCenterError::Degenerate));
        assert_eq!(
            kcenter(&CsrGraph::empty(0), 3, 0),
            Err(KCenterError::Degenerate)
        );
    }

    #[test]
    fn kcenter_disconnected_covers_all_components() {
        let g = generators::disjoint_union(
            &generators::mesh(12, 12),
            &generators::road_network(10, 10, 0.3, 5),
        );
        let r = kcenter(&g, 8, 2).unwrap();
        assert!(r.radius < INFINITE_DIST, "some component uncovered");
        assert!(r.centers.len() <= 8);
    }

    #[test]
    fn kcenter_k_ge_n() {
        let g = generators::path(4);
        let r = kcenter(&g, 100, 0).unwrap();
        assert_eq!(r.radius, 0);
        assert_eq!(r.centers.len(), 4);
    }

    #[test]
    fn objective_empty_center_set() {
        let g = generators::path(3);
        assert_eq!(kcenter_objective(&g, &[]), INFINITE_DIST);
    }

    #[test]
    fn forest_partition_groups_connected_and_bounded() {
        let q = generators::road_network(12, 12, 0.3, 9);
        for k in [3usize, 6, 20] {
            let groups = forest_partition(&q, k, 1);
            let num_groups = groups.iter().map(|&g| g as usize + 1).max().unwrap();
            assert!(num_groups <= k, "k = {k}: {num_groups} groups");
            assert!(groups.iter().all(|&g| g != INVALID_NODE));
            // Connectivity of each group within q.
            for gid in 0..num_groups as NodeId {
                let members: Vec<NodeId> = (0..q.num_nodes() as NodeId)
                    .filter(|&v| groups[v as usize] == gid)
                    .collect();
                assert!(!members.is_empty());
                // BFS within the group from its first member must reach all.
                let mut seen = std::collections::HashSet::new();
                let mut stack = vec![members[0]];
                seen.insert(members[0]);
                while let Some(u) = stack.pop() {
                    for &v in q.neighbors(u) {
                        if groups[v as usize] == gid && seen.insert(v) {
                            stack.push(v);
                        }
                    }
                }
                assert_eq!(seen.len(), members.len(), "group {gid} disconnected");
            }
        }
    }
}
