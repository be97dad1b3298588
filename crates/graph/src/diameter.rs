//! Exact diameter computation — the ground-truth `Δ` column of Tables 1, 3
//! and 4.
//!
//! Three routines, in increasing sophistication:
//! * [`apsp_diameter`] — BFS from every node (parallelized), `O(n(n + m))`;
//!   fine for quotient graphs and test fixtures;
//! * [`double_sweep`] — classic 2-sweep lower bound, also yields a good iFUB
//!   root (the midpoint of the sweep path);
//! * [`ifub`] — the iFUB algorithm (Crescenzi et al.), exact on connected
//!   graphs, usually terminating after a handful of BFS runs on road-like
//!   and mesh-like topologies.

use crate::frontier::{single_source_bfs, FrontierStrategy};
use crate::traversal::{bfs, bfs_with_parents};
use crate::{components, CsrGraph, NodeId};
use rayon::prelude::*;

/// Exact diameter by all-pairs BFS, parallelized over sources.
///
/// For disconnected graphs this returns the largest *finite* eccentricity,
/// i.e. the maximum diameter over connected components.
pub fn apsp_diameter(g: &CsrGraph) -> u32 {
    if g.num_nodes() == 0 {
        return 0;
    }
    (0..g.num_nodes() as NodeId)
        .into_par_iter()
        .map(|u| bfs(g, u).levels)
        .max()
        .unwrap_or(0)
}

/// Result of a double BFS sweep.
#[derive(Clone, Copy, Debug)]
pub struct DoubleSweep {
    /// Lower bound on the diameter: `dist(far_a, far_b)`.
    pub lower_bound: u32,
    /// Endpoint found by the first sweep.
    pub far_a: NodeId,
    /// Endpoint found by the second sweep (realizes `lower_bound` from `far_a`).
    pub far_b: NodeId,
    /// Midpoint of the `far_a → far_b` shortest path — an empirically
    /// excellent root for [`ifub`].
    pub midpoint: NodeId,
}

/// Double-sweep diameter lower bound starting from `start`.
///
/// # Panics
/// Panics on the empty graph.
pub fn double_sweep(g: &CsrGraph, start: NodeId) -> DoubleSweep {
    assert!(g.num_nodes() > 0, "double sweep on empty graph");
    // A whole-graph frontier sweep: the one place in this module where the
    // direction-optimizing engine pays off (the second sweep needs parent
    // pointers and stays on the sequential routine).
    let first = single_source_bfs(g, start, FrontierStrategy::default_from_env());
    let a = first.farthest().unwrap_or(start);
    let (second, parent) = bfs_with_parents(g, a);
    let b = second.farthest().unwrap_or(a);
    // Walk halfway back along the shortest path b -> a.
    let half = second.dist[b as usize] / 2;
    let mut mid = b;
    for _ in 0..half {
        mid = parent[mid as usize];
    }
    DoubleSweep {
        lower_bound: second.dist[b as usize],
        far_a: a,
        far_b: b,
        midpoint: mid,
    }
}

/// Exact diameter of a **connected** graph via iFUB.
///
/// Starting from the double-sweep midpoint `r`, nodes are processed fringe
/// by fringe in order of decreasing BFS level `i`; eccentricities within a
/// fringe are computed in parallel. The loop stops as soon as the running
/// lower bound reaches `2·i`: any remaining pair lies within distance `2·i`
/// of each other through `r`, so the bound is tight.
///
/// Returns the diameter together with the number of full BFS executions
/// spent (a useful cost metric; `n` would mean APSP-equivalent work).
///
/// # Panics
/// Panics if the graph is empty or disconnected.
pub fn ifub(g: &CsrGraph, start: NodeId) -> (u32, usize) {
    assert!(g.num_nodes() > 0, "ifub on empty graph");
    let sweep = double_sweep(g, start);
    let root = sweep.midpoint;
    let root_bfs = single_source_bfs(g, root, FrontierStrategy::default_from_env());
    assert!(
        root_bfs.visited == g.num_nodes(),
        "ifub requires a connected graph"
    );
    let ecc_r = root_bfs.levels;
    let mut fringes: Vec<Vec<NodeId>> = vec![Vec::new(); ecc_r as usize + 1];
    for (v, &d) in root_bfs.dist.iter().enumerate() {
        fringes[d as usize].push(v as NodeId);
    }
    let mut lb = sweep.lower_bound.max(ecc_r);
    let mut bfs_count = 3; // two sweeps + root BFS
    let mut i = ecc_r;
    while i > 0 && lb < 2 * i {
        let fringe_max = fringes[i as usize]
            .par_iter()
            .map(|&v| bfs(g, v).levels)
            .max()
            .unwrap_or(0);
        bfs_count += fringes[i as usize].len();
        lb = lb.max(fringe_max);
        i -= 1;
    }
    (lb, bfs_count)
}

/// Exact diameter of an arbitrary graph: the maximum over connected
/// components (0 for the empty graph). Components of up to 1024 nodes fall
/// back to APSP; larger ones use iFUB.
///
/// Nodes are bucketed by component once, components of fewer than 3 nodes
/// (diameter `size − 1`) are never extracted, and the rest are cut out
/// through one shared id map, so many small components cost little more
/// than their nodes.
pub fn exact_diameter(g: &CsrGraph) -> u32 {
    let n = g.num_nodes();
    if n == 0 {
        return 0;
    }
    let (count, labels) = components::connected_components(g);
    if count == 1 {
        return connected_diameter(g);
    }
    // Each component's nodes, contiguous and in increasing id order.
    let mut members: Vec<NodeId> = (0..n as NodeId).collect();
    members.sort_unstable_by_key(|&v| (labels[v as usize], v));
    // `local[v]`: `v`'s index within its component, which increases with
    // `v`, so relabelled adjacency lists stay sorted: each component is a
    // valid CSR as is.
    let mut local = vec![0 as NodeId; n];
    let mut best = 0;
    for nodes in members.chunk_by(|&a, &b| labels[a as usize] == labels[b as usize]) {
        if nodes.len() < 3 {
            best = best.max(nodes.len() as u32 - 1);
            continue;
        }
        for (i, &v) in nodes.iter().enumerate() {
            local[v as usize] = i as NodeId;
        }
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for &v in nodes {
            targets.extend(g.neighbors(v).iter().map(|&w| local[w as usize]));
            offsets.push(targets.len());
        }
        best = best.max(connected_diameter(&CsrGraph::from_parts(offsets, targets)));
    }
    best
}

/// Exact diameter of a connected, non-empty graph: APSP up to 1024 nodes,
/// iFUB above.
fn connected_diameter(g: &CsrGraph) -> u32 {
    if g.num_nodes() <= 1024 {
        apsp_diameter(g)
    } else {
        ifub(g, 0).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphBuilder};

    #[test]
    fn apsp_on_known_shapes() {
        assert_eq!(apsp_diameter(&generators::path(10)), 9);
        assert_eq!(apsp_diameter(&generators::cycle(10)), 5);
        assert_eq!(apsp_diameter(&generators::star(8)), 2);
        assert_eq!(apsp_diameter(&generators::complete(6)), 1);
        assert_eq!(apsp_diameter(&generators::mesh(7, 9)), 6 + 8);
    }

    #[test]
    fn apsp_empty_and_singleton() {
        assert_eq!(apsp_diameter(&CsrGraph::empty(0)), 0);
        assert_eq!(apsp_diameter(&CsrGraph::empty(1)), 0);
    }

    #[test]
    fn double_sweep_exact_on_paths_and_trees() {
        let g = generators::path(30);
        let s = double_sweep(&g, 13);
        assert_eq!(s.lower_bound, 29);
        // Midpoint of a path is its centre.
        assert!(
            (s.midpoint as i64 - 14).abs() <= 1,
            "midpoint {}",
            s.midpoint
        );
    }

    #[test]
    fn ifub_matches_apsp_on_mesh() {
        let g = generators::mesh(12, 17);
        let (d, bfs_used) = ifub(&g, 0);
        assert_eq!(d, apsp_diameter(&g));
        assert!(bfs_used < g.num_nodes(), "iFUB degenerated to APSP");
    }

    #[test]
    fn ifub_matches_apsp_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm(300, 500, seed);
            let (lc, _) = crate::components::largest_component(&g);
            let (d, _) = ifub(&lc, 0);
            assert_eq!(d, apsp_diameter(&lc), "seed {seed}");
        }
    }

    #[test]
    fn ifub_on_lollipop() {
        let g = generators::lollipop(300, 4, 120, 7);
        let (d, _) = ifub(&g, 0);
        assert_eq!(d, apsp_diameter(&g));
        assert!(d >= 120);
    }

    #[test]
    fn exact_diameter_disconnected() {
        let g = generators::disjoint_union(&generators::path(7), &generators::cycle(12));
        assert_eq!(exact_diameter(&g), 6);
        let g = generators::disjoint_union(&generators::path(20), &generators::cycle(6));
        assert_eq!(exact_diameter(&g), 19);

        // Many components: isolated nodes, pairs, paths and meshes, and one
        // component above the APSP cutoff.
        let union = |parts: &[CsrGraph]| {
            parts
                .iter()
                .fold(CsrGraph::empty(0), |g, p| generators::disjoint_union(&g, p))
        };
        let isolated = CsrGraph::empty(1);
        let pair = generators::path(2);
        let many = [
            union(&[isolated.clone(), isolated.clone(), isolated.clone()]),
            union(&[pair.clone(), pair.clone(), isolated.clone(), pair.clone()]),
            union(&[isolated.clone(), generators::path(3), pair.clone()]),
            union(&[
                generators::mesh(5, 6),
                isolated.clone(),
                generators::path(11),
                pair.clone(),
                generators::mesh(3, 3),
                isolated.clone(),
            ]),
            union(&[
                generators::disjoint_union(&CsrGraph::empty(40), &generators::mesh(8, 8)),
                generators::cycle(9),
                CsrGraph::empty(25),
                generators::path(4),
            ]),
            union(&[
                generators::mesh(30, 40),
                CsrGraph::empty(10),
                generators::path(5),
            ]),
        ];
        for (i, g) in many.iter().enumerate() {
            assert_eq!(exact_diameter(g), apsp_diameter(g), "graph {i}");
        }
        // A component relabelled through the shared id map keeps its
        // structure when its ids are not contiguous.
        let mixed = GraphBuilder::new(7)
            .add_edges([(0, 3), (3, 6), (1, 5), (2, 4)])
            .build();
        assert_eq!(exact_diameter(&mixed), 2);
    }
}
