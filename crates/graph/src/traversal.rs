//! Sequential breadth-first traversals.
//!
//! [`bfs`] is a direct queue-based implementation on purpose — it is the
//! simple, independent reference that the frontier engine's property tests
//! (`tests/proptests_frontier.rs`) compare against. Parallel, multi-source
//! and direction-optimizing BFS (with per-source ownership, the primitive
//! behind disjoint cluster growth in §3 of the paper) live in
//! [`crate::frontier`]: [`crate::frontier::multi_source_bfs`] and
//! [`crate::frontier::single_source_bfs`].

use crate::access::NeighborAccess;
use crate::{NodeId, INFINITE_DIST, INVALID_NODE};

/// Result of a (single- or multi-source) BFS.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// `dist[v]` = hop distance from the nearest source, [`INFINITE_DIST`] if unreachable.
    pub dist: Vec<u32>,
    /// Number of reached nodes (including the sources).
    pub visited: usize,
    /// Number of BFS levels expanded (max finite distance).
    pub levels: u32,
}

impl BfsResult {
    /// Eccentricity of the source set: the maximum finite distance.
    pub fn eccentricity(&self) -> u32 {
        self.levels
    }

    /// The farthest reached node (largest finite distance, smallest id on ties).
    pub fn farthest(&self) -> Option<NodeId> {
        let mut best: Option<(u32, NodeId)> = None;
        for (v, &d) in self.dist.iter().enumerate() {
            if d != INFINITE_DIST {
                match best {
                    Some((bd, _)) if bd >= d => {}
                    _ => best = Some((d, v as NodeId)),
                }
            }
        }
        best.map(|(_, v)| v)
    }
}

/// Sequential BFS from a single source.
///
/// Deliberately *not* routed through the frontier engine: this is the
/// trivially-auditable oracle used to validate the engine, and the inner
/// loop of the outer-parallel routines in [`crate::diameter`] (BFS from
/// every source in parallel), where a nested parallel engine would only add
/// overhead.
pub fn bfs<G: NeighborAccess>(g: &G, src: NodeId) -> BfsResult {
    let n = g.num_nodes();
    let mut dist = vec![INFINITE_DIST; n];
    let mut frontier = vec![src];
    dist[src as usize] = 0;
    let mut visited = 1usize;
    let mut level = 0u32;
    let mut next = Vec::new();
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            for v in g.neighbors_iter(u) {
                if dist[v as usize] == INFINITE_DIST {
                    dist[v as usize] = level + 1;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        level += 1;
        visited += next.len();
        std::mem::swap(&mut frontier, &mut next);
    }
    BfsResult {
        dist,
        visited,
        levels: level,
    }
}

/// Sequential BFS that also records parent pointers (for path extraction,
/// e.g. the double-sweep midpoint).
pub fn bfs_with_parents<G: NeighborAccess>(g: &G, src: NodeId) -> (BfsResult, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut dist = vec![INFINITE_DIST; n];
    let mut parent = vec![INVALID_NODE; n];
    let mut frontier = vec![src];
    dist[src as usize] = 0;
    let mut visited = 1usize;
    let mut level = 0u32;
    let mut next = Vec::new();
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            for v in g.neighbors_iter(u) {
                if dist[v as usize] == INFINITE_DIST {
                    dist[v as usize] = level + 1;
                    parent[v as usize] = u;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        level += 1;
        visited += next.len();
        std::mem::swap(&mut frontier, &mut next);
    }
    (
        BfsResult {
            dist,
            visited,
            levels: level,
        },
        parent,
    )
}

/// Eccentricity of `u`: the maximum BFS distance to any reachable node.
pub fn eccentricity<G: NeighborAccess>(g: &G, u: NodeId) -> u32 {
    bfs(g, u).levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.visited, 5);
        assert_eq!(r.levels, 4);
        assert_eq!(r.farthest(), Some(4));
    }

    #[test]
    fn bfs_unreachable() {
        let g = crate::GraphBuilder::new(4).add_edges([(0, 1)]).build();
        let r = bfs(&g, 0);
        assert_eq!(r.dist[2], INFINITE_DIST);
        assert_eq!(r.visited, 2);
    }

    #[test]
    fn parents_trace_shortest_path() {
        let g = generators::mesh(4, 4);
        let (r, parent) = bfs_with_parents(&g, 0);
        // Walk back from the far corner; path length must equal the distance.
        let mut v = 15u32;
        let mut hops = 0;
        while v != 0 {
            v = parent[v as usize];
            hops += 1;
            assert!(hops <= 100, "cycle in parent pointers");
        }
        assert_eq!(hops, r.dist[15]);
    }

    #[test]
    fn eccentricity_of_cycle() {
        let g = generators::cycle(10);
        assert_eq!(eccentricity(&g, 0), 5);
        let g = generators::cycle(11);
        assert_eq!(eccentricity(&g, 3), 5);
    }
}
