//! Connected components and largest-component extraction.

use crate::{CsrGraph, GraphBuilder, NodeId, INVALID_NODE};

/// Labels every node with a component id in `0..count` (ids assigned in
/// order of discovery by increasing seed node). Returns `(count, labels)`.
pub fn connected_components(g: &CsrGraph) -> (usize, Vec<NodeId>) {
    label_components(g.raw_offsets(), g.raw_targets())
}

/// [`connected_components`] of the CSR adjacency `offsets` / `targets`, the
/// layout every graph type here shares.
pub(crate) fn label_components(offsets: &[usize], targets: &[NodeId]) -> (usize, Vec<NodeId>) {
    let n = offsets.len() - 1;
    let mut label = vec![INVALID_NODE; n];
    let mut count: NodeId = 0;
    let mut stack: Vec<NodeId> = Vec::new();
    for s in 0..n as NodeId {
        if label[s as usize] != INVALID_NODE {
            continue;
        }
        label[s as usize] = count;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &v in &targets[offsets[u as usize]..offsets[u as usize + 1]] {
                if label[v as usize] == INVALID_NODE {
                    label[v as usize] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    (count as usize, label)
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &CsrGraph) -> bool {
    g.num_nodes() == 0 || connected_components(g).0 == 1
}

/// Extracts the largest connected component as a new graph.
///
/// Returns the component graph and `orig_id[new] = old` mapping back into
/// `g`. Ties between equally large components break toward the smaller
/// component label (discovery order).
pub fn largest_component(g: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    let n = g.num_nodes();
    if n == 0 {
        return (CsrGraph::empty(0), Vec::new());
    }
    let (count, labels) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let best = (0..count)
        .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
        .unwrap() as NodeId;

    let mut new_id = vec![INVALID_NODE; n];
    let mut orig_id = Vec::with_capacity(sizes[best as usize]);
    for u in 0..n {
        if labels[u] == best {
            new_id[u] = orig_id.len() as NodeId;
            orig_id.push(u as NodeId);
        }
    }
    let mut b = GraphBuilder::new(orig_id.len());
    for (u, v) in g.edges() {
        if labels[u as usize] == best && labels[v as usize] == best {
            b.add_edge(new_id[u as usize], new_id[v as usize]);
        }
    }
    (b.build(), orig_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn single_component() {
        let g = generators::cycle(10);
        let (count, labels) = connected_components(&g);
        assert_eq!(count, 1);
        assert!(labels.iter().all(|&l| l == 0));
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components() {
        let g = generators::disjoint_union(&generators::path(3), &generators::cycle(4));
        let (count, labels) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[6]);
        assert_ne!(labels[0], labels[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn isolated_nodes_are_components() {
        let g = CsrGraph::empty(4);
        let (count, _) = connected_components(&g);
        assert_eq!(count, 4);
    }

    #[test]
    fn largest_component_extraction() {
        let g = generators::disjoint_union(&generators::path(3), &generators::cycle(5));
        let (lc, orig) = largest_component(&g);
        assert_eq!(lc.num_nodes(), 5);
        assert_eq!(lc.num_edges(), 5);
        assert_eq!(orig, vec![3, 4, 5, 6, 7]);
        assert!(is_connected(&lc));
    }

    #[test]
    fn largest_component_of_empty() {
        let (lc, orig) = largest_component(&CsrGraph::empty(0));
        assert_eq!(lc.num_nodes(), 0);
        assert!(orig.is_empty());
    }

    #[test]
    fn largest_component_all_isolated() {
        let (lc, orig) = largest_component(&CsrGraph::empty(3));
        assert_eq!(lc.num_nodes(), 1);
        assert_eq!(orig, vec![0]);
    }
}
