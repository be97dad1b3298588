//! Power-law / heavy-tailed generators standing in for the paper's social
//! graphs (twitter, livejournal): Barabási–Albert preferential attachment and
//! R-MAT.

use crate::{CsrGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Barabási–Albert preferential attachment.
///
/// Starts from a clique on `m_attach + 1` nodes; every subsequent node
/// attaches to `m_attach` *distinct* existing nodes chosen proportionally to
/// their current degree (sampled from the repeated-endpoints list). The
/// result is connected, has `≈ n · m_attach` edges, a power-law degree tail,
/// and `O(log n / log log n)` diameter — the properties Table 2/4 exploit in
/// the twitter/livejournal rows.
///
/// # Panics
/// Panics if `m_attach == 0` or `n < m_attach + 1`.
pub fn preferential_attachment(n: usize, m_attach: usize, seed: u64) -> CsrGraph {
    assert!(m_attach >= 1, "attachment degree must be positive");
    assert!(n > m_attach, "need n > m_attach");
    let mut rng = StdRng::seed_from_u64(seed);
    let seed_nodes = m_attach + 1;
    let mut b =
        GraphBuilder::with_capacity(n, seed_nodes * m_attach / 2 + (n - seed_nodes) * m_attach);
    // Endpoint multiset: node u appears deg(u) times; sampling uniformly from
    // it is exactly degree-proportional selection.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);
    for u in 0..seed_nodes as NodeId {
        for v in (u + 1)..seed_nodes as NodeId {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut picked: Vec<NodeId> = Vec::with_capacity(m_attach);
    for u in seed_nodes as NodeId..n as NodeId {
        picked.clear();
        // Rejection-sample m_attach distinct targets; the list is always much
        // larger than m_attach, so this terminates quickly.
        while picked.len() < m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            b.add_edge(u, t);
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Windowed ("aging") preferential attachment: like
/// [`preferential_attachment`], but each new node picks its `m_attach`
/// targets degree-proportionally **among the most recent
/// `window_frac · 2·n·m_attach` edge endpoints** only.
///
/// Restricting attachment to recent nodes stretches the graph into a chain
/// of overlapping communities: the degree distribution keeps its heavy tail
/// while the diameter grows to `Θ(1 / window_frac)` — letting a synthetic
/// social graph hit a *target* diameter (e.g. twitter's 16 or livejournal's
/// 21) that plain BA graphs, with their `Θ(log n / log log n)` diameter,
/// cannot reach at laptop scale.
///
/// # Panics
/// Panics if `m_attach == 0`, `n ≤ m_attach`, or `window_frac ∉ (0, 1]`.
pub fn windowed_preferential_attachment(
    n: usize,
    m_attach: usize,
    window_frac: f64,
    seed: u64,
) -> CsrGraph {
    assert!(m_attach >= 1, "attachment degree must be positive");
    assert!(n > m_attach, "need n > m_attach");
    assert!(
        window_frac > 0.0 && window_frac <= 1.0,
        "window_frac must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let seed_nodes = m_attach + 1;
    let mut b =
        GraphBuilder::with_capacity(n, seed_nodes * m_attach / 2 + (n - seed_nodes) * m_attach);
    let window = (((2 * n * m_attach) as f64 * window_frac) as usize).max(4 * m_attach);
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);
    for u in 0..seed_nodes as NodeId {
        for v in (u + 1)..seed_nodes as NodeId {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut picked: Vec<NodeId> = Vec::with_capacity(m_attach);
    for u in seed_nodes as NodeId..n as NodeId {
        picked.clear();
        let lo = endpoints.len().saturating_sub(window);
        while picked.len() < m_attach {
            let t = endpoints[rng.gen_range(lo..endpoints.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            b.add_edge(u, t);
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Quadrant probabilities for the R-MAT recursive edge sampler.
#[derive(Clone, Copy, Debug)]
pub struct RmatProbs {
    pub a: f64,
    pub b: f64,
    pub c: f64,
}

impl RmatProbs {
    /// The classic Graph500-style skew.
    pub const GRAPH500: RmatProbs = RmatProbs {
        a: 0.57,
        b: 0.19,
        c: 0.19,
    };

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

impl Default for RmatProbs {
    fn default() -> Self {
        RmatProbs::GRAPH500
    }
}

/// R-MAT generator: `2^scale` nodes, `edge_factor · 2^scale` sampled edges
/// (duplicates and self-loops are dropped, so the final count is slightly
/// lower). The output may be disconnected — social-graph workloads should
/// extract the largest component via
/// [`crate::components::largest_component`].
pub fn rmat(scale: u32, edge_factor: usize, probs: RmatProbs, seed: u64) -> CsrGraph {
    assert!(scale < 31, "scale {scale} too large for u32 node ids");
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let d = probs.d();
    assert!(
        probs.a >= 0.0 && probs.b >= 0.0 && probs.c >= 0.0 && d >= 0.0,
        "R-MAT probabilities must be a sub-distribution"
    );
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _bit in 0..scale {
            let r: f64 = rng.gen();
            let (du, dv) = if r < probs.a {
                (0, 0)
            } else if r < probs.a + probs.b {
                (0, 1)
            } else if r < probs.a + probs.b + probs.c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u != v {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components, stats, traversal};

    #[test]
    fn ba_counts() {
        let (n, m_attach) = (500, 4);
        let g = preferential_attachment(n, m_attach, 9);
        assert_eq!(g.num_nodes(), n);
        // Clique seed + m per additional node (duplicates impossible:
        // `picked` is distinct and u is fresh).
        let expect = (m_attach + 1) * m_attach / 2 + (n - m_attach - 1) * m_attach;
        assert_eq!(g.num_edges(), expect);
    }

    #[test]
    fn ba_connected_low_diameter() {
        let g = preferential_attachment(3000, 5, 21);
        let (count, _) = components::connected_components(&g);
        assert_eq!(count, 1);
        assert!(traversal::eccentricity(&g, 0) <= 10);
    }

    #[test]
    fn ba_heavy_tail() {
        let g = preferential_attachment(4000, 3, 5);
        let s = stats::degree_stats(&g);
        // Hubs should dwarf the average degree (~6) by an order of magnitude.
        assert!(
            s.max >= 10 * (s.avg as usize),
            "max degree {} vs avg {}",
            s.max,
            s.avg
        );
    }

    #[test]
    fn ba_deterministic() {
        assert_eq!(
            preferential_attachment(200, 3, 77),
            preferential_attachment(200, 3, 77)
        );
    }

    #[test]
    fn windowed_ba_counts_and_connectivity() {
        let g = windowed_preferential_attachment(3000, 5, 0.02, 21);
        assert_eq!(g.num_nodes(), 3000);
        let expect = 6 * 5 / 2 + (3000 - 6) * 5;
        assert_eq!(g.num_edges(), expect);
        let (count, _) = components::connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn windowed_ba_diameter_grows_as_window_shrinks() {
        let wide = windowed_preferential_attachment(4000, 6, 1.0, 3);
        let narrow = windowed_preferential_attachment(4000, 6, 0.01, 3);
        let ecc_wide = traversal::eccentricity(&wide, 0);
        let ecc_narrow = traversal::eccentricity(&narrow, 3999);
        assert!(
            ecc_narrow > 2 * ecc_wide,
            "narrow {ecc_narrow} vs wide {ecc_wide}"
        );
    }

    #[test]
    fn windowed_ba_keeps_heavy_tail() {
        let g = windowed_preferential_attachment(6000, 6, 0.05, 9);
        let s = stats::degree_stats(&g);
        assert!(s.max >= 4 * (s.avg as usize), "max {} avg {}", s.max, s.avg);
    }

    #[test]
    fn windowed_ba_full_window_matches_ba_distribution() {
        // window_frac = 1.0 is plain preferential attachment (same RNG
        // consumption, so bit-identical).
        let a = windowed_preferential_attachment(500, 4, 1.0, 7);
        let b = preferential_attachment(500, 4, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn rmat_basics() {
        let g = rmat(10, 8, RmatProbs::default(), 13);
        assert_eq!(g.num_nodes(), 1024);
        // Dedup/self-loop removal shrinks the edge count but not by much.
        assert!(g.num_edges() > 1024 * 8 / 2);
        assert!(g.num_edges() <= 1024 * 8);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn rmat_skew_produces_hubs() {
        let g = rmat(12, 8, RmatProbs::GRAPH500, 3);
        let s = stats::degree_stats(&g);
        assert!(s.max > 8 * (s.avg.ceil() as usize));
    }
}
