//! Dataset registry: seeded synthetic substitutes for the paper's Table 1
//! graphs, at three scales.
//!
//! | ours | paper original | family |
//! |---|---|---|
//! | `synth-social-large` | twitter (39.8M nodes, Δ 16) | preferential attachment |
//! | `synth-social-small` | livejournal (4.0M nodes, Δ 21) | preferential attachment |
//! | `synth-road-ca/pa/tx` | roads-CA/PA/TX (Δ 786–1054) | sparsified grid |
//! | `mesh` | mesh1000 (10⁶ nodes, Δ 1998) | 2-D mesh (exact at `full`) |
//!
//! See DESIGN.md §2 for why each substitution preserves the behaviour the
//! evaluation depends on.

use pardec_graph::{generators, CsrGraph};

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny graphs — full suite in a couple of minutes.
    Ci,
    /// Default — the shapes of all tables reproduce comfortably.
    Default,
    /// Paper scale where feasible (mesh is exactly 1000×1000).
    Full,
}

impl Scale {
    /// Parses `"ci" | "default" | "full"` (case-insensitive; panics otherwise).
    pub fn parse(s: &str) -> Scale {
        match s.to_ascii_lowercase().as_str() {
            "ci" => Scale::Ci,
            "default" => Scale::Default,
            "full" => Scale::Full,
            other => panic!("unknown scale {other:?} (expected ci|default|full)"),
        }
    }
}

/// Which diameter regime a dataset belongs to (drives granularity choices,
/// as in §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Social-network-like: low diameter, high expansion.
    SmallDiameter,
    /// Road/mesh-like: long diameter, low doubling dimension.
    LargeDiameter,
}

/// A named dataset instance.
pub struct Dataset {
    pub name: &'static str,
    /// The paper dataset this stands in for.
    pub paper_name: &'static str,
    pub regime: Regime,
    pub graph: CsrGraph,
}

fn social(name: &'static str, paper: &'static str, n: usize, m: usize, seed: u64) -> Dataset {
    // Windowed preferential attachment: heavy-tailed degrees with the
    // window fraction tuned so the diameter lands near the original's
    // (twitter 16, livejournal 21) instead of plain BA's degenerate ~5.
    let window_frac = if m >= 8 { 0.025 } else { 0.016 };
    Dataset {
        name,
        paper_name: paper,
        regime: Regime::SmallDiameter,
        graph: generators::windowed_preferential_attachment(n, m, window_frac, seed),
    }
}

fn road(name: &'static str, paper: &'static str, side: usize, seed: u64) -> Dataset {
    Dataset {
        name,
        paper_name: paper,
        regime: Regime::LargeDiameter,
        graph: generators::road_network(side, side, 0.4, seed),
    }
}

/// The six Table 1 datasets at the given scale, in the paper's row order.
pub fn datasets(scale: Scale) -> Vec<Dataset> {
    match scale {
        Scale::Ci => vec![
            social("synth-social-large", "twitter", 20_000, 8, 101),
            social("synth-social-small", "livejournal", 10_000, 6, 102),
            road("synth-road-ca", "roads-CA", 110, 103),
            road("synth-road-pa", "roads-PA", 90, 104),
            road("synth-road-tx", "roads-TX", 100, 105),
            Dataset {
                name: "mesh",
                paper_name: "mesh1000",
                regime: Regime::LargeDiameter,
                graph: generators::mesh(100, 100),
            },
        ],
        Scale::Default => vec![
            social("synth-social-large", "twitter", 120_000, 8, 101),
            social("synth-social-small", "livejournal", 60_000, 6, 102),
            road("synth-road-ca", "roads-CA", 400, 103),
            road("synth-road-pa", "roads-PA", 330, 104),
            road("synth-road-tx", "roads-TX", 370, 105),
            Dataset {
                name: "mesh",
                paper_name: "mesh1000",
                regime: Regime::LargeDiameter,
                graph: generators::mesh(320, 320),
            },
        ],
        Scale::Full => vec![
            social("synth-social-large", "twitter", 400_000, 8, 101),
            social("synth-social-small", "livejournal", 200_000, 6, 102),
            road("synth-road-ca", "roads-CA", 700, 103),
            road("synth-road-pa", "roads-PA", 580, 104),
            road("synth-road-tx", "roads-TX", 650, 105),
            Dataset {
                name: "mesh",
                paper_name: "mesh1000",
                regime: Regime::LargeDiameter,
                graph: generators::mesh(1000, 1000),
            },
        ],
    }
}

/// The two social datasets only (Figure 1's bases).
pub fn social_datasets(scale: Scale) -> Vec<Dataset> {
    let mut all = datasets(scale);
    all.truncate(2);
    all
}

/// Decomposition granularity targets per §6.1: roughly three orders of
/// magnitude below `n` for small-diameter graphs and two for large-diameter
/// ones — rescaled to our graph sizes (minimum 40 clusters so the quotient
/// stays meaningful).
pub fn granularity_target(n: usize, regime: Regime) -> usize {
    let divisor = match regime {
        Regime::SmallDiameter => 1000,
        Regime::LargeDiameter => 100,
    };
    (n / divisor).max(40)
}

/// Maps a target cluster count to CLUSTER's τ. Each batch activates
/// ≈ `4·τ·log₂ n` centers and ≈ `log₂(n/target)` batches run before the
/// loop threshold is reached, so `τ ≈ target / (4·log₂ n·batches)` lands in
/// the target's ballpark (the tables report the achieved `n_C`, exactly like
/// the paper, which cannot fix it a priori either).
pub fn tau_for_target(n: usize, target: usize) -> usize {
    let logn = (n.max(2) as f64).log2();
    let batches = ((n.max(2) as f64) / target.max(1) as f64).log2().max(1.0) + 1.0;
    ((target as f64 / (4.0 * logn * batches)).round() as usize).max(1)
}

/// Ground-truth diameter of a dataset: the exact diameter, as
/// [`pardec_graph::diameter::exact_diameter`] computes it. At the default
/// scale its routine needs 10, 5, 5, 4, 10 and 5 BFS on the six sets, in
/// [`datasets`] order, so no sampled lower bound has to stand in for it.
pub fn exact_diameter(g: &CsrGraph) -> u32 {
    pardec_graph::diameter::exact_diameter(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_datasets_have_expected_shapes() {
        let ds = datasets(Scale::Ci);
        assert_eq!(ds.len(), 6);
        for d in &ds {
            assert!(
                pardec_graph::components::is_connected(&d.graph),
                "{} disconnected",
                d.name
            );
        }
        // Social graphs: low diameter. Roads/mesh: long diameter.
        let social_ecc = pardec_graph::traversal::eccentricity(&ds[0].graph, 0);
        assert!(social_ecc < 20, "social ecc {social_ecc}");
        let mesh_ecc = pardec_graph::traversal::eccentricity(&ds[5].graph, 0);
        assert!(mesh_ecc >= 198, "mesh ecc {mesh_ecc}");
    }

    /// The ground truth is exact on both regimes: it equals all-pairs BFS
    /// on small social and road graphs.
    #[test]
    fn exact_diameter_matches_all_pairs_bfs() {
        for g in [
            pardec_graph::generators::windowed_preferential_attachment(3000, 4, 0.05, 3),
            pardec_graph::generators::preferential_attachment(2000, 2, 5),
            pardec_graph::generators::road_network(30, 30, 0.4, 7),
        ] {
            assert_eq!(
                exact_diameter(&g),
                pardec_graph::diameter::apsp_diameter(&g)
            );
        }
    }

    #[test]
    fn granularity_targets() {
        assert_eq!(granularity_target(100_000, Regime::SmallDiameter), 100);
        assert_eq!(granularity_target(100_000, Regime::LargeDiameter), 1000);
        assert_eq!(granularity_target(100, Regime::SmallDiameter), 40);
    }

    #[test]
    fn tau_mapping_monotone() {
        assert!(tau_for_target(100_000, 2000) > tau_for_target(100_000, 100));
        assert!(tau_for_target(1000, 1) >= 1);
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("CI"), Scale::Ci);
        assert_eq!(Scale::parse("full"), Scale::Full);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn scale_parse_rejects_garbage() {
        Scale::parse("huge");
    }
}
