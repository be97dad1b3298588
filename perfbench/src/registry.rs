//! The workloads and metrics of the benchmark. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] verbatim; a test keeps the two equal.

use crate::inputs::Family;
use pardec_graph::Backend;

/// One set of inputs the benchmark runs.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub backend: Backend,
    /// CLUSTER granularity τ.
    pub tau: usize,
    /// Lookup and `NEAREST` frames of the serve schedule. Fixed counts, so
    /// that sample sizes and the reported percentiles do not depend on
    /// speed; a `NEAREST` traverses the whole graph, so it gets fewer.
    pub lookups: usize,
    pub nearest: usize,
}

const ROAD: Family = Family::Road {
    rows: 400,
    cols: 400,
    extra: 0.4,
};

const SOCIAL: Family = Family::Social {
    n: 125_000,
    attach: 8,
    window_div: 40,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "road",
        why: "Long-diameter grid road graph, the paper's target: a ~2.5k-node quotient makes the oracle and diameter APSPs and a ~50 MB snapshot dominate; NEAREST waves take ~200 rounds.",
        family: ROAD,
        backend: Backend::Plain,
        tau: 5,
        lookups: 1500,
        nearest: 80,
    },
    Workload {
        name: "social",
        why: "Small-diameter heavy-tailed graph: few wide frontier steps, the combine kernel collapses many cut arcs into a tiny quotient, parsing dominates set-up.",
        family: SOCIAL,
        backend: Backend::Plain,
        tau: 1,
        lookups: 1500,
        nearest: 80,
    },
    Workload {
        name: "social-ccsr",
        why: "The social edge list on the gap-coded compressed backend: every neighbor visit is a varint decode, so traversal changes show up per backend.",
        family: SOCIAL,
        backend: Backend::Compressed,
        tau: 1,
        lookups: 1500,
        nearest: 40,
    },
    Workload {
        name: "serve",
        why: "Small road graph with a small quotient under a long closed-loop query stream: the request path (codec, admission, session, socket) carries the run.",
        family: Family::Road {
            rows: 200,
            cols: 200,
            extra: 0.4,
        },
        backend: Backend::Plain,
        tau: 1,
        lookups: 24000,
        nearest: 1600,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A reported metric. `bound` is set for end-to-end metrics only: the share
/// of the parent's median by which the metric may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("pipeline_s", "s", 0.25),
    e2e("lookup_ms", "ms", 0.25),
    e2e("nearest_ms", "ms", 0.25),
    e2e("peak_rss_bytes", "bytes", 0.2),
    e2e("diameter_ratio", "ratio", 0.1),
];

pub const PER_LAYER: [Metric; 43] = [
    layer("stage.parse_s", "s", "lower"),
    layer("stage.encode_s", "s", "lower"),
    layer("stage.build_s", "s", "lower"),
    layer("stage.diameter_s", "s", "lower"),
    layer("stage.save_s", "s", "lower"),
    layer("stage.load_s", "s", "lower"),
    layer("layer.cluster_s", "s", "lower"),
    layer("layer.oracle_s", "s", "lower"),
    layer("layer.quotient_s", "s", "lower"),
    layer("layer.qdiam_s", "s", "lower"),
    layer("layer.wquotient_s", "s", "lower"),
    layer("layer.wqdiam_s", "s", "lower"),
    layer("layer.save_s", "s", "lower"),
    layer("layer.load_s", "s", "lower"),
    layer("layer.serve_s", "s", "lower"),
    layer("layer.coverage", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("span.cluster.round.count", "count", "lower"),
    layer("span.cluster.round.self_s", "s", "lower"),
    layer("span.frontier.wave.count", "count", "lower"),
    layer("span.frontier.wave.self_s", "s", "lower"),
    layer("span.serve.request.count", "count", "lower"),
    layer("span.serve.request.self_s", "s", "lower"),
    layer("serve.rps", "1/s", "higher"),
    layer("serve.lookup_p99_ms", "ms", "lower"),
    layer("serve.server_lookup_mean_ms", "ms", "lower"),
    layer("serve.server_nearest_mean_ms", "ms", "lower"),
    layer("serve.wait_lookup_ms", "ms", "lower"),
    layer("serve.bytes_in", "bytes", "lower"),
    layer("serve.bytes_out", "bytes", "lower"),
    layer("cluster.batches", "count", "lower"),
    layer("cluster.growth_steps", "count", "lower"),
    layer("cluster.clusters", "count", "lower"),
    layer("cluster.max_radius", "count", "lower"),
    layer("quotient.cut_pairs", "count", "lower"),
    layer("quotient.edges", "count", "lower"),
    layer("quotient.collapse", "ratio", "higher"),
    layer("diameter.lower", "count", "higher"),
    layer("diameter.upper_weighted", "count", "lower"),
    layer("oracle.words", "count", "lower"),
    layer("snapshot.bytes", "bytes", "lower"),
    layer("graph.heap_bytes", "bytes", "lower"),
    layer("query.wave_rounds", "count", "lower"),
];

/// The metrics a run prints: end-to-end untraced, per-layer traced.
pub fn reported(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// How long one `--workload` run measures by default, in seconds.
pub const RUN_SECONDS: u64 = 25;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use pardec_obs::json::{push_escaped, push_f64};
    let quoted = |s: &str| {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    };
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--locked\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let metric_rows = |metrics: &[Metric]| {
        metrics
            .iter()
            .map(|m| {
                let mut row = format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better)
                );
                if let Some(bound) = m.bound {
                    row.push_str(", \"bound\": ");
                    push_f64(&mut row, bound);
                }
                row.push('}');
                row
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        metric_rows(&END_TO_END)
    ));
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        metric_rows(&PER_LAYER)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail_per_mille;

    #[test]
    fn benchmark_json_matches_the_registry() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate BENCHMARK.json with `benchmark --list`"
        );
        pardec_obs::validate_object(&benchmark_json()).unwrap();
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert_eq!(END_TO_END[0].name, "setup_s");
        let setup = END_TO_END[0].bound.unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= setup));
    }

    #[test]
    fn schedules_justify_the_reported_tails() {
        for w in &WORKLOADS {
            assert!(tail_per_mille(w.lookups) >= Some(990), "{}", w.name);
            assert!(tail_per_mille(w.nearest) >= Some(500), "{}", w.name);
        }
    }
}
