//! Criterion bench: the Figure 1 contrast — MR CLUSTER vs MR BFS on a
//! social graph with and without a long appended chain. BFS cost should
//! scale with the chain; CLUSTER's should not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardec_core::mr_impl::{mr_bfs, mr_cluster};
use pardec_core::ClusterParams;
use pardec_graph::diameter::exact_diameter;
use pardec_graph::generators::{append_chain, preferential_attachment};

fn bench_figure1(c: &mut Criterion) {
    let base = preferential_attachment(10_000, 6, 101);
    let delta = exact_diameter(&base) as usize;
    let tau = 2;
    let mut group = c.benchmark_group("figure1");
    for cmul in [0usize, 8] {
        let g = append_chain(&base, 0, cmul * delta);
        group.bench_with_input(BenchmarkId::new("cluster", cmul), &g, |b, g| {
            b.iter(|| mr_cluster(g, &ClusterParams::new(tau, 11)))
        });
        group.bench_with_input(BenchmarkId::new("bfs", cmul), &g, |b, g| {
            b.iter(|| mr_bfs(g, 1))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_figure1
}
criterion_main!(benches);
