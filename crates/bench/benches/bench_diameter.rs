//! Criterion bench: the Table 3/4 diameter pipeline — our quotient-based
//! approximation vs the BFS baseline vs the exact routine of
//! `pardec_graph::diameter`. The cycle is the exact routine's worst case:
//! every eccentricity is equal, so its bounds close no node.

use criterion::{criterion_group, criterion_main, Criterion};
use pardec_core::bfs_baseline::bfs_diameter;
use pardec_core::{approximate_diameter, DiameterParams};
use pardec_graph::{diameter, generators};

fn bench_diameter(c: &mut Criterion) {
    let mut group = c.benchmark_group("diameter");
    let workloads = [
        ("mesh-100x100", generators::mesh(100, 100)),
        ("road-100x100", generators::road_network(100, 100, 0.4, 103)),
        ("cycle-4000", generators::cycle(4000)),
    ];
    for (name, g) in &workloads {
        let tau = (g.num_nodes() / 100 / 40).max(1);
        group.bench_function(format!("{name}/cluster-approx"), |b| {
            b.iter(|| approximate_diameter(g, &DiameterParams::new(tau, 11)))
        });
        group.bench_function(format!("{name}/bfs-2approx"), |b| {
            b.iter(|| bfs_diameter(g, 11))
        });
        group.bench_function(format!("{name}/exact"), |b| {
            b.iter(|| diameter::exact_diameter(g))
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
    targets = bench_diameter
}
criterion_main!(benches);
