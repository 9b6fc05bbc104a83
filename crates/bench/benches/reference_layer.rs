//! Criterion: functional MSDeformAttn layer evaluation throughput, and the
//! MSGS sample + aggregate stage on its own, dense and PAP-masked.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pap::{point_mask, PapConfig};

fn bench_reference_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("reference_layer");
    for (label, cfg) in [("tiny", MsdaConfig::tiny()), ("small", MsdaConfig::small())] {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
        let layer = wl.layer(0).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                layer.forward(std::hint::black_box(wl.initial_fmap()), Some(wl.warp())).unwrap()
            })
        });
        let out = layer.forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        group.bench_function(&format!("msgs_sample_dense_{label}"), |b| {
            b.iter(|| {
                layer
                    .sample_and_aggregate(
                        &out.probs,
                        std::hint::black_box(&out.locations),
                        &out.value,
                        None,
                    )
                    .unwrap()
            })
        });
        let pmask = point_mask(&out.probs, PapConfig::paper_default()).unwrap();
        group.bench_function(&format!("msgs_sample_pap_{label}"), |b| {
            b.iter(|| {
                layer
                    .sample_and_aggregate(
                        &out.probs,
                        std::hint::black_box(&out.locations),
                        &out.value,
                        Some(pmask.as_bools()),
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reference_layer);
criterion_main!(benches);
