//! Criterion: FWP frequency counting and PAP mask generation.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::fwp::{FwpConfig, SampleFrequency};
use defa_prune::pap::{point_mask, PapConfig};

fn bench_masks(c: &mut Criterion) {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();

    let mut group = c.benchmark_group("mask_generation");
    group.bench_function("fwp_count_and_mask", |b| {
        b.iter(|| {
            let mut f = SampleFrequency::new(&cfg).unwrap();
            f.record_all(&cfg, std::hint::black_box(&out.locations), None).unwrap();
            f.fmap_mask(FwpConfig::paper_default()).unwrap()
        })
    });
    // The pruned pipeline counts only the points PAP kept.
    let pmask = point_mask(&out.probs, PapConfig::paper_default()).unwrap();
    group.bench_function("fwp_count_and_mask_pap", |b| {
        b.iter(|| {
            let mut f = SampleFrequency::new(&cfg).unwrap();
            f.record_all(&cfg, std::hint::black_box(&out.locations), Some(pmask.as_bools()))
                .unwrap();
            f.fmap_mask(FwpConfig::paper_default()).unwrap()
        })
    });
    group.bench_function("pap_threshold", |b| {
        b.iter(|| point_mask(std::hint::black_box(&out.probs), PapConfig::paper_default()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_masks);
criterion_main!(benches);
