//! Golden-path equivalences between independent implementations.

use defa_core::runner::DefaAccelerator;
use defa_model::decoder::{DecoderConfig, DecoderWorkload};
use defa_model::encoder::{run_encoder, run_encoder_from};
use defa_model::reference::generate_locations;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::{FmapPyramid, MsdaConfig, RequestGenerator};
use defa_prune::pipeline::{run_pruned_encoder, run_pruned_encoder_from, PruneSettings};
use defa_tensor::matmul::{matmul, matmul_naive};
use defa_tensor::rng::TensorRng;

/// The pruned pipeline with everything off is the exact encoder: the
/// per-stage driver (all-keep FWP value GEMM, all-keep PAP mask) and the
/// monolithic `forward` run the same stages in the same order, so their
/// final features are bit-identical — on each benchmark's own pyramid at
/// tiny and small scale, and on request pyramids.
#[test]
fn pipeline_disabled_equals_encoder() {
    for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
        for bench in Benchmark::all() {
            let wl = SyntheticWorkload::generate(bench, &cfg, 11).unwrap();
            let a = run_encoder(&wl).unwrap();
            let b = run_pruned_encoder(&wl, &PruneSettings::disabled()).unwrap();
            assert_eq!(b.final_features, a.final_features, "{bench}");
        }
    }
    let gen = RequestGenerator::grid(&MsdaConfig::small(), 42).unwrap();
    for id in 0..9 {
        let req = gen.request(id);
        let wl = gen.scenario(req.scenario).unwrap();
        let a = run_encoder_from(wl, &req.fmap).unwrap();
        let b = run_pruned_encoder_from(wl, &PruneSettings::disabled(), &req.fmap).unwrap();
        assert_eq!(b.final_features, a.final_features, "request {id}");
    }
}

/// `forward` equals its public stages run one by one — the composition
/// the pruned pipeline and staged replays rely on.
#[test]
fn staged_forward_equals_monolithic() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::DnDetr, &cfg, 12).unwrap();
    let layer = wl.layer(0).unwrap();
    let x = wl.initial_fmap();
    let mono = layer.forward(x, Some(wl.warp())).unwrap();
    let (logits, probs) = layer.attention_probs(x).unwrap();
    let offsets = matmul(x.tensor(), &layer.weights().w_offset).unwrap();
    let locations =
        generate_locations(&cfg, layer.references(), &offsets, Some(wl.warp())).unwrap();
    let value = matmul(x.tensor(), &layer.weights().w_value).unwrap();
    let output = layer.sample_and_aggregate(&probs, &locations, &value, None).unwrap();
    assert_eq!(mono.logits, logits);
    assert_eq!(mono.probs, probs);
    assert_eq!(mono.locations, locations);
    assert_eq!(mono.value, value);
    assert_eq!(mono.output, output);
}

/// Blocked GEMM agrees with the naive reference at model-relevant shapes.
#[test]
fn gemm_agrees_at_model_shapes() {
    let mut rng = TensorRng::seed_from(9);
    let cfg = MsdaConfig::tiny();
    let shapes = [
        (cfg.n_in(), cfg.d_model, cfg.points_per_query()),
        (cfg.n_in(), cfg.d_model, 2 * cfg.points_per_query()),
        (cfg.n_in(), cfg.d_model, cfg.d_model),
    ];
    for (m, k, n) in shapes {
        let a = rng.uniform([m, k], -1.0, 1.0);
        let b = rng.uniform([k, n], -1.0, 1.0);
        let fast = matmul(&a, &b).unwrap();
        let gold = matmul_naive(&a, &b).unwrap();
        assert!(fast.relative_l2_error(&gold).unwrap() < 1e-5);
    }
}

/// Sampling locations of the same workload are identical between the
/// monolithic forward and the pruned pipeline (before clamping): the two
/// drivers must generate the same geometry.
#[test]
fn pipelines_agree_on_sampling_geometry() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 13).unwrap();
    let mono = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
    let mut first_block_locations = None;
    defa_prune::pipeline::run_pruned_encoder_observed(
        &wl,
        &PruneSettings { range_narrowing: false, ..PruneSettings::disabled() },
        |k, out, _| {
            if k == 0 {
                first_block_locations = Some(out.locations.clone());
            }
        },
    )
    .unwrap();
    assert_eq!(first_block_locations.unwrap(), mono.locations);
}

/// FNV-1a over the bit patterns of a tensor's elements.
fn tensor_digest(t: &defa_tensor::Tensor) -> u64 {
    t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Tiny encoder memory plus one tiny decoder stack per benchmark.
fn tiny_decoders() -> (FmapPyramid, Vec<DecoderWorkload>) {
    let cfg = MsdaConfig::tiny();
    let enc = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 3).unwrap();
    let memory = FmapPyramid::from_tensor(&cfg, run_encoder(&enc).unwrap().final_features).unwrap();
    let decoders = Benchmark::all()
        .into_iter()
        .map(|bench| DecoderWorkload::generate(bench, &cfg, DecoderConfig::tiny(), 17).unwrap())
        .collect();
    (memory, decoders)
}

/// The decoder's final query embeddings, pinned bit for bit.
#[test]
fn decoder_run_output_is_pinned() {
    let (memory, decoders) = tiny_decoders();
    let digests: Vec<u64> =
        decoders.iter().map(|dec| tensor_digest(&dec.run(&memory).unwrap())).collect();
    assert_eq!(digests, [0x99f7_cb59_69ea_8bde, 0xf4c7_a6a6_38cf_11f9, 0x1072_1f7e_987a_27f8]);
}

/// The decoder on the hardware model, pinned: cycles, MSGS points, bank
/// conflicts and total energy with pruning off and at the paper's
/// operating point.
#[test]
fn decoder_workload_report_is_pinned() {
    let (memory, decoders) = tiny_decoders();
    let accel = DefaAccelerator::paper_default();
    let mut pins = Vec::new();
    for dec in &decoders {
        for settings in [PruneSettings::disabled(), PruneSettings::paper_defaults()] {
            let r = accel.run_decoder_workload(dec, &memory, &settings).unwrap();
            pins.push((
                r.counters.total_cycles(),
                r.msgs.points,
                r.msgs.conflicts,
                r.energy.total_pj().to_bits(),
            ));
        }
    }
    let dense = (264, 192, 0, 0x4100_a801_47ae_147b);
    assert_eq!(
        pins,
        [
            dense,
            (201, 91, 0, 0x40fa_84f1_eb85_1eb8),
            dense,
            (202, 95, 0, 0x40fa_6415_c28f_5c28),
            dense,
            (204, 95, 0, 0x40fa_f4ce_147a_e148),
        ]
    );
}
