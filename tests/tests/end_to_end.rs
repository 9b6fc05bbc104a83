//! End-to-end integration: workload generation → pruning → accelerator →
//! report, across all benchmarks.

use defa_core::runner::DefaAccelerator;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pipeline::PruneSettings;

#[test]
fn every_benchmark_runs_through_the_full_stack() {
    let cfg = MsdaConfig::small();
    let accel = DefaAccelerator::paper_default();
    for bench in Benchmark::all() {
        let wl = SyntheticWorkload::generate(bench, &cfg, 1).unwrap();
        let report = accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert_eq!(report.benchmark, bench);
        assert!(report.counters.total_cycles() > 0, "{bench}: no cycles");
        assert_eq!(report.counters.bank_conflicts, 0, "{bench}: inter-level conflicts");
        assert!(report.energy.total_pj() > 0.0);
        assert!(report.seconds() > 0.0);
        // Paper-band sanity: the pruning rates should be in the right
        // neighborhood on every benchmark.
        let pr = report.reduction.point_reduction();
        assert!(pr > 0.7 && pr < 0.95, "{bench}: point reduction {pr}");
        let px = report.reduction.pixel_reduction();
        assert!(px > 0.2 && px < 0.7, "{bench}: pixel reduction {px}");
        let fl = report.reduction.flop_reduction();
        assert!(fl > 0.3 && fl < 0.8, "{bench}: flop reduction {fl}");
    }
}

#[test]
fn fidelity_error_is_bounded_at_paper_settings() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 2).unwrap();
    let accel = DefaAccelerator::paper_default();
    let report = accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap();
    let err = report.fidelity_error.expect("fidelity measured by default");
    assert!(err > 0.0 && err < 1.2, "fidelity error {err}");
}

#[test]
fn disabling_pruning_yields_near_exact_execution() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::DnDetr, &cfg, 3).unwrap();
    let accel = DefaAccelerator::paper_default();
    let report = accel.run_workload(&wl, &PruneSettings::disabled()).unwrap();
    let err = report.fidelity_error.unwrap();
    assert!(err < 1e-6, "disabled pruning should be exact, err={err}");
    assert_eq!(report.reduction.point_reduction(), 0.0);
}

#[test]
fn deterministic_across_runs() {
    let cfg = MsdaConfig::tiny();
    let accel = DefaAccelerator::paper_default();
    let r1 = {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 7).unwrap();
        accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap()
    };
    let r2 = {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 7).unwrap();
        accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap()
    };
    assert_eq!(r1.counters, r2.counters);
    assert_eq!(r1.fidelity_error, r2.fidelity_error);
}

#[test]
fn different_seeds_change_activity_but_not_structure() {
    let cfg = MsdaConfig::tiny();
    let accel = DefaAccelerator::paper_default();
    let wl1 = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let wl2 = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 2).unwrap();
    let r1 = accel.run_workload(&wl1, &PruneSettings::paper_defaults()).unwrap();
    let r2 = accel.run_workload(&wl2, &PruneSettings::paper_defaults()).unwrap();
    assert_ne!(r1.counters.total_cycles(), r2.counters.total_cycles());
    // Structural quantities stay put.
    assert_eq!(r1.area.total_mm2(), r2.area.total_mm2());
    assert_eq!(r1.dense_flops, r2.dense_flops);
}
