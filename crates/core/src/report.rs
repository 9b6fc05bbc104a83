//! Performance, energy and area reports for accelerator runs.

use crate::msgs::MsgsStats;
use crate::trace::StageCycles;
use defa_arch::{AreaBreakdown, EnergyBreakdown, EventCounters};
use defa_model::workload::Benchmark;
use defa_prune::ReductionStats;
use std::fmt;

/// The result of running one benchmark workload through the accelerator.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which benchmark ran.
    pub benchmark: Benchmark,
    /// Aggregate hardware activity.
    pub counters: EventCounters,
    /// Aggregate MSGS statistics.
    pub msgs: MsgsStats,
    /// Energy split by component.
    pub energy: EnergyBreakdown,
    /// Core area of the simulated design.
    pub area: AreaBreakdown,
    /// Algorithm-level pruning statistics.
    pub reduction: ReductionStats,
    /// Per-stage cycle timeline summed over all blocks.
    pub stages: StageCycles,
    /// Relative L2 error of the pruned output vs. the exact encoder
    /// (`None` when the exact reference was not evaluated).
    pub fidelity_error: Option<f32>,
    /// Dense-equivalent attention FLOPs the run completed (the numerator
    /// of effective-throughput metrics, as sparse accelerators report).
    pub dense_flops: u64,
    /// Clock frequency used for time conversion.
    pub clock_hz: u64,
}

impl RunReport {
    /// Wall-clock seconds of the run.
    pub fn seconds(&self) -> f64 {
        self.counters.seconds_at(self.clock_hz)
    }

    /// Effective throughput in GOPS (dense-equivalent work / time; 0 for an
    /// empty run).
    pub fn effective_gops(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            0.0
        } else {
            self.dense_flops as f64 / s / 1e9
        }
    }

    /// Average power in watts (dynamic energy / time; 0 for an empty run —
    /// a zero-cycle run consumed no time, not astronomical power).
    pub fn average_power_w(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            0.0
        } else {
            self.energy.total_joules() / s
        }
    }

    /// Energy efficiency in GOPS/W: work per energy, which both divides the
    /// run's seconds away — so it is defined whenever any energy was spent,
    /// and 0 for a run that spent none.
    pub fn gops_per_watt(&self) -> f64 {
        let joules = self.energy.total_joules();
        if joules == 0.0 {
            0.0
        } else {
            self.dense_flops as f64 / 1e9 / joules
        }
    }

    /// Energy per encoder inference in millijoules.
    pub fn energy_per_run_mj(&self) -> f64 {
        self.energy.total_joules() * 1e3
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DEFA run report — {}", self.benchmark)?;
        writeln!(f, "  cycles          : {}", self.counters.total_cycles())?;
        writeln!(f, "  time            : {:.3} ms", self.seconds() * 1e3)?;
        writeln!(f, "  effective GOPS  : {:.1}", self.effective_gops())?;
        writeln!(f, "  avg power       : {:.1} mW", self.average_power_w() * 1e3)?;
        writeln!(f, "  efficiency      : {:.0} GOPS/W", self.gops_per_watt())?;
        writeln!(f, "  energy          : {:.3} mJ", self.energy_per_run_mj())?;
        let (dram, sram, logic) = self.energy.shares();
        writeln!(
            f,
            "  energy shares   : DRAM {:.1}% / SRAM {:.1}% / logic {:.1}%",
            dram * 100.0,
            sram * 100.0,
            logic * 100.0
        )?;
        writeln!(f, "  core area       : {:.2} mm²", self.area.total_mm2())?;
        writeln!(
            f,
            "  pruning         : points -{:.1}% / pixels -{:.1}% / FLOPs -{:.1}%",
            self.reduction.point_reduction() * 100.0,
            self.reduction.pixel_reduction() * 100.0,
            self.reduction.flop_reduction() * 100.0
        )?;
        if let Some(err) = self.fidelity_error {
            writeln!(f, "  fidelity error  : {err:.4}")?;
        }
        writeln!(f, "  bank conflicts  : {}", self.counters.bank_conflicts)?;
        let (stage, cycles) = self.stages.bottleneck();
        writeln!(
            f,
            "  bottleneck      : {stage} ({:.1}% of cycles); MSGS share {:.1}%",
            cycles as f64 / self.stages.total().max(1) as f64 * 100.0,
            self.stages.msgs_fraction() * 100.0
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunReport {
        RunReport {
            benchmark: Benchmark::DeformableDetr,
            counters: EventCounters { mm_cycles: 400_000, ..Default::default() },
            msgs: MsgsStats::default(),
            energy: EnergyBreakdown { pe_pj: 1e9, softmax_pj: 0.0, sram_pj: 1e9, dram_pj: 8e9 },
            area: AreaBreakdown { sram_mm2: 1.9, pe_softmax_mm2: 0.6, other_mm2: 0.13 },
            reduction: ReductionStats::default(),
            stages: StageCycles { attn_proj: 100, ..Default::default() },
            fidelity_error: Some(0.1),
            dense_flops: 1_000_000_000,
            clock_hz: 400_000_000,
        }
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let r = dummy();
        assert!((r.seconds() - 1e-3).abs() < 1e-9);
        assert!((r.effective_gops() - 1000.0).abs() < 1.0);
        // 10 mJ over 1 ms = 10 W.
        assert!((r.average_power_w() - 10.0).abs() < 1e-6);
        assert!((r.gops_per_watt() - 100.0).abs() < 0.1);
    }

    #[test]
    fn zero_cycle_run_reports_zero_rates_not_infinities() {
        // Regression: the old `.max(1e-18)` guard made an empty run report
        // ~1e18x inflated power/fps, and gops_per_watt inherited the
        // nonsense. Empty means zero, full stop.
        let r = RunReport {
            counters: EventCounters::default(),
            energy: EnergyBreakdown::default(),
            dense_flops: 0,
            ..dummy()
        };
        assert_eq!(r.seconds(), 0.0);
        assert_eq!(r.effective_gops(), 0.0);
        assert_eq!(r.average_power_w(), 0.0);
        assert_eq!(r.gops_per_watt(), 0.0);
        // Zero time but nonzero (e.g. static) energy must still not panic
        // or explode: power is undefined-as-zero, efficiency well-defined.
        let r = RunReport { counters: EventCounters::default(), ..dummy() };
        assert_eq!(r.average_power_w(), 0.0);
        assert!((r.gops_per_watt() - 100.0).abs() < 0.1);
    }

    #[test]
    fn display_mentions_key_sections() {
        let s = dummy().to_string();
        for key in ["cycles", "GOPS", "area", "pruning", "fidelity"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
