//! Simulation results: IPC, scheduling-delay breakdowns (Figs. 3c/12),
//! and all the per-structure statistics the figures consume.

use ballerino_energy::{EnergyEvents, StructureSizes};
use ballerino_mem::MemStats;
use ballerino_sched::{HeadStateStats, IssueBreakdown, SteerStats};

/// Instruction class of Fig. 3c: loads, load-dependents, and the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingClass {
    /// Loads.
    Ld,
    /// μops directly or transitively dependent on an incomplete older
    /// load at dispatch.
    LdC,
    /// Everything else.
    Rst,
}

/// All classes in display order.
pub const TIMING_CLASSES: [TimingClass; 3] = [TimingClass::Ld, TimingClass::LdC, TimingClass::Rst];

impl TimingClass {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TimingClass::Ld => "Ld",
            TimingClass::LdC => "LdC",
            TimingClass::Rst => "Rst",
        }
    }
}

/// Accumulated decode→dispatch→ready→issue delays per class.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingBreakdown {
    sums: [[u64; 3]; 3], // [class][segment]
    counts: [u64; 3],
}

impl TimingBreakdown {
    fn idx(c: TimingClass) -> usize {
        match c {
            TimingClass::Ld => 0,
            TimingClass::LdC => 1,
            TimingClass::Rst => 2,
        }
    }

    /// Records one committed μop's delays.
    pub fn record(
        &mut self,
        class: TimingClass,
        decode: u64,
        dispatch: u64,
        ready: u64,
        issue: u64,
    ) {
        let i = Self::idx(class);
        debug_assert!(decode <= dispatch && dispatch <= issue);
        let ready = ready.clamp(dispatch, issue);
        self.sums[i][0] += dispatch - decode;
        self.sums[i][1] += ready - dispatch;
        self.sums[i][2] += issue - ready;
        self.counts[i] += 1;
    }

    /// Average `(decode→dispatch, dispatch→ready, ready→issue)` cycles
    /// for a class.
    pub fn avg(&self, class: TimingClass) -> (f64, f64, f64) {
        let i = Self::idx(class);
        let n = self.counts[i].max(1) as f64;
        (
            self.sums[i][0] as f64 / n,
            self.sums[i][1] as f64 / n,
            self.sums[i][2] as f64 / n,
        )
    }

    /// Average over all classes combined.
    pub fn avg_all(&self) -> (f64, f64, f64) {
        let n: u64 = self.counts.iter().sum();
        let n = n.max(1) as f64;
        let seg = |s: usize| self.sums.iter().map(|row| row[s]).sum::<u64>() as f64 / n;
        (seg(0), seg(1), seg(2))
    }

    /// Committed μops recorded for a class.
    pub fn count(&self, class: TimingClass) -> u64 {
        self.counts[Self::idx(class)]
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheduler name (e.g. `"ooo"`, `"ballerino-12"`).
    pub scheduler: String,
    /// Workload name.
    pub workload: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// μops committed.
    pub committed: u64,
    /// Branch mispredictions observed.
    pub mispredicts: u64,
    /// Memory-order violation squashes.
    pub violations: u64,
    /// Dispatch-stall cycles (scheduler refused).
    pub dispatch_stalls: u64,
    /// Dispatch slots lost per structural reason:
    /// `[rob, lq, sq, regs, sched]`.
    pub stall_reasons: [u64; 5],
    /// Per-class scheduling-delay breakdown.
    pub timing: TimingBreakdown,
    /// Which structure issued each μop.
    pub issue_breakdown: IssueBreakdown,
    /// Steering outcomes (CES/Ballerino).
    pub steer: SteerStats,
    /// P-IQ head states (CES/Ballerino).
    pub heads: HeadStateStats,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
    /// Energy micro-events.
    pub energy: EnergyEvents,
    /// Structure sizes for the energy model's leakage terms.
    pub sizes: StructureSizes,
    /// Core frequency (GHz) the run represents.
    pub freq_ghz: f64,
    /// Host wall-clock seconds the simulation itself took (throughput
    /// instrumentation; excludes trace generation).
    pub host_wall_s: f64,
    /// Cycles the event-horizon engine fast-forwarded instead of stepping
    /// (throughput instrumentation; a subset of `cycles`). Always zero on
    /// the reference core and when `skip_idle` is off.
    pub cycles_skipped: u64,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Speedup versus a baseline run of the same workload, in execution
    /// time (accounts for frequency differences).
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        base.seconds() / self.seconds()
    }

    /// Simulator throughput: committed μops per host wall-clock second.
    pub fn sim_uops_per_sec(&self) -> f64 {
        if self.host_wall_s > 0.0 {
            self.committed as f64 / self.host_wall_s
        } else {
            0.0
        }
    }

    /// Simulator throughput: simulated cycles per host wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.host_wall_s > 0.0 {
            self.cycles as f64 / self.host_wall_s
        } else {
            0.0
        }
    }
}

/// Geometric mean over a slice of positive values.
pub fn geomean(vals: &[f64]) -> f64 {
    assert!(!vals.is_empty(), "geomean of empty slice");
    let s: f64 = vals.iter().map(|v| v.ln()).sum();
    (s / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_breakdown_averages_segments() {
        let mut t = TimingBreakdown::default();
        t.record(TimingClass::Ld, 0, 2, 5, 9);
        t.record(TimingClass::Ld, 10, 12, 12, 14);
        let (d2d, d2r, r2i) = t.avg(TimingClass::Ld);
        assert_eq!(d2d, 2.0);
        assert_eq!(d2r, 1.5);
        assert_eq!(r2i, 3.0);
        assert_eq!(t.count(TimingClass::Ld), 2);
    }

    #[test]
    fn ready_is_clamped_into_dispatch_issue_range() {
        let mut t = TimingBreakdown::default();
        // Ready before dispatch (ready-at-dispatch μop).
        t.record(TimingClass::Rst, 0, 4, 1, 6);
        let (_, d2r, r2i) = t.avg(TimingClass::Rst);
        assert_eq!(d2r, 0.0);
        assert_eq!(r2i, 2.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }
}
