//! `design_sweep`: the tiered design-space sweep over the full grid
//! (every sweep kind × 4 widths × 7 IQ budgets × 9 DRAM grades) on a
//! trimmed workload list: tier-0 triage of every point, then
//! cycle-accurate promotion until the frontier is certified.

use crate::check::Checker;
use crate::layers::{self, SelfTimes};
use crate::matrix::run_evaluated;
use crate::report::{median, Metrics};
use crate::spans::Tracer;
use crate::{PassStats, Workload};
use ballerino_analytic::{predict_cycles, MachineParams};
use ballerino_bench::{
    enumerate_cells, pareto_indices, point_cost, run_pool, run_sweep, tier0_scores, SimCell,
    SweepOutcome, SweepSpec,
};
use ballerino_sim::{DesignPoint, MachineKind, SimResult};
use ballerino_workloads::{cached_dag, cached_features};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One compute-bound and one DRAM-bound workload, small traces: the
/// exhaustive check simulates every grid point on both.
const WORKLOADS: [&str; 2] = ["int_crunch", "pointer_chase"];
const N: usize = 1_500;

/// The sweep workload.
pub struct Sweep {
    spec: SweepSpec,
    points: Vec<DesignPoint>,
    /// The first pass's outcome, checked against exhaustive simulation;
    /// later passes must reproduce it exactly.
    first: Option<SweepOutcome>,
    /// `bench.sweep.tier0_s` / `bench.sweep.sim_s` of every pass.
    tier0_s: Vec<f64>,
    sim_s: Vec<f64>,
}

impl Sweep {
    /// The sweep over the full grid with the seed's traces.
    pub fn new(seed: u64) -> Sweep {
        Sweep {
            spec: SweepSpec {
                workloads: WORKLOADS.to_vec(),
                n: N,
                seed,
                ..SweepSpec::full()
            },
            points: Vec::new(),
            first: None,
            tier0_s: Vec::new(),
            sim_s: Vec::new(),
        }
    }

    /// The cells of `points` on the spec's workloads, point-major.
    fn cells(&self, points: &[DesignPoint]) -> Vec<SimCell> {
        enumerate_cells(points, &self.spec.workloads, self.spec.n, self.spec.seed)
    }

    /// Simulates every grid point and checks the promoted frontier
    /// against the exhaustive one, and every promoted point's cycles
    /// against its exhaustive simulation.
    fn check_exhaustive(&self, o: &SweepOutcome, chk: &mut Checker) {
        let cells = self.cells(&o.points);
        let results = run_pool(&cells, 1, |c| {
            catch_unwind(AssertUnwindSafe(|| c.run())).ok()
        });
        for (c, r) in cells.iter().zip(&results) {
            let ok = r.as_ref().is_some_and(|r| r.committed == c.n as u64);
            chk.record(ok, || format!("{}: panicked or short commit", c.key()));
        }
        let per_point: Vec<u64> = results
            .chunks(self.spec.workloads.len())
            .map(|ch| ch.iter().flatten().map(|r| r.cycles).sum())
            .collect();
        let exhaustive = pareto_indices(&o.costs, &per_point);
        let promoted_ok = o
            .promoted
            .iter()
            .all(|&i| o.sim_cycles[i] == Some(per_point[i]));
        let frontier = o.simulated_frontier();
        chk.record(frontier == exhaustive && promoted_ok, || {
            format!(
                "sweep frontier {:?} differs from the exhaustive {:?} (promoted cycles match: {promoted_ok})",
                frontier, exhaustive
            )
        });
    }
}

impl Workload for Sweep {
    fn traces(&self) -> Vec<(&'static str, usize)> {
        self.spec
            .workloads
            .iter()
            .map(|&w| (w, self.spec.n))
            .collect()
    }

    fn needs_features(&self) -> bool {
        true
    }

    fn enumerate(&mut self) {
        self.points = self.spec.points();
        black_box(self.points.iter().map(point_cost).sum::<u64>());
    }

    fn pass(&mut self, tr: &Tracer, chk: &mut Checker) -> PassStats {
        let t0 = Instant::now();
        let outcome = tr.span("bench.pass", None, |pid| {
            tr.span("bench.sweep", pid, |_| {
                catch_unwind(AssertUnwindSafe(|| run_sweep(&self.spec))).ok()
            })
        });
        let wall_s = t0.elapsed().as_secs_f64();

        let Some(o) = outcome else {
            chk.record(false, || "run_sweep panicked".to_string());
            return PassStats { wall_s, uops: 0 };
        };
        self.tier0_s.push(o.tier0_wall_s);
        self.sim_s.push(o.sim_wall_s);
        let uops = (o.promoted.len() * self.spec.workloads.len() * self.spec.n) as u64;
        match &self.first {
            None => {
                self.check_exhaustive(&o, chk);
                self.first = Some(o);
            }
            Some(f) => chk.record(
                f.promoted == o.promoted
                    && f.sim_cycles == o.sim_cycles
                    && f.est_cycles == o.est_cycles,
                || "sweep outcome differs between passes".to_string(),
            ),
        }
        PassStats { wall_s, uops }
    }

    fn layers(&mut self, tr: &Tracer, _pass_times: &SelfTimes, chk: &mut Checker, m: &mut Metrics) {
        let Some(o) = self.first.take() else {
            layers::sweep_absent(m);
            layers::serve_absent(m);
            return;
        };
        // The simulator and energy layers on the promoted cells, which
        // run_sweep simulates internally.
        let promoted: Vec<DesignPoint> = o.promoted.iter().map(|&i| o.points[i]).collect();
        let cells = self.cells(&promoted);
        let from = tr.mark();
        let results: Vec<Option<SimResult>> = tr.span("bench.pass", None, |pid| {
            run_pool(&cells, 1, |c| run_evaluated(c, tr, pid))
        });
        let times = layers::per_pass(tr, from..tr.mark(), 1);
        let results: Vec<(MachineKind, &SimResult)> = cells
            .iter()
            .zip(&results)
            .filter_map(|(c, r)| Some((c.point.kind, r.as_ref()?)))
            .collect();
        chk.record(results.len() == cells.len(), || {
            "a promoted cell panicked on re-simulation".to_string()
        });
        layers::sim_counts(&results, m);
        layers::sim_times(&times, &results, m);
        layers::replays(&self.traces(), self.spec.seed, tr, chk, m);

        let s = tr.span("analytic.tier0", None, |_| {
            let t0 = Instant::now();
            black_box(tier0_scores(&self.spec, &o.points));
            t0.elapsed().as_secs_f64()
        });
        m.push("analytic.tier0_s", s, "s");
        let inputs: Vec<_> = self
            .spec
            .workloads
            .iter()
            .map(|&w| {
                let (n, seed) = (self.spec.n, self.spec.seed);
                (cached_dag(w, n, seed), cached_features(w, n, seed), w)
            })
            .collect();
        let params: Vec<MachineParams> = o.points.iter().map(MachineParams::from_point).collect();
        let s = tr.span("analytic.predict", None, |_| {
            let t0 = Instant::now();
            for p in &params {
                for (dag, feat, w) in &inputs {
                    black_box(predict_cycles(p, dag, feat, w));
                }
            }
            t0.elapsed().as_secs_f64()
        });
        m.push(
            "analytic.predict_us",
            1e6 * s / (params.len() * inputs.len()) as f64,
            "us",
        );
        m.push("bench.sweep.tier0_s", median(&self.tier0_s), "s");
        m.push("bench.sweep.sim_s", median(&self.sim_s), "s");
        m.push("promoted_points", o.promoted.len() as f64, "count");
        let errs: Vec<f64> = o
            .promoted
            .iter()
            .filter_map(|&i| {
                let sim = o.sim_cycles[i]? as f64;
                Some(100.0 * (o.est_cycles[i] as f64 - sim).abs() / sim)
            })
            .collect();
        m.push(
            "tier0_err_mean_pct",
            errs.iter().sum::<f64>() / errs.len().max(1) as f64,
            "%",
        );
        m.push(
            "tier0_err_worst_pct",
            errs.iter().copied().fold(0.0, f64::max),
            "%",
        );
        layers::serve_absent(m);
    }
}
