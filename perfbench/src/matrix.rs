//! `dense_compute` and `memory_bound`: the nine Fig. 11 machine kinds,
//! 8-wide, each simulated on four workloads; every cell's energy
//! breakdown and IPC are then evaluated, as the fig11/fig15 binaries do.

use crate::check::{check_cell, golden, Checker};
use crate::layers::SelfTimes;
use crate::report::Metrics;
use crate::spans::{SpanId, Tracer};
use crate::{kind_name, layers, PassStats, Workload};
use ballerino_bench::{enumerate_cells, grid_points, run_pool, SimCell};
use ballerino_energy::{DvfsLevel, EnergyModel};
use ballerino_sim::{MachineKind, SimResult, Width};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// μops per trace: one pass is about a second of simulation on a
/// 3 GHz-class core.
const N: usize = 50_000;

/// A kind × workload matrix.
pub struct Matrix {
    traces: [&'static str; 4],
    seed: u64,
    cells: Vec<SimCell>,
    /// Canonical reference result per cell, filled by the first pass.
    golden: Vec<String>,
    /// The last pass's results, for the per-layer counts.
    last: Vec<Option<SimResult>>,
}

impl Matrix {
    /// L1-resident compute: the stepped pipeline and the scheduler's
    /// select/wakeup do the work.
    pub fn dense_compute(seed: u64) -> Matrix {
        Matrix::new(
            ["gemm_blocked", "int_crunch", "mixed_media", "compress_lz"],
            seed,
        )
    }

    /// DRAM-bound: the skip engine and the memory hierarchy do the work.
    pub fn memory_bound(seed: u64) -> Matrix {
        Matrix::new(
            ["pointer_chase", "graph_bfs", "hash_join", "sparse_spmv"],
            seed,
        )
    }

    fn new(traces: [&'static str; 4], seed: u64) -> Matrix {
        Matrix {
            traces,
            seed,
            cells: Vec::new(),
            golden: Vec::new(),
            last: Vec::new(),
        }
    }
}

/// Simulates one cell and evaluates its energy and IPC; `None` if the
/// simulator panicked.
pub fn run_evaluated(cell: &SimCell, tr: &Tracer, parent: Option<SpanId>) -> Option<SimResult> {
    catch_unwind(AssertUnwindSafe(|| {
        let r = tr.tagged("sim.run", kind_name(cell.point.kind), parent, |_| {
            cell.run()
        });
        let joules = tr.span("energy.breakdown", parent, |_| {
            EnergyModel::new(r.sizes, DvfsLevel::L4)
                .breakdown(&r.energy)
                .total()
        });
        black_box((joules, r.ipc()));
        r
    }))
    .ok()
}

impl Workload for Matrix {
    fn traces(&self) -> Vec<(&'static str, usize)> {
        self.traces.iter().map(|&t| (t, N)).collect()
    }

    fn enumerate(&mut self) {
        let points = grid_points(&MachineKind::FIG11, &[Width::Eight], &[None], &[100]);
        self.cells = enumerate_cells(&points, &self.traces, N, self.seed);
    }

    fn pass(&mut self, tr: &Tracer, chk: &mut Checker) -> PassStats {
        let t0 = Instant::now();
        let results = tr.span("bench.pass", None, |pid| {
            run_pool(&self.cells, 1, |c| run_evaluated(c, tr, pid))
        });
        let wall_s = t0.elapsed().as_secs_f64();

        if self.golden.is_empty() {
            self.golden = self.cells.iter().map(golden).collect();
        }
        for ((cell, r), golden) in self.cells.iter().zip(&results).zip(&self.golden) {
            check_cell(chk, cell, r.as_ref(), golden);
        }
        let uops = results.iter().flatten().map(|r| r.committed).sum();
        self.last = results;
        PassStats { wall_s, uops }
    }

    fn layers(&mut self, tr: &Tracer, pass_times: &SelfTimes, chk: &mut Checker, m: &mut Metrics) {
        let results: Vec<(MachineKind, &SimResult)> = self
            .cells
            .iter()
            .zip(&self.last)
            .filter_map(|(c, r)| Some((c.point.kind, r.as_ref()?)))
            .collect();
        layers::sim_counts(&results, m);
        layers::sim_times(pass_times, &results, m);
        layers::replays(&self.traces(), self.seed, tr, chk, m);
        layers::sweep_absent(m);
        layers::serve_absent(m);
    }
}
