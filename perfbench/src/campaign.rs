//! `campaign_resume`: a journaled campaign of small cells, halted after
//! half of them and resumed from its journal.
//!
//! Each pass gets a fresh journal inside a directory private to the
//! run, and deletes it afterwards: a journal left over from an earlier
//! pass would let the resume replay everything and fake a speed-up.

use crate::check::{check_cell, golden, Checker};
use crate::layers::{self, SelfTimes};
use crate::report::{median, Metrics};
use crate::spans::{SpanId, Tracer};
use crate::{kind_name, PassStats, Workload};
use ballerino_bench::{enumerate_cells, grid_points, run_pool, SimCell};
use ballerino_energy::{DvfsLevel, EnergyModel};
use ballerino_serve::{
    read_journal, run_campaign, CampaignReport, CellRecord, EngineConfig, JournalWriter, Shard,
};
use ballerino_sim::{MachineKind, SimResult, Width};
use ballerino_workloads::workload_names;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// μops per cell: small cells make the engine's per-cell cost visible.
const N: usize = 2_000;
/// Untraced bare-pool / campaign pairs behind `serve.overhead_pct`.
const OVERHEAD_PAIRS: usize = 2;

/// The campaign workload.
pub struct Campaign {
    seed: u64,
    dir: PathBuf,
    cells: Vec<SimCell>,
    index: HashMap<String, usize>,
    /// Canonical reference result per cell, filled by the first pass.
    golden: Vec<String>,
    passes: usize,
    /// The last pass's results, by cell.
    last: Vec<Option<SimResult>>,
    /// `(replayed, executed)` of the last pass's resume.
    resume: (usize, usize),
}

/// A cell's kept result and how many times the cell was executed.
type Slot = (Option<SimResult>, u32);

/// What one halted-then-resumed campaign produced.
struct Outcome {
    first: Result<CampaignReport, String>,
    second: Result<CampaignReport, String>,
    /// Whether the journal file existed before the first pass.
    journal_preexisted: bool,
    /// Results by cell, and how many times each cell was executed.
    results: Vec<Option<SimResult>>,
    runs: Vec<u32>,
}

impl Campaign {
    /// The campaign over the seed's traces; journals go under `dir`.
    pub fn new(seed: u64, dir: &Path) -> Campaign {
        Campaign {
            seed,
            dir: dir.to_path_buf(),
            cells: Vec::new(),
            index: HashMap::new(),
            golden: Vec::new(),
            passes: 0,
            last: Vec::new(),
            resume: (0, 0),
        }
    }

    fn set_cells(&mut self, cells: Vec<SimCell>) {
        self.index = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key(), i))
            .collect();
        self.cells = cells;
    }

    fn engine(&self, halt_after: Option<usize>) -> EngineConfig {
        EngineConfig {
            workers: 1,
            mailbox_cap: 2,
            max_attempts: 1,
            backoff_ms: 0,
            shard: Shard::single(),
            halt_after,
        }
    }

    /// Simulates `c` (under a `sim.run` span), keeps its full result in
    /// `slots` and returns its record: the per-cell work of both the
    /// campaign and the bare pool it is compared against.
    fn run_and_keep(
        &self,
        c: &SimCell,
        slots: &[Mutex<Slot>],
        tr: &Tracer,
        parent: Option<SpanId>,
    ) -> CellRecord {
        let r = tr.tagged("sim.run", kind_name(c.point.kind), parent, |_| c.run());
        let rec = CellRecord::from_result(c.key(), &r);
        if let Some(&i) = self.index.get(&rec.key) {
            let mut slot = slots[i].lock().expect("result slot poisoned");
            slot.0 = Some(r);
            slot.1 += 1;
        }
        rec
    }

    fn slots(&self) -> Vec<Mutex<Slot>> {
        self.cells.iter().map(|_| Mutex::new((None, 0))).collect()
    }

    /// Runs the campaign twice on `journal`: halted at half, then
    /// resumed. Every executed cell's full result is kept for checking.
    fn run_twice(&self, journal: &Path, tr: &Tracer, parent: Option<SpanId>) -> Outcome {
        let journal_preexisted = journal.exists();
        let slots = self.slots();
        let half = self.cells.len() / 2;
        let go = |halt: Option<usize>| {
            tr.span("serve.campaign", parent, |cid| {
                run_campaign(
                    &self.cells,
                    &self.engine(halt),
                    Some(journal),
                    |c| self.run_and_keep(c, &slots, tr, cid),
                    |rec| {
                        black_box(rec);
                    },
                )
            })
        };
        let first = go(Some(half));
        let second = go(None);
        let (results, runs) = slots
            .into_iter()
            .map(|m| m.into_inner().expect("result slot poisoned"))
            .unzip();
        Outcome {
            first,
            second,
            journal_preexisted,
            results,
            runs,
        }
    }

    fn check(&mut self, o: &Outcome, chk: &mut Checker) {
        let total = self.cells.len();
        chk.record(!o.journal_preexisted, || {
            "the first pass did not start from an empty journal".to_string()
        });
        match (&o.first, &o.second) {
            (Ok(a), Ok(b)) => {
                chk.record(a.replayed == 0 && a.halted && a.failed.is_empty(), || {
                    format!(
                        "halted pass: replayed {}, halted {}, failed {:?}",
                        a.replayed, a.halted, a.failed
                    )
                });
                chk.record(
                    b.replayed == a.executed
                        && b.replayed + b.executed == total
                        && b.failed.is_empty()
                        && b.records.len() == total,
                    || {
                        format!(
                            "resume: replayed {} (journaled {}), executed {}, failed {:?}, records {} of {total}",
                            b.replayed, a.executed, b.executed, b.failed, b.records.len()
                        )
                    },
                );
                self.resume = (b.replayed, b.executed);
                for rec in &b.records {
                    let want = self.index.get(&rec.key).and_then(|&i| {
                        let r = o.results[i].as_ref()?;
                        Some(CellRecord::from_result(rec.key.clone(), r))
                    });
                    chk.record(want.as_ref() == Some(rec), || {
                        format!("{}: streamed record differs from its simulation", rec.key)
                    });
                }
            }
            (a, b) => chk.record(false, || {
                format!(
                    "campaign error: {:?} / {:?}",
                    a.as_ref().err(),
                    b.as_ref().err()
                )
            }),
        }
        for (i, cell) in self.cells.iter().enumerate() {
            chk.record(o.runs[i] == 1, || {
                format!("{}: executed {} times", cell.key(), o.runs[i])
            });
            check_cell(chk, cell, o.results[i].as_ref(), &self.golden[i]);
        }
    }
}

impl Workload for Campaign {
    fn traces(&self) -> Vec<(&'static str, usize)> {
        workload_names().into_iter().map(|w| (w, N)).collect()
    }

    fn enumerate(&mut self) {
        let points = grid_points(
            &MachineKind::FIG11,
            &[Width::Two, Width::Four, Width::Eight],
            &[None],
            &[100, 200],
        );
        self.set_cells(enumerate_cells(&points, &workload_names(), N, self.seed));
    }

    fn pass(&mut self, tr: &Tracer, chk: &mut Checker) -> PassStats {
        let journal = self.dir.join(format!("journal-{}.jsonl", self.passes));
        self.passes += 1;
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            chk.record(false, || format!("journal directory: {e}"));
        }

        let t0 = Instant::now();
        let o = tr.span("bench.pass", None, |pid| self.run_twice(&journal, tr, pid));
        let wall_s = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&journal);

        if self.golden.is_empty() {
            self.golden = self.cells.iter().map(golden).collect();
        }
        self.check(&o, chk);
        let uops = o.results.iter().flatten().map(|r| r.committed).sum();
        self.last = o.results;
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

        // Campaign cells are not energy-evaluated; time the energy layer
        // on their results instead.
        let from = tr.mark();
        for (_, r) in &results {
            tr.span("energy.breakdown", None, |_| {
                black_box(EnergyModel::new(r.sizes, DvfsLevel::L4).breakdown(&r.energy))
            });
        }
        let mut times = pass_times.clone();
        times.extend(layers::per_pass(tr, from..tr.mark(), 1));
        layers::sim_times(&times, &results, m);
        layers::replays(&self.traces(), self.seed, tr, chk, m);
        layers::sweep_absent(m);

        // Journal layer: append every record, then time a campaign whose
        // journal already holds every cell (pure replay).
        let records: Vec<CellRecord> = self
            .cells
            .iter()
            .zip(&self.last)
            .filter_map(|(c, r)| Some(CellRecord::from_result(c.key(), r.as_ref()?)))
            .collect();
        let journal = self.dir.join("journal-replay.jsonl");
        let _ = std::fs::create_dir_all(&self.dir);
        let write_s = tr.span("serve.journal_write", None, |_| {
            let t0 = Instant::now();
            let mut w = JournalWriter::append_to(&journal).expect("journal in the run directory");
            for rec in &records {
                w.write(rec).expect("journal write");
            }
            t0.elapsed().as_secs_f64()
        });
        let (replay_s, read, replay) = tr.span("serve.replay", None, |_| {
            let t0 = Instant::now();
            let read = read_journal(&journal).map_or(0, |r| r.len());
            let slots = self.slots();
            let replay = run_campaign(
                &self.cells,
                &self.engine(None),
                Some(&journal),
                |c| self.run_and_keep(c, &slots, tr, None),
                |_| {},
            );
            (t0.elapsed().as_secs_f64(), read, replay)
        });
        let total = self.cells.len();
        chk.record(
            read == total
                && replay
                    .as_ref()
                    .is_ok_and(|r| r.replayed == total && r.executed == 0),
            || format!("full-journal replay: read {read} of {total} records, report {replay:?}"),
        );
        let _ = std::fs::remove_file(&journal);
        m.push(
            "serve.journal_write_us",
            1e6 * write_s / records.len().max(1) as f64,
            "us",
        );
        m.push("serve.replay_s", replay_s, "s");
        m.push("serve.replayed", self.resume.0 as f64, "count");
        m.push("serve.executed", self.resume.1 as f64, "count");

        // Engine overhead: the same cells on a bare one-worker pool,
        // interleaved with untraced campaign passes.
        let off = Tracer::new(false, 0);
        let (mut bare, mut engine) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PAIRS {
            let slots = self.slots();
            let t0 = Instant::now();
            black_box(run_pool(&self.cells, 1, |c| {
                self.run_and_keep(c, &slots, &off, None)
            }));
            bare.push(t0.elapsed().as_secs_f64());
            engine.push(self.pass(&off, chk).wall_s);
        }
        let (bare, engine) = (median(&bare), median(&engine));
        m.push("serve.overhead_pct", 100.0 * (engine - bare) / bare, "%");
        m.push(
            "serve.self_s",
            pass_times
                .get(&("serve.campaign", ""))
                .copied()
                .unwrap_or(0.0),
            "s",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign of eight small cells journaling under a private
    /// directory of the test.
    fn tiny(name: &str) -> Campaign {
        let dir = PathBuf::from(format!(".perfbench_tmp-test-{name}-{}", std::process::id()));
        let mut c = Campaign::new(5, &dir);
        let points = grid_points(
            &[MachineKind::OutOfOrder, MachineKind::Ballerino],
            &[Width::Four],
            &[None],
            &[100, 200],
        );
        c.set_cells(enumerate_cells(
            &points,
            &["hash_join", "int_crunch"],
            500,
            5,
        ));
        c
    }

    #[test]
    fn first_pass_starts_from_an_empty_journal() {
        let mut c = tiny("fresh");
        let off = Tracer::new(false, 0);
        let mut chk = Checker::default();
        c.pass(&off, &mut chk);
        chk.report_failures();
        assert!(chk.attempted() > 0);
        assert_eq!(chk.failed(), 0);
        assert_eq!(c.resume.0 + c.resume.1, c.cells.len());
        assert!(c.resume.0 > 0 && c.resume.1 > 0, "{:?}", c.resume);
        assert!(
            !c.dir.join("journal-0.jsonl").exists(),
            "the pass deletes its journal"
        );
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn a_leftover_journal_counts_as_failed() {
        let mut c = tiny("stale");
        std::fs::create_dir_all(&c.dir).expect("test directory");
        // A complete journal where the next pass will look for its own:
        // the resume would replay every cell without simulating it.
        let mut w = JournalWriter::append_to(&c.dir.join("journal-0.jsonl")).expect("journal");
        for cell in &c.cells {
            w.write(&CellRecord::from_result(cell.key(), &cell.run()))
                .expect("journal write");
        }
        let off = Tracer::new(false, 0);
        let mut chk = Checker::default();
        c.pass(&off, &mut chk);
        assert!(chk.failed() > 0, "a pass over a stale journal must fail");
        let _ = std::fs::remove_dir_all(&c.dir);
    }
}
