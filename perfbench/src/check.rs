//! Output checks: every simulated cell against the frozen reference
//! pipeline, with failures counted against the number attempted.

use ballerino_bench::SimCell;
use ballerino_sim::core_ref::CoreRef;
use ballerino_sim::{build_scheduler_point, run_machine_reference, SimResult};
use ballerino_workloads::cached_workload;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `SimResult` fields that record host throughput rather than simulated
/// behaviour, dropped from the comparison by name. They are matched in
/// the result's debug rendering instead of read as fields, so the check
/// keeps compiling (and keeps comparing everything else) when the
/// simulator drops or renames any of them.
const INSTRUMENTATION_FIELDS: [&str; 7] = [
    "host_wall_s",
    "cycles_skipped",
    "cycles_macro",
    "cycles_block",
    "blocks_built",
    "blocks_invalidated",
    "block_len_hist",
];

/// Counts checks made and failed; keeps the first few failure notes.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    /// Records one check; `note` describes a failure.
    pub fn record(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }

    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Prints the kept failure notes to stderr.
    pub fn report_failures(&self) {
        for n in &self.notes {
            eprintln!("perfbench: FAILED {n}");
        }
        if self.failed > self.notes.len() as u64 {
            eprintln!(
                "perfbench: ... {} more failures",
                self.failed - self.notes.len() as u64
            );
        }
    }
}

/// The comparable form of a result: its debug rendering with the
/// top-level [`INSTRUMENTATION_FIELDS`] removed.
pub fn canonical(r: &SimResult) -> String {
    let text = format!("{r:?}");
    let (Some(open), Some(close)) = (text.find('{'), text.rfind('}')) else {
        return text;
    };
    let kept: Vec<&str> = split_top_level(&text[open + 1..close])
        .into_iter()
        .map(str::trim)
        .filter(|f| {
            let name = f.split(':').next().unwrap_or("").trim();
            !INSTRUMENTATION_FIELDS.contains(&name)
        })
        .collect();
    format!("{}{{ {} }}", &text[..open], kept.join(", "))
}

/// Splits `s` at commas outside brackets and string literals.
fn split_top_level(s: &str) -> Vec<&str> {
    let (mut parts, mut depth, mut start) = (Vec::new(), 0i32, 0usize);
    let (mut in_str, mut escaped) = (false, false);
    for (i, c) in s.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Simulates `cell` on the frozen reference pipeline (`CoreRef`). A
/// preset point runs exactly as `run_machine_reference` does; a point
/// with an IQ or DRAM override runs `CoreRef` around the same
/// configuration and scheduler `run_point` builds.
pub fn reference(cell: &SimCell) -> SimResult {
    let trace = cached_workload(cell.workload, cell.n, cell.seed);
    let p = cell.point;
    if p.iq_entries.is_none() && p.dram_scale_pct == 100 {
        run_machine_reference(p.kind, p.width, &trace)
    } else {
        let (cfg, sched, sizes) = build_scheduler_point(&p);
        CoreRef::new(cfg, sched, sizes).run(&trace)
    }
}

/// The canonical reference result of `cell`; a reference run that
/// panics yields a value no result matches.
pub fn golden(cell: &SimCell) -> String {
    catch_unwind(AssertUnwindSafe(|| canonical(&reference(cell))))
        .unwrap_or_else(|_| "the reference pipeline panicked".to_string())
}

/// Checks one cell's result: it exists (the run did not panic), it
/// committed the whole trace, and it equals `golden` (a [`canonical`]
/// result) in every simulated statistic.
pub fn check_cell(chk: &mut Checker, cell: &SimCell, got: Option<&SimResult>, golden: &str) {
    let verdict = match got {
        None => Err("panicked".to_string()),
        Some(r) if r.committed != cell.n as u64 => {
            Err(format!("committed {} of {} μops", r.committed, cell.n))
        }
        Some(r) if canonical(r) != golden => Err("differs from the reference".to_string()),
        Some(_) => Ok(()),
    };
    let ok = verdict.is_ok();
    chk.record(ok, || format!("{}: {}", cell.key(), verdict.unwrap_err()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_sim::{DesignPoint, MachineKind, Width};

    fn small_cell(kind: MachineKind) -> SimCell {
        SimCell {
            point: DesignPoint::new(kind, Width::Eight),
            workload: "hash_join",
            n: 600,
            seed: 3,
        }
    }

    #[test]
    fn canonical_drops_only_instrumentation() {
        let r = small_cell(MachineKind::OutOfOrder).run();
        let c = canonical(&r);
        assert!(c.starts_with("SimResult { scheduler: "), "{c}");
        assert!(c.contains("cycles: ") && c.contains("energy: "), "{c}");
        for f in INSTRUMENTATION_FIELDS {
            assert!(!c.contains(&format!(" {f}: ")), "{f} kept in {c}");
        }
        let mut timed = r.clone();
        timed.host_wall_s += 1.0;
        assert_eq!(canonical(&timed), c);
    }

    #[test]
    fn live_pipeline_matches_reference() {
        let mut chk = Checker::default();
        for kind in MachineKind::FIG11 {
            let cell = small_cell(kind);
            check_cell(
                &mut chk,
                &cell,
                Some(&cell.run()),
                &canonical(&reference(&cell)),
            );
        }
        let cell = SimCell {
            point: DesignPoint {
                dram_scale_pct: 200,
                ..DesignPoint::new(MachineKind::Ballerino, Width::Four)
            },
            ..small_cell(MachineKind::Ballerino)
        };
        check_cell(
            &mut chk,
            &cell,
            Some(&cell.run()),
            &canonical(&reference(&cell)),
        );
        chk.report_failures();
        assert_eq!((chk.attempted(), chk.failed()), (10, 0));
    }

    #[test]
    fn perturbed_results_count_as_failed() {
        let cell = small_cell(MachineKind::Ballerino);
        let r = cell.run();
        let golden = canonical(&reference(&cell));
        let mut chk = Checker::default();
        check_cell(&mut chk, &cell, Some(&r), &golden);
        assert_eq!(chk.failed(), 0);

        let mut cycles = r.clone();
        cycles.cycles += 1;
        check_cell(&mut chk, &cell, Some(&cycles), &golden);
        let mut energy = r.clone();
        energy.energy.prf_reads += 1;
        check_cell(&mut chk, &cell, Some(&energy), &golden);
        let mut short = r.clone();
        short.committed -= 1;
        check_cell(&mut chk, &cell, Some(&short), &golden);
        check_cell(&mut chk, &cell, None, &golden);
        assert_eq!((chk.attempted(), chk.failed()), (5, 4));

        let mut timed = r.clone();
        timed.host_wall_s *= 2.0;
        check_cell(&mut chk, &cell, Some(&timed), &golden);
        assert_eq!(chk.failed(), 4, "host time is not a simulated statistic");
    }
}
