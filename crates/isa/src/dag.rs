//! Pre-resolved dependence/latency DAG over a [`Trace`].
//!
//! The per-cycle pipeline discovers register dependences incrementally at
//! rename time: each μop looks up its architectural sources in the map
//! table, which points at the youngest older producer. That discovery is
//! pure — it depends only on program order and the μop stream — so a
//! [`TraceDag`] resolves it **once per trace**: for every trace index it
//! records the producing trace index of each register source, the
//! execution latency and functional-unit class, and whether the μop starts
//! a new instruction-cache line relative to its predecessor. The tier-0 analytic estimator (`ballerino-analytic`)
//! reasons over these facts without simulating a cycle, and harnesses
//! memoize the resolution through `ballerino_workloads::TraceCache`.
//!
//! The DAG is keyed by **trace index**, not by dynamic sequence number:
//! after a pipeline squash the same trace index is re-fetched under a new
//! seq, and the dependence structure is unchanged — so trace-index keys
//! survive squashes where seq keys would not.

use crate::op::OpClass;
use crate::ports::FuKind;
use crate::regs::NUM_ARCH_REGS;
use crate::trace::Trace;

/// Instruction-cache line size used for `line_cross` flags (bytes).
pub const ICACHE_LINE_BYTES: u64 = 64;

/// Pre-resolved static facts about one μop in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagOp {
    /// For each source slot, the trace index of the youngest older μop
    /// writing that architectural register, or `None` when the slot is
    /// unused or reads an unwritten (live-in) register.
    pub producers: [Option<u32>; 2],
    /// Opcode class.
    pub class: OpClass,
    /// Functional unit the class executes on (the μop's port class).
    pub fu: FuKind,
    /// Execution latency in cycles ([`OpClass::exec_latency`]).
    pub exec_latency: u32,
    /// Whether this μop's pc falls on a different i-cache line than the
    /// previous μop in the trace (`true` for the first μop). Only valid
    /// for sequential fetch — after a redirect the fetch unit must
    /// re-compare real lines.
    pub line_cross: bool,
}

/// A trace pre-resolved into a dependence/latency DAG. Producer→consumer
/// edges are stored forward, as [`DagOp::producers`] (two slots per op).
///
/// # Examples
///
/// ```
/// use ballerino_isa::{ArchReg, MicroOp, Trace, TraceDag};
/// let mut t = Trace::new("demo");
/// t.push(MicroOp::alu(0x0, ArchReg::int(1), [None, None]));
/// t.push(MicroOp::alu(0x4, ArchReg::int(2), [Some(ArchReg::int(1)), None]));
/// let dag = TraceDag::resolve(&t);
/// assert_eq!(dag.op(1).producers, [Some(0), None]);
/// assert!(!dag.op(1).line_cross);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceDag {
    ops: Vec<DagOp>,
}

impl TraceDag {
    /// Resolves a trace into its DAG. O(n) time and memory.
    pub fn resolve(trace: &Trace) -> TraceDag {
        let n = trace.ops.len();
        assert!(n <= u32::MAX as usize, "trace too long for u32 DAG keys");
        let mut ops = Vec::with_capacity(n);
        // Youngest writer of each architectural register, by flat index.
        let mut last_writer = [u32::MAX; NUM_ARCH_REGS as usize];
        let mut prev_line = u64::MAX;

        for (idx, op) in trace.ops.iter().enumerate() {
            let mut producers = [None, None];
            for (slot, src) in op.srcs.iter().enumerate() {
                if let Some(r) = src {
                    let w = last_writer[r.flat() as usize];
                    if w != u32::MAX {
                        producers[slot] = Some(w);
                    }
                }
            }
            let line = op.pc / ICACHE_LINE_BYTES;
            ops.push(DagOp {
                producers,
                class: op.class,
                fu: FuKind::for_class(op.class),
                exec_latency: op.class.exec_latency(),
                line_cross: line != prev_line,
            });
            prev_line = line;
            if let Some(d) = op.dst {
                last_writer[d.flat() as usize] = idx as u32;
            }
        }

        TraceDag { ops }
    }

    /// Number of μops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The pre-resolved facts for trace index `idx`.
    #[inline]
    pub fn op(&self, idx: usize) -> &DagOp {
        &self.ops[idx]
    }

    /// All pre-resolved ops in trace order.
    pub fn ops(&self) -> &[DagOp] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MicroOp;
    use crate::regs::ArchReg;

    fn chain() -> Trace {
        let mut t = Trace::new("chain");
        t.push(MicroOp::alu(0x00, ArchReg::int(1), [None, None]));
        t.push(MicroOp::alu(
            0x04,
            ArchReg::int(2),
            [Some(ArchReg::int(1)), None],
        ));
        t.push(MicroOp::alu(
            0x40,
            ArchReg::int(1),
            [Some(ArchReg::int(1)), Some(ArchReg::int(2))],
        ));
        t.push(MicroOp::alu(
            0x44,
            ArchReg::int(3),
            [Some(ArchReg::int(1)), None],
        ));
        t
    }

    #[test]
    fn producers_track_youngest_writer() {
        let dag = TraceDag::resolve(&chain());
        assert_eq!(dag.op(0).producers, [None, None]);
        assert_eq!(dag.op(1).producers, [Some(0), None]);
        assert_eq!(dag.op(2).producers, [Some(0), Some(1)]);
        // Op 2 overwrote r1, so op 3 reads op 2, not op 0.
        assert_eq!(dag.op(3).producers, [Some(2), None]);
    }

    #[test]
    fn line_cross_marks_line_boundaries() {
        let dag = TraceDag::resolve(&chain());
        assert!(dag.op(0).line_cross, "first op always crosses");
        assert!(!dag.op(1).line_cross);
        assert!(dag.op(2).line_cross, "0x40 starts a new 64B line");
        assert!(!dag.op(3).line_cross);
    }

    #[test]
    fn latency_and_fu_match_class() {
        let mut t = Trace::new("mix");
        t.push(MicroOp::compute(
            0x0,
            OpClass::FpMul,
            ArchReg::fp(0),
            [None, None],
        ));
        t.push(MicroOp::load(0x4, ArchReg::int(2), None, 0x1000));
        let dag = TraceDag::resolve(&t);
        assert_eq!(dag.op(0).exec_latency, OpClass::FpMul.exec_latency());
        assert_eq!(dag.op(0).fu, FuKind::FpMul);
        assert_eq!(dag.op(1).fu, FuKind::Agu);
        assert_eq!(dag.op(1).producers, [None, None]);
    }

    #[test]
    fn live_in_reads_have_no_producer() {
        let mut t = Trace::new("livein");
        t.push(MicroOp::alu(
            0x0,
            ArchReg::int(1),
            [Some(ArchReg::int(7)), None],
        ));
        let dag = TraceDag::resolve(&t);
        assert_eq!(dag.op(0).producers, [None, None]);
    }

    #[test]
    fn empty_trace_resolves() {
        let dag = TraceDag::resolve(&Trace::new("empty"));
        assert!(dag.is_empty());
        assert_eq!(dag.len(), 0);
    }
}
