//! Producer-location tracking (the P-SCB extension of §IV-C).
//!
//! For dependence-based steering (CES and Ballerino), each physical
//! register carries — besides readiness — the index of the P-IQ where its
//! producer currently waits, and a `Reserved` flag set once a consumer has
//! been steered behind it (only tails are eligible steering targets, so a
//! second consumer constitutes a chain split and must allocate a new
//! P-IQ).

use ballerino_isa::PhysReg;

/// Location record for one physical register's producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocEntry {
    /// Index of the P-IQ (and partition, encoded by the owner) holding the
    /// producer, if it is still waiting in a P-IQ.
    pub iq_index: Option<u16>,
    /// Set when a consumer has already been steered behind the producer.
    pub reserved: bool,
}

/// Producer-location table indexed by physical register.
#[derive(Debug, Clone)]
pub struct LocTable {
    entries: Vec<LocEntry>,
    /// Table reads performed (energy accounting). Steering walks read
    /// through [`LocTable::peek`] and charge their reads here once they
    /// are performed.
    pub reads: u64,
    /// Table writes performed.
    pub writes: u64,
}

impl LocTable {
    /// Creates a table for `n` physical registers.
    pub fn new(n: usize) -> Self {
        LocTable {
            entries: vec![LocEntry::default(); n],
            reads: 0,
            writes: 0,
        }
    }

    /// Reads the entry for `p` without counting.
    pub fn peek(&self, p: PhysReg) -> LocEntry {
        self.entries[p.index()]
    }

    /// Records that `p`'s producer sits at the tail of P-IQ `iq`.
    pub fn set_location(&mut self, p: PhysReg, iq: u16) {
        self.writes += 1;
        self.entries[p.index()] = LocEntry {
            iq_index: Some(iq),
            reserved: false,
        };
    }

    /// Marks that a consumer was steered behind `p`'s producer.
    pub fn reserve(&mut self, p: PhysReg) {
        self.writes += 1;
        self.entries[p.index()].reserved = true;
    }

    /// Clears the entry (producer completed execution or was squashed).
    pub fn clear(&mut self, p: PhysReg) {
        self.writes += 1;
        self.entries[p.index()] = LocEntry::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_reserve_clear_cycle() {
        let mut t = LocTable::new(8);
        let p = PhysReg(2);
        assert_eq!(t.peek(p), LocEntry::default());
        t.set_location(p, 3);
        assert_eq!(
            t.peek(p),
            LocEntry {
                iq_index: Some(3),
                reserved: false
            }
        );
        t.reserve(p);
        assert!(t.peek(p).reserved);
        t.clear(p);
        assert_eq!(t.peek(p), LocEntry::default());
    }

    #[test]
    fn counters_track_accesses() {
        let mut t = LocTable::new(4);
        let p = PhysReg(0);
        t.set_location(p, 0);
        t.reserve(p);
        let _ = t.peek(p);
        assert_eq!(t.reads, 0, "peeks are charged by their caller");
        assert_eq!(t.writes, 2);
    }

    #[test]
    fn set_location_resets_reserved() {
        let mut t = LocTable::new(4);
        let p = PhysReg(1);
        t.set_location(p, 0);
        t.reserve(p);
        t.set_location(p, 2);
        assert!(!t.peek(p).reserved);
    }
}
