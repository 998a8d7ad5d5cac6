//! Core configuration presets (Table I).

use ballerino_isa::PortMap;
use ballerino_mem::MemConfig;

/// Machine width preset of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 2-wide @ 2.0 GHz.
    Two,
    /// 4-wide @ 2.5 GHz.
    Four,
    /// 8-wide @ 3.4 GHz (the primary configuration).
    Eight,
    /// 10-wide @ 3.4 GHz (§VI-E1 state-of-the-art point).
    Ten,
}

impl Width {
    /// Issue width (= number of ports).
    pub fn issue(self) -> usize {
        match self {
            Width::Two => 2,
            Width::Four => 4,
            Width::Eight => 8,
            Width::Ten => 10,
        }
    }
}

/// Full core configuration.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Fetch/decode/dispatch width (Table I: 4 at 8-wide).
    pub front_width: usize,
    /// Issue and commit width.
    pub issue_width: usize,
    /// Allocation-queue entries between decode and rename (so that up to
    /// ~160 μops sit between decode and issue, §II-C).
    pub alloc_queue: usize,
    /// Cycles from decode to earliest dispatch (decode + 2-stage rename).
    pub rename_latency: u64,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Integer physical registers.
    pub int_regs: usize,
    /// Floating-point physical registers.
    pub fp_regs: usize,
    /// Pipeline recovery penalty in cycles (Table I: 11, 8 for InO).
    pub recovery_penalty: u64,
    /// Issue ports and their FU bindings.
    pub port_map: PortMap,
    /// Memory-system configuration.
    pub mem: MemConfig,
    /// Whether the store-set MDP is present (Table I: absent in InO).
    pub use_mdp: bool,
    /// Core frequency in GHz (for reporting; timing is in cycles).
    pub freq_ghz: f64,
    /// Whether the event-horizon engine may fast-forward provably idle
    /// stretches of cycles (see ARCHITECTURE.md, "The quiesce contract").
    /// Purely a simulator-throughput knob: results are byte-identical
    /// either way.
    pub skip_idle: bool,
}

impl CoreConfig {
    /// Builds the Table I configuration for a width.
    pub fn preset(width: Width) -> Self {
        match width {
            Width::Eight => CoreConfig {
                front_width: 4,
                issue_width: 8,
                alloc_queue: 64,
                rename_latency: 3,
                rob_entries: 224,
                lq_entries: 72,
                sq_entries: 56,
                int_regs: 180,
                fp_regs: 168,
                recovery_penalty: 11,
                port_map: PortMap::skylake_8wide(),
                mem: MemConfig::default(),
                use_mdp: true,
                freq_ghz: 3.4,
                skip_idle: true,
            },
            Width::Ten => CoreConfig {
                issue_width: 10,
                port_map: PortMap::wide_10(),
                ..Self::preset(Width::Eight)
            },
            Width::Four => CoreConfig {
                front_width: 4,
                issue_width: 4,
                alloc_queue: 48,
                rename_latency: 3,
                rob_entries: 128,
                lq_entries: 48,
                sq_entries: 32,
                int_regs: 128,
                fp_regs: 96,
                recovery_penalty: 11,
                port_map: PortMap::four_wide(),
                mem: MemConfig::default(),
                use_mdp: true,
                freq_ghz: 2.5,
                skip_idle: true,
            },
            Width::Two => CoreConfig {
                front_width: 2,
                issue_width: 2,
                alloc_queue: 24,
                rename_latency: 3,
                rob_entries: 48,
                lq_entries: 24,
                sq_entries: 16,
                // Table I lists 32/32; renaming needs headroom over the
                // 32 architectural names, so we use the smallest viable
                // sizes above that (documented deviation).
                int_regs: 48,
                fp_regs: 48,
                recovery_penalty: 11,
                port_map: PortMap::two_wide(),
                mem: MemConfig::default(),
                use_mdp: true,
                freq_ghz: 2.0,
                skip_idle: true,
            },
        }
    }

    /// The in-order variant of a preset: shorter recovery, smaller
    /// reorder logic and store queue, no MDP (Table I, InO column).
    pub fn preset_inorder(width: Width) -> Self {
        let mut c = Self::preset(width);
        c.recovery_penalty = 8;
        c.rob_entries = match width {
            Width::Two => 16,
            Width::Four => 32,
            _ => 64,
        };
        c.sq_entries = match width {
            Width::Two => 4,
            Width::Four => 8,
            _ => 16,
        };
        c.use_mdp = false;
        c
    }

    /// Total physical registers.
    pub fn total_phys(&self) -> usize {
        self.int_regs + self.fp_regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_wide_matches_table_i() {
        let c = CoreConfig::preset(Width::Eight);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.rob_entries, 224);
        assert_eq!(c.lq_entries, 72);
        assert_eq!(c.sq_entries, 56);
        assert_eq!(c.int_regs, 180);
        assert_eq!(c.fp_regs, 168);
        assert_eq!(c.recovery_penalty, 11);
        assert_eq!(c.port_map.num_ports(), 8);
        assert!((c.freq_ghz - 3.4).abs() < 1e-12);
    }

    #[test]
    fn narrower_presets_scale_down() {
        let four = CoreConfig::preset(Width::Four);
        assert_eq!(four.rob_entries, 128);
        assert_eq!(four.port_map.num_ports(), 4);
        let two = CoreConfig::preset(Width::Two);
        assert_eq!(two.rob_entries, 48);
        assert_eq!(two.issue_width, 2);
    }

    #[test]
    fn inorder_preset_drops_mdp_and_recovery() {
        let c = CoreConfig::preset_inorder(Width::Eight);
        assert!(!c.use_mdp);
        assert_eq!(c.recovery_penalty, 8);
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.sq_entries, 16);
    }
}
