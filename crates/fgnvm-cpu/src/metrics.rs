//! Results of a core run, and of several cores sharing one memory.

use serde::{Deserialize, Serialize};

/// Outcome of running one trace on one memory configuration.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreResult {
    /// Instructions retired.
    pub instructions: u64,
    /// CPU cycles elapsed.
    pub cpu_cycles: u64,
    /// Memory-controller cycles consumed (including the final drain).
    pub mem_cycles: u64,
    /// CPU cycles in which not a single instruction issued (full stalls —
    /// ROB window full, MSHRs exhausted, or queue backpressure).
    pub stall_cycles: u64,
}

impl CoreResult {
    /// Instructions per CPU cycle.
    pub fn ipc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cpu_cycles as f64
        }
    }

    /// Fraction of CPU cycles fully stalled, in `[0, 1]`.
    pub fn stall_fraction(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cpu_cycles as f64
        }
    }

    /// Speedup of this run over `baseline` (ratio of IPCs).
    ///
    /// # Panics
    ///
    /// Panics if the baseline IPC is zero.
    pub fn speedup_over(&self, baseline: &CoreResult) -> f64 {
        let base = baseline.ipc();
        assert!(base > 0.0, "baseline ipc must be positive");
        self.ipc() / base
    }

    /// Exports the run's counters into `reg` as `<prefix>.<field>`, plus
    /// the derived `ipc` and `stall_fraction` gauges.
    pub fn export_metrics(&self, reg: &mut fgnvm_obs::Registry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.instructions"), self.instructions);
        reg.set_counter(&format!("{prefix}.cpu_cycles"), self.cpu_cycles);
        reg.set_counter(&format!("{prefix}.mem_cycles"), self.mem_cycles);
        reg.set_counter(&format!("{prefix}.stall_cycles"), self.stall_cycles);
        reg.set_gauge(&format!("{prefix}.ipc"), self.ipc());
        reg.set_gauge(&format!("{prefix}.stall_fraction"), self.stall_fraction());
    }
}

/// Outcome of a multi-core run.
#[derive(Debug, Clone)]
pub struct MultiCoreResult {
    /// Per-core results; `cpu_cycles` is each core's own finish time on
    /// the shared clock.
    pub per_core: Vec<CoreResult>,
    /// Cycles until the *last* core finished.
    pub total_cycles: u64,
}

impl MultiCoreResult {
    /// Sum of per-core IPCs (system throughput).
    pub fn throughput(&self) -> f64 {
        self.per_core.iter().map(CoreResult::ipc).sum()
    }
}

/// Weighted speedup: `Σ shared_ipc[i] / solo_ipc[i]` (Snavely & Tullsen).
/// Equals the core count when sharing costs nothing.
///
/// # Panics
///
/// Panics if the slices differ in length or a solo IPC is zero.
pub fn weighted_speedup(shared: &[CoreResult], solo: &[CoreResult]) -> f64 {
    assert_eq!(shared.len(), solo.len(), "core count mismatch");
    shared
        .iter()
        .zip(solo)
        .map(|(s, alone)| {
            let base = alone.ipc();
            assert!(base > 0.0, "solo ipc must be positive");
            s.ipc() / base
        })
        .sum()
}

/// Fairness: `min(slowdown) / max(slowdown)` over cores, in `(0, 1]`
/// (1 = every core suffers equally from sharing).
///
/// # Panics
///
/// Panics if the slices differ in length or an IPC is zero.
pub fn fairness(shared: &[CoreResult], solo: &[CoreResult]) -> f64 {
    assert_eq!(shared.len(), solo.len(), "core count mismatch");
    let slowdowns: Vec<f64> = shared
        .iter()
        .zip(solo)
        .map(|(s, alone)| {
            assert!(s.ipc() > 0.0 && alone.ipc() > 0.0, "ipcs must be positive");
            alone.ipc() / s.ipc()
        })
        .collect();
    let max = slowdowns.iter().cloned().fold(f64::MIN, f64::max);
    let min = slowdowns.iter().cloned().fold(f64::MAX, f64::min);
    min / max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_speedup() {
        let base = CoreResult {
            instructions: 1000,
            cpu_cycles: 1000,
            mem_cycles: 125,
            stall_cycles: 600,
        };
        let fast = CoreResult {
            instructions: 1000,
            cpu_cycles: 500,
            mem_cycles: 63,
            stall_cycles: 100,
        };
        assert!((base.stall_fraction() - 0.6).abs() < 1e-12);
        assert!((base.ipc() - 1.0).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_gives_zero_ipc() {
        assert_eq!(CoreResult::default().ipc(), 0.0);
    }
}
