//! Trace-driven CPU model driving the FgNVM memory simulator.
//!
//! The gem5 substitute of the reproduction: a windowed out-of-order core
//! ([`Core`]) replays memory traces ([`Trace`]) against a
//! [`MemorySystem`](fgnvm_mem::MemorySystem), producing the IPC numbers
//! behind the paper's Figure 4. A set-associative [`LastLevelCache`] is
//! provided for users who want to filter raw access streams into miss
//! traces the way the paper filters SPEC2006 through its cache hierarchy.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fgnvm_cpu::{Core, CoreConfig, Trace, TraceRecord};
//! use fgnvm_mem::MemorySystem;
//! use fgnvm_types::config::SystemConfig;
//! use fgnvm_types::PhysAddr;
//!
//! let trace = Trace::new(
//!     "two-misses",
//!     vec![
//!         TraceRecord::read(100, PhysAddr::new(0)),
//!         TraceRecord::read(100, PhysAddr::new(1 << 25)),
//!     ],
//! );
//! let core = Core::new(CoreConfig::nehalem_like())?;
//! let mut memory = MemorySystem::new(SystemConfig::fgnvm(8, 2)?)?;
//! let result = core.run(&trace, &mut memory);
//! assert!(result.ipc() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod core;
pub mod llc;
pub mod metrics;
pub mod rob_core;
pub mod trace;

pub use crate::core::{Core, CoreConfig};
pub use analysis::{analyze, TraceProfile};
pub use llc::{CacheOutcome, LastLevelCache};
pub use metrics::{fairness, weighted_speedup, CoreResult, MultiCoreResult};
pub use rob_core::RobCore;
pub use trace::{DecodeTraceError, Trace, TraceRecord};
