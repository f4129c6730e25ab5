//! Error types shared by the FgNVM crates.

use std::error::Error;
use std::fmt;

/// An invalid configuration was supplied to a builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural parameter must be a positive power of two.
    NotPowerOfTwo {
        /// The offending field name.
        field: &'static str,
        /// The supplied value.
        value: u32,
    },
    /// A parameter violates a relationship with another parameter.
    Invalid {
        /// The offending field name.
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: &'static str,
    },
    /// A numeric parameter was outside its legal range.
    OutOfRange {
        /// The offending field name.
        field: &'static str,
        /// Human-readable description of the legal range.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a positive power of two, got {value}")
            }
            ConfigError::Invalid { field, reason } => write!(f, "invalid {field}: {reason}"),
            ConfigError::OutOfRange { field, expected } => {
                write!(f, "{field} out of range: expected {expected}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Unified error taxonomy for whole-simulation failures.
///
/// Everything a user can provoke from a configuration file or the command
/// line funnels into this type: invalid configurations, malformed parameter
/// files, I/O failures, unknown workload names, and — new with the
/// reliability layer — watchdog trips when a simulation stops making
/// forward progress (for example a wedged write-verify loop).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An invalid configuration (wraps [`ConfigError`]).
    Config(ConfigError),
    /// A parameter file failed to parse (wraps [`crate::ParseParamsError`]).
    Params(crate::params::ParseParamsError),
    /// A file could not be read or written.
    Io {
        /// Path of the file involved.
        path: String,
        /// The underlying OS error rendered as text.
        message: String,
    },
    /// A workload name did not match any known profile.
    UnknownWorkload(String),
    /// The simulation watchdog tripped: no request completed for
    /// `stall_cycles` consecutive cycles while work remained queued.
    Watchdog {
        /// The configured no-progress threshold, in memory cycles.
        stall_cycles: u64,
        /// Cycle at which the watchdog fired.
        now: u64,
        /// Requests still waiting in read queues.
        read_queue: usize,
        /// Requests still waiting in write queues.
        write_queue: usize,
        /// Human-readable dump of per-channel queue and bank state.
        state: String,
    },
    /// The wear-out escalation ladder reached its final stage: enough
    /// banks have dropped to read-only mode that the device can no longer
    /// satisfy its configured capacity floor (see
    /// `ReliabilityConfig::capacity_exhausted_banks`).
    CapacityExhausted {
        /// Banks currently in read-only mode, device-wide.
        read_only_banks: u32,
        /// Configured bank threshold that was crossed.
        threshold: u32,
        /// Rows retired (remapped or lost) device-wide.
        retired_rows: u64,
        /// Cycle at which the ladder escalated.
        now: u64,
    },
    /// A checkpoint could not be decoded (wraps
    /// [`SnapshotError`](crate::snapshot::SnapshotError)).
    Snapshot(crate::snapshot::SnapshotError),
    /// A request-queue operation named an entry that is not queued.
    /// Scheduler picks are derived from the queue they are applied to, so
    /// this is unreachable through the public API; it is reported as a
    /// structured error (rather than a panic) so a scheduler bug degrades
    /// into a diagnosable stall instead of aborting a long run.
    QueueIndex {
        /// The storage slot the operation named.
        index: usize,
        /// Live entries in the queue at the time of the call.
        len: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "configuration error: {e}"),
            SimError::Params(e) => write!(f, "parameter file error: {e}"),
            SimError::Io { path, message } => write!(f, "i/o error on {path}: {message}"),
            SimError::UnknownWorkload(name) => write!(f, "unknown workload profile: {name}"),
            SimError::Watchdog {
                stall_cycles,
                now,
                read_queue,
                write_queue,
                state,
            } => write!(
                f,
                "watchdog: no request completed for {stall_cycles} cycles \
                 (now cy{now}, {read_queue} reads + {write_queue} writes pending)\n{state}"
            ),
            SimError::CapacityExhausted {
                read_only_banks,
                threshold,
                retired_rows,
                now,
            } => write!(
                f,
                "capacity exhausted: {read_only_banks} banks read-only \
                 (threshold {threshold}), {retired_rows} rows retired, at cy{now}"
            ),
            SimError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            SimError::QueueIndex { index, len } => {
                write!(
                    f,
                    "queue slot {index} holds no such entry ({len} entries queued)"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Params(e) => Some(e),
            SimError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::snapshot::SnapshotError> for SimError {
    fn from(e: crate::snapshot::SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<crate::params::ParseParamsError> for SimError {
    fn from(e: crate::params::ParseParamsError) -> Self {
        SimError::Params(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = ConfigError::NotPowerOfTwo {
            field: "sags",
            value: 3,
        };
        assert_eq!(e.to_string(), "sags must be a positive power of two, got 3");
        let e = ConfigError::Invalid {
            field: "cds",
            reason: "too many",
        };
        assert_eq!(e.to_string(), "invalid cds: too many");
        let e = ConfigError::OutOfRange {
            field: "queue",
            expected: "1..=1024",
        };
        assert_eq!(e.to_string(), "queue out of range: expected 1..=1024");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<ConfigError>();
    }
}
