//! Chrome trace-event (Perfetto-loadable) JSON sink.
//!
//! Events follow the Trace Event Format's JSON array flavor: the memory
//! channel becomes a process (`pid`), each bank a thread (`tid`), every
//! issued command a complete `"X"` slice, and faults/remaps/watchdog trips
//! instant `"i"` events. Simulator cycles are written through as
//! microseconds (1 cycle = 1 µs) — Perfetto only needs a monotonic unit.
//!
//! Events are pre-rendered to JSON strings at record time and stored in a
//! bounded buffer; once the cap is reached further events are counted in
//! `dropped` instead of growing memory without bound. The sink is opt-in
//! ([`Observer::enable_trace`](crate::Observer::enable_trace)): without it
//! no hook formats anything.

use std::collections::HashSet;
use std::fmt;

use crate::json;

/// Default event capacity (~1M events).
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// Bounded Chrome trace-event sink.
#[derive(Debug, Clone)]
pub struct TraceSink {
    events: Vec<String>,
    cap: usize,
    dropped: u64,
    named_procs: HashSet<u32>,
    named_tracks: HashSet<(u32, u32)>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(DEFAULT_EVENT_CAP)
    }
}

impl TraceSink {
    /// A sink holding at most `cap` events (metadata included).
    pub fn with_capacity(cap: usize) -> Self {
        TraceSink {
            events: Vec::new(),
            cap,
            dropped: 0,
            named_procs: HashSet::new(),
            named_tracks: HashSet::new(),
        }
    }

    /// Renders `event` into the buffer, or only counts it once the buffer
    /// is full (a dropped event is never formatted).
    fn push(&mut self, event: fmt::Arguments<'_>) {
        if self.events.len() < self.cap {
            self.events.push(event.to_string());
        } else {
            self.dropped += 1;
        }
    }

    /// Emits process/thread name metadata for a track the first time it
    /// appears (deterministic: ordered by first use, not by hash).
    fn ensure_track(&mut self, channel: u32, bank: u32) {
        if self.named_procs.insert(channel) {
            self.push(format_args!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{channel},\"tid\":0,\
                 \"args\":{{\"name\":\"channel {channel}\"}}}}"
            ));
        }
        if self.named_tracks.insert((channel, bank)) {
            self.push(format_args!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{channel},\"tid\":{bank},\
                 \"args\":{{\"name\":\"bank {bank}\"}}}}"
            ));
        }
    }

    /// Records a complete slice: a command occupying `[ts, ts + dur)` on
    /// bank `(channel, bank)`. `args` renders the JSON object's fields
    /// (e.g. `format_args!("\"row\":{row}")`) straight into the event.
    pub fn slice(
        &mut self,
        channel: u32,
        bank: u32,
        name: &str,
        ts: u64,
        dur: u64,
        args: fmt::Arguments<'_>,
    ) {
        self.ensure_track(channel, bank);
        let dur = dur.max(1); // zero-width slices vanish in viewers
        self.push(format_args!(
            "{{\"name\":{},\"cat\":\"cmd\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":{channel},\"tid\":{bank},\"args\":{{{args}}}}}",
            json::quote(name)
        ));
    }

    /// Records a thread-scoped instant event (fault, remap, watchdog).
    pub fn instant(&mut self, channel: u32, bank: u32, name: &str, ts: u64) {
        self.ensure_track(channel, bank);
        self.push(format_args!(
            "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
             \"pid\":{channel},\"tid\":{bank}}}",
            json::quote(name)
        ));
    }

    /// Events currently buffered (including metadata records).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serialize the buffered events, cap, drop counter, and named-track
    /// sets (sorted) into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("trace");
        w.usize(self.cap);
        w.u64(self.dropped);
        w.usize(self.events.len());
        for e in &self.events {
            w.str(e);
        }
        let mut procs: Vec<u32> = self.named_procs.iter().copied().collect();
        procs.sort_unstable();
        w.usize(procs.len());
        for p in procs {
            w.u32(p);
        }
        let mut tracks: Vec<(u32, u32)> = self.named_tracks.iter().copied().collect();
        tracks.sort_unstable();
        w.usize(tracks.len());
        for (c, b) in tracks {
            w.u32(c);
            w.u32(b);
        }
    }

    /// Restore a sink written by [`TraceSink::save_state`] into this one,
    /// replacing its current contents (including the capacity).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("trace")?;
        self.cap = r.usize()?;
        self.dropped = r.u64()?;
        let n = r.count()?;
        self.events = Vec::with_capacity(n.min(self.cap));
        for _ in 0..n {
            self.events.push(r.str()?.to_string());
        }
        let n = r.count()?;
        self.named_procs = HashSet::with_capacity(n);
        for _ in 0..n {
            self.named_procs.insert(r.u32()?);
        }
        let n = r.count()?;
        self.named_tracks = HashSet::with_capacity(n);
        for _ in 0..n {
            self.named_tracks.insert((r.u32()?, r.u32()?));
        }
        Ok(())
    }

    /// Renders the full trace as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable at `ui.perfetto.dev`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            self.events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_carry_track_metadata_once() {
        let mut sink = TraceSink::default();
        sink.slice(0, 2, "activate", 100, 50, format_args!("\"row\":{}", 7));
        sink.slice(0, 2, "row-hit", 200, 10, format_args!(""));
        // 2 metadata + 2 slices.
        assert_eq!(sink.len(), 4);
        let json = sink.to_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_eq!(json.matches("process_name").count(), 1);
        assert_eq!(json.matches("thread_name").count(), 1);
        assert!(json.contains(
            "{\"name\":\"activate\",\"cat\":\"cmd\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\
             \"pid\":0,\"tid\":2,\"args\":{\"row\":7}}"
        ));
    }

    #[test]
    fn zero_duration_slices_widen_to_one() {
        let mut sink = TraceSink::default();
        sink.slice(0, 0, "x", 5, 0, format_args!(""));
        assert!(sink.to_json().contains("\"dur\":1"));
    }

    #[test]
    fn instants_render_with_scope() {
        let mut sink = TraceSink::default();
        sink.instant(1, 3, "remap", 77);
        assert!(sink.to_json().contains(
            "{\"name\":\"remap\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":77,\
             \"pid\":1,\"tid\":3}"
        ));
    }

    #[test]
    fn cap_drops_instead_of_growing() {
        let mut sink = TraceSink::with_capacity(3);
        sink.slice(0, 0, "a", 0, 1, format_args!("")); // +2 metadata, fills cap
        sink.slice(0, 0, "b", 1, 1, format_args!(""));
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 1);
    }
}
