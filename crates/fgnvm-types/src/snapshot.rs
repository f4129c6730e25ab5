//! Versioned, hand-rolled binary snapshot encoding for checkpoint/restore.
//!
//! Every mutable piece of simulation state serializes itself through
//! [`SnapshotWriter`] and rebuilds from [`SnapshotReader`]. The format is
//! deliberately simple and fully deterministic:
//!
//! * an 8-byte magic (`FGNVMCK1`) and a `u32` format version up front;
//! * little-endian fixed-width primitives, length-prefixed strings and
//!   byte blobs;
//! * structure tags (short ASCII strings) at every aggregate boundary, so
//!   a reader that drifts out of sync fails with [`SnapshotError::BadTag`]
//!   instead of silently misinterpreting bytes;
//! * an FNV-1a 64-bit checksum trailer over everything before it.
//!
//! Maps and sets must be written in sorted key order by their owners —
//! the writer cannot enforce that, but the checkpoint differential tests
//! do: a nondeterministic iteration order would break the bit-identical
//! resume invariant.
//!
//! Compatibility rule: the version is bumped on *any* layout change, and
//! readers reject every version other than their own ([`SNAPSHOT_VERSION`]).
//! Checkpoints are short-lived artifacts of one experiment, not archival
//! interchange; refusing to guess beats silently corrupting a resumed run.

use std::error::Error;
use std::fmt;

/// Leading magic bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"FGNVMCK1";

/// Current snapshot format version. Bump on any layout change.
///
/// v2: the observer section gained optional telemetry state (time-series
/// engine + flight recorder) and the serve section gained the telemetry
/// cursor and SLO burn counters.
///
/// v3: multi-tenant serving — pending requests, controller events,
/// attribution records, system stats, telemetry windows, the QoS
/// scheduler, and the serve driver all gained per-tenant state.
///
/// v4: issue audit — the observer section gained an optional scheduler
/// decision-audit log and telemetry windows gained the per-window
/// co-issue opportunity counter.
///
/// v5: pay-per-sink observer — the Perfetto trace buffer sits behind a
/// presence flag (absent unless the sink was enabled), and the span
/// breakdown lost its own open-request table: each open attribution record
/// carries the issue marks instead, and the span counters and histograms
/// follow the attribution section.
///
/// v6: the attribution section swapped its completed-request records for
/// the offense tallies and the first offending record.
///
/// v7: the heatmap's per-bank SAG/CD busy clocks moved into the
/// attribution section, after each bank's command windows; the heatmap
/// section keeps only its grid.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Why a snapshot could not be decoded.
///
/// Every variant is a structured, recoverable error: corrupted or
/// truncated checkpoint files must surface as `Err`, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected data.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// The leading magic bytes did not match [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    BadVersion {
        /// Version found in the stream.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A structure tag did not match what the decoder expected — the
    /// stream is misaligned or from a different object graph.
    BadTag {
        /// Tag the decoder expected.
        expected: String,
        /// Tag actually present.
        found: String,
    },
    /// The stream failed its checksum or carried an invalid encoding
    /// (bad discriminant, non-UTF-8 string, impossible length).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated {
                expected,
                available,
            } => write!(
                f,
                "snapshot truncated: needed {expected} bytes, {available} remain"
            ),
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic bytes"),
            SnapshotError::BadVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapshotError::BadTag { expected, found } => {
                write!(
                    f,
                    "snapshot structure mismatch: expected tag `{expected}`, found `{found}`"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl Error for SnapshotError {}

/// FNV-1a 64-bit hash (checksum trailer and config fingerprints).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Appends snapshot state to a growing byte buffer.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

impl SnapshotWriter {
    /// Starts a snapshot: writes the magic and format version.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Seals the snapshot: appends the checksum trailer and returns the
    /// finished byte stream.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }

    /// Writes a structure tag (decoder cross-checks it with
    /// [`SnapshotReader::tag`]).
    pub fn tag(&mut self, name: &str) {
        self.str(name);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` by its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an optional `u32` (presence byte + value).
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u32(x);
            }
            None => self.bool(false),
        }
    }

    /// Writes an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Decodes a byte stream produced by [`SnapshotWriter`].
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot: verifies length, checksum trailer, magic, and
    /// format version before any field is decoded.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] when the stream is truncated, fails its
    /// checksum, carries the wrong magic, or was written by an
    /// incompatible version.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let header = SNAPSHOT_MAGIC.len() + 4;
        if bytes.len() < header + 8 {
            return Err(SnapshotError::Truncated {
                expected: header + 8,
                available: bytes.len(),
            });
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("trailer is 8 bytes"));
        if fnv1a64(payload) != stored {
            return Err(SnapshotError::Corrupt("checksum mismatch".into()));
        }
        if payload[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = SnapshotReader {
            buf: payload,
            pos: SNAPSHOT_MAGIC.len(),
        };
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(SnapshotError::Truncated {
                expected: n,
                available,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads and verifies a structure tag.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::BadTag`] if the stream carries a different
    /// tag at this position.
    pub fn tag(&mut self, expected: &str) -> Result<(), SnapshotError> {
        let found = self.str()?;
        if found != expected {
            return Err(SnapshotError::BadTag {
                expected: expected.into(),
                found,
            });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the stream ends.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or an invalid encoding.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the stream ends.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the stream ends.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the stream ends.
    pub fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or a value too large for
    /// this platform's word size.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads the element count of a collection that follows in the
    /// stream. Every element takes at least one byte, so a count larger
    /// than the bytes left is corrupt; refusing it keeps a loader from
    /// sizing a collection by it and exhausting memory.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] when the count exceeds the bytes
    /// left, and what [`SnapshotReader::usize`] returns.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(SnapshotError::Corrupt(format!(
                "count {n} exceeds the {left} bytes left"
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the stream ends.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an optional `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or an invalid encoding.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        if self.bool()? {
            Ok(Some(self.u32()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an optional `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or an invalid encoding.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the stream ends.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Verifies the whole payload was consumed (trailing garbage means
    /// the reader and writer disagree about the layout).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        let remaining = self.buf.len() - self.pos;
        if remaining != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{remaining} unread bytes after the last field"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        w.tag("test");
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX / 3);
        w.usize(12345);
        w.f64(-0.125);
        w.opt_u32(Some(9));
        w.opt_u32(None);
        w.opt_u64(Some(u64::MAX));
        w.str("hello");
        w.bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.tag("test").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.opt_u32().unwrap(), Some(9));
        assert_eq!(r.opt_u32().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(u64::MAX));
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_a_structured_error() {
        let mut w = SnapshotWriter::new();
        w.u64(42);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let err = match SnapshotReader::new(&bytes[..cut]) {
                Err(e) => e,
                Ok(mut r) => match r.u64().and_then(|_| {
                    r.expect_end()?;
                    Ok(())
                }) {
                    Err(e) => e,
                    Ok(()) => panic!("truncated stream at {cut} decoded cleanly"),
                },
            };
            // Every truncation yields a structured error, never a panic.
            let _ = err.to_string();
        }
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut w = SnapshotWriter::new();
        w.u64(42);
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            SnapshotReader::new(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.u32(1);
        let mut bytes = w.finish();
        // Corrupt the magic but re-seal the checksum so only the magic is
        // at fault.
        bytes[0] = b'X';
        let len = bytes.len();
        let sum = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SnapshotReader::new(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );

        // A garbage version and the previous format's are both refused.
        for found in [0xfe, SNAPSHOT_VERSION - 1] {
            let mut w = SnapshotWriter::new();
            w.u32(1);
            let mut bytes = w.finish();
            bytes[8..12].copy_from_slice(&found.to_le_bytes());
            let len = bytes.len();
            let sum = fnv1a64(&bytes[..len - 8]);
            bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                SnapshotReader::new(&bytes).unwrap_err(),
                SnapshotError::BadVersion {
                    found,
                    supported: SNAPSHOT_VERSION
                }
            );
        }
    }

    #[test]
    fn counts_beyond_the_bytes_left_are_corrupt() {
        let mut w = SnapshotWriter::new();
        w.usize(1 << 40);
        w.usize(2);
        w.u8(1);
        w.u8(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(r.count(), Err(SnapshotError::Corrupt(_))));
        // A count the remaining bytes can hold reads as it was written.
        assert_eq!(r.count().unwrap(), 2);
        assert_eq!((r.u8().unwrap(), r.u8().unwrap()), (1, 2));
        r.expect_end().unwrap();
    }

    #[test]
    fn tag_mismatch_is_reported() {
        let mut w = SnapshotWriter::new();
        w.tag("controller");
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = r.tag("bank").unwrap_err();
        assert!(matches!(err, SnapshotError::BadTag { .. }));
        assert!(err.to_string().contains("bank"));
    }
}
