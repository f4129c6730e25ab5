//! Functional (architectural) memory contents.
//!
//! The timing simulator models *when* data moves; this module models *what*
//! the data is. Contents live in a sparse line-granular store — untouched
//! memory reads as zeros, like NVMain's optional data encoding layer.
//! Functional state is updated in program (enqueue) order, so
//! read-your-writes holds regardless of how the timing side reorders
//! commands: reordering in the controller never violates same-address
//! ordering because reads to queued writes are forwarded and duplicate
//! writes are merged.

use std::collections::HashMap;

use fgnvm_types::address::PhysAddr;

/// Sparse, line-granular backing store.
///
/// ```
/// use fgnvm_mem::DataStore;
/// use fgnvm_types::PhysAddr;
///
/// let mut store = DataStore::new(64);
/// store.write(PhysAddr::new(0x1000), b"fgnvm");
/// let mut buf = [0u8; 5];
/// store.read(PhysAddr::new(0x1000), &mut buf);
/// assert_eq!(&buf, b"fgnvm");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataStore {
    line_bytes: usize,
    lines: HashMap<u64, Box<[u8]>>,
}

impl DataStore {
    /// Creates an empty store with `line_bytes`-sized lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero or not a power of two.
    pub fn new(line_bytes: u32) -> Self {
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size must be a positive power of two"
        );
        DataStore {
            line_bytes: line_bytes as usize,
            lines: HashMap::new(),
        }
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of lines that have ever been written.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    fn line_index(&self, addr: PhysAddr) -> u64 {
        addr.raw() / self.line_bytes as u64
    }

    /// Writes `data` at `addr`. The write may start anywhere within a line
    /// and may span line boundaries; absent portions of touched lines are
    /// zero-filled first.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mut offset = (addr.raw() % self.line_bytes as u64) as usize;
        let mut line = self.line_index(addr);
        let mut remaining = data;
        while !remaining.is_empty() {
            let space = self.line_bytes - offset;
            let take = space.min(remaining.len());
            let buf = self
                .lines
                .entry(line)
                .or_insert_with(|| vec![0u8; self.line_bytes].into_boxed_slice());
            buf[offset..offset + take].copy_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
            offset = 0;
            line += 1;
        }
    }

    /// Reads into `buf` starting at `addr`; unwritten memory reads as
    /// zeros. May span line boundaries.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut offset = (addr.raw() % self.line_bytes as u64) as usize;
        let mut line = self.line_index(addr);
        let mut out = buf;
        while !out.is_empty() {
            let space = self.line_bytes - offset;
            let take = space.min(out.len());
            match self.lines.get(&line) {
                Some(data) => out[..take].copy_from_slice(&data[offset..offset + take]),
                None => out[..take].fill(0),
            }
            out = &mut out[take..];
            offset = 0;
            line += 1;
        }
    }

    /// Returns a reference to one full line's contents, or `None` if that
    /// line was never written.
    pub fn line(&self, addr: PhysAddr) -> Option<&[u8]> {
        self.lines.get(&self.line_index(addr)).map(|b| &b[..])
    }

    /// Serialize the resident lines in sorted index order.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("data");
        w.usize(self.line_bytes);
        let mut indices: Vec<u64> = self.lines.keys().copied().collect();
        indices.sort_unstable();
        w.usize(indices.len());
        for idx in indices {
            w.u64(idx);
            w.bytes(&self.lines[&idx]);
        }
    }

    /// Restore contents written by [`DataStore::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated stream or a line whose length disagrees with the store's
    /// line size.
    pub fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<DataStore, fgnvm_types::SnapshotError> {
        r.tag("data")?;
        let line_bytes = r.usize()?;
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "line size {line_bytes} is not a positive power of two"
            )));
        }
        let n = r.count()?;
        let mut lines = HashMap::with_capacity(n);
        for _ in 0..n {
            let idx = r.u64()?;
            let data = r.bytes()?;
            if data.len() != line_bytes {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "line {idx} has {} bytes, expected {line_bytes}",
                    data.len()
                )));
            }
            lines.insert(idx, data.to_vec().into_boxed_slice());
        }
        Ok(DataStore { line_bytes, lines })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let store = DataStore::new(64);
        let mut buf = [0xffu8; 16];
        store.read(PhysAddr::new(0x1234), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(store.line(PhysAddr::new(0x1234)), None);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut store = DataStore::new(64);
        store.write(PhysAddr::new(0x100), b"hello fgnvm");
        let mut buf = [0u8; 11];
        store.read(PhysAddr::new(0x100), &mut buf);
        assert_eq!(&buf, b"hello fgnvm");
    }

    #[test]
    fn cross_line_write_and_read() {
        let mut store = DataStore::new(64);
        // Start 10 bytes before a line boundary, write 20 bytes.
        let addr = PhysAddr::new(64 - 10);
        let data: Vec<u8> = (0..20).collect();
        store.write(addr, &data);
        let mut buf = [0u8; 20];
        store.read(addr, &mut buf);
        assert_eq!(buf.as_slice(), data.as_slice());
        assert_eq!(store.resident_lines(), 2);
    }

    #[test]
    fn partial_write_preserves_rest_of_line() {
        let mut store = DataStore::new(64);
        store.write(PhysAddr::new(0), &[0xaa; 64]);
        store.write(PhysAddr::new(8), &[0xbb; 4]);
        let mut buf = [0u8; 64];
        store.read(PhysAddr::new(0), &mut buf);
        assert_eq!(&buf[..8], &[0xaa; 8]);
        assert_eq!(&buf[8..12], &[0xbb; 4]);
        assert_eq!(&buf[12..], &[0xaa; 52]);
    }

    #[test]
    fn overwrite_takes_effect() {
        let mut store = DataStore::new(64);
        store.write(PhysAddr::new(0x40), &[1; 8]);
        store.write(PhysAddr::new(0x40), &[2; 8]);
        let mut buf = [0u8; 8];
        store.read(PhysAddr::new(0x40), &mut buf);
        assert_eq!(buf, [2; 8]);
        assert_eq!(store.resident_lines(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = DataStore::new(48);
    }
}
