//! SAG×CD tile occupancy and conflict heatmap.
//!
//! The paper's rook-placement model says two accesses to the same bank
//! proceed in parallel iff they share neither a subarray group (row of the
//! S×C grid) nor a column division (column). This observer reconstructs
//! that claim from the command stream: the attribution tracker keeps, in
//! each bank's command history, a busy-until clock for every SAG and every
//! CD, and the heatmap charges each issued command's wait against the tile
//! resources it had to serialize behind. Cells aggregate over all banks,
//! yielding one S×C grid per run.
//!
//! Occupancy windows: a read holds its SAG and CD until the end of its data
//! burst; a write holds them until device completion (including verify
//! retries), which is exactly the asymmetry the write-pausing machinery
//! exploits.

use crate::CommandIssue;

/// Aggregated activity of one (SAG, CD) tile position across all banks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCell {
    /// Full-row activations targeting this tile.
    pub activations: u64,
    /// Row-buffer hits served from this tile.
    pub row_hits: u64,
    /// Partial (underfetch) activations.
    pub underfetches: u64,
    /// Writes committed to this tile.
    pub writes: u64,
    /// Commands that had to wait behind this tile's SAG or CD.
    pub conflicts: u64,
    /// Cycles those commands spent blocked on this tile's resources.
    pub conflict_cycles: u64,
    /// Cycles this tile was locked by an in-progress write.
    pub write_busy_cycles: u64,
}

/// S×C conflict/occupancy heatmap.
#[derive(Debug, Clone)]
pub struct TileHeatmap {
    sags: u32,
    cds: u32,
    cells: Vec<TileCell>,
}

impl TileHeatmap {
    /// A zeroed heatmap for an S×C subdivided bank (use 1×1 for monolithic
    /// banks — the grid degenerates to whole-bank occupancy).
    pub fn new(sags: u32, cds: u32) -> Self {
        assert!(sags > 0 && cds > 0, "degenerate tile grid");
        TileHeatmap {
            sags,
            cds,
            cells: vec![TileCell::default(); (sags * cds) as usize],
        }
    }

    /// Grid dimensions `(sags, cds)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.sags, self.cds)
    }

    /// The cell at `(sag, cd)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn cell(&self, sag: u32, cd: u32) -> &TileCell {
        assert!(sag < self.sags && cd < self.cds, "tile out of grid");
        &self.cells[(sag * self.cds + cd) as usize]
    }

    /// All cells in row-major (sag, cd) order.
    pub fn cells(&self) -> &[TileCell] {
        &self.cells
    }

    /// Records one issued command.
    ///
    /// `busy` is the cycle the command's SAG or first CD was held until
    /// before it issued; the command conflicted if that was after its
    /// arrival. Coordinates are clamped into the grid so a mis-sized
    /// observer degrades instead of panicking.
    pub fn on_command(&mut self, cmd: &CommandIssue<'_>, busy: u64) {
        let sag = cmd.sag.min(self.sags - 1);
        let cd = cmd.cd.min(self.cds - 1);
        let cell = &mut self.cells[(sag * self.cds + cd) as usize];
        match cmd.kind {
            "row-hit" => cell.row_hits += 1,
            "underfetch" => cell.underfetches += 1,
            "write" => cell.writes += 1,
            _ => cell.activations += 1,
        }
        if busy > cmd.arrival {
            // The request arrived while this tile's resources were held:
            // a rook conflict. Charge the overlap of its wait with the
            // busy window.
            cell.conflicts += 1;
            cell.conflict_cycles += busy.min(cmd.at).saturating_sub(cmd.arrival);
        }
        if !cmd.is_read {
            cell.write_busy_cycles += cmd.completion.saturating_sub(cmd.at);
        }
    }

    /// Serializes as CSV, one row per (sag, cd) cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "sag,cd,activations,row_hits,underfetches,writes,conflicts,conflict_cycles,write_busy_cycles\n",
        );
        for sag in 0..self.sags {
            for cd in 0..self.cds {
                let c = self.cell(sag, cd);
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{}\n",
                    sag,
                    cd,
                    c.activations,
                    c.row_hits,
                    c.underfetches,
                    c.writes,
                    c.conflicts,
                    c.conflict_cycles,
                    c.write_busy_cycles
                ));
            }
        }
        out
    }

    /// Serializes as a JSON object with dims and a row-major cell array.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = (0..self.sags)
            .flat_map(|sag| (0..self.cds).map(move |cd| (sag, cd)))
            .map(|(sag, cd)| {
                let c = self.cell(sag, cd);
                format!(
                    "{{\"sag\":{sag},\"cd\":{cd},\"activations\":{},\"row_hits\":{},\
                     \"underfetches\":{},\"writes\":{},\"conflicts\":{},\
                     \"conflict_cycles\":{},\"write_busy_cycles\":{}}}",
                    c.activations,
                    c.row_hits,
                    c.underfetches,
                    c.writes,
                    c.conflicts,
                    c.conflict_cycles,
                    c.write_busy_cycles
                )
            })
            .collect();
        format!(
            "{{\"sags\":{},\"cds\":{},\"cells\":[{}]}}",
            self.sags,
            self.cds,
            cells.join(",")
        )
    }

    /// Serialize the grid into a checkpoint. The tile clocks its conflict
    /// rule reads ride in the attribution section.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("heatmap");
        w.u32(self.sags);
        w.u32(self.cds);
        for c in &self.cells {
            w.u64(c.activations);
            w.u64(c.row_hits);
            w.u64(c.underfetches);
            w.u64(c.writes);
            w.u64(c.conflicts);
            w.u64(c.conflict_cycles);
            w.u64(c.write_busy_cycles);
        }
    }

    /// Restore a heatmap written by [`TileHeatmap::save_state`] into this
    /// one, replacing its current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) when the
    /// checkpoint's grid dimensions disagree with this heatmap's.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("heatmap")?;
        let sags = r.u32()?;
        let cds = r.u32()?;
        if sags != self.sags || cds != self.cds {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint heatmap is {sags}x{cds}, observer grid is {}x{}",
                self.sags, self.cds
            )));
        }
        for c in &mut self.cells {
            c.activations = r.u64()?;
            c.row_hits = r.u64()?;
            c.underfetches = r.u64()?;
            c.writes = r.u64()?;
            c.conflicts = r.u64()?;
            c.conflict_cycles = r.u64()?;
            c.write_busy_cycles = r.u64()?;
        }
        Ok(())
    }

    /// Total conflicts across the grid.
    pub fn total_conflicts(&self) -> u64 {
        self.cells.iter().map(|c| c.conflicts).sum()
    }

    /// Total cycles lost to tile conflicts across the grid.
    pub fn total_conflict_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.conflict_cycles).sum()
    }

    /// Fraction of recorded commands that hit a tile conflict.
    pub fn conflict_rate(&self) -> f64 {
        let cmds: u64 = self
            .cells
            .iter()
            .map(|c| c.activations + c.row_hits + c.underfetches + c.writes)
            .sum();
        if cmds == 0 {
            0.0
        } else {
            self.total_conflicts() as f64 / cmds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observer;

    /// A command on channel 0's `bank` at tile `(sag, cd)` that arrived at
    /// `arrival`, issued at `at`, ended its burst at `data_end` and
    /// completed at `completion`. Only `"write"` is a write.
    fn command(
        bank: u32,
        (sag, cd): (u32, u32),
        kind: &'static str,
        (arrival, at, data_end, completion): (u64, u64, u64, u64),
    ) -> CommandIssue<'static> {
        CommandIssue {
            channel: 0,
            bank,
            id: 0,
            is_read: kind != "write",
            kind,
            arrival,
            at,
            earliest_data: at,
            data_start: at,
            data_end,
            completion,
            row: 0,
            sag,
            cd,
            cd_count: 1,
            retries: 0,
        }
    }

    #[test]
    fn same_tile_back_to_back_conflicts() {
        let mut obs = Observer::new(4, 4);
        // First command occupies (1, 2) until cycle 100.
        obs.on_command(&command(0, (1, 2), "activate", (0, 10, 100, 100)));
        // Second arrives at 20, must wait; issues at 100.
        obs.on_command(&command(0, (1, 2), "activate", (20, 100, 180, 180)));
        let c = obs.heatmap.cell(1, 2);
        assert_eq!(c.activations, 2);
        assert_eq!(c.conflicts, 1);
        assert_eq!(c.conflict_cycles, 80); // 100 - 20
    }

    #[test]
    fn rook_rule_row_and_column_block_but_diagonal_does_not() {
        let mut obs = Observer::new(4, 4);
        obs.on_command(&command(0, (1, 1), "activate", (0, 0, 100, 100)));
        // Different SAG and CD ("diagonal"): free.
        obs.on_command(&command(0, (2, 2), "activate", (10, 12, 110, 110)));
        // Same SAG, different CD: blocked.
        obs.on_command(&command(0, (1, 3), "activate", (10, 100, 190, 190)));
        // Same CD, different SAG: blocked.
        obs.on_command(&command(0, (3, 1), "activate", (10, 100, 190, 190)));
        let h = &obs.heatmap;
        assert_eq!(h.cell(1, 3).conflicts, 1);
        assert_eq!(h.cell(3, 1).conflicts, 1);
        assert_eq!(h.cell(2, 2).conflicts, 0);
        assert_eq!(h.total_conflicts(), 2);
    }

    #[test]
    fn writes_hold_tiles_until_completion() {
        let mut obs = Observer::new(2, 2);
        // Write bursts end at 50 but the device is locked until 400.
        obs.on_command(&command(0, (0, 0), "write", (0, 10, 50, 400)));
        assert_eq!(obs.heatmap.cell(0, 0).write_busy_cycles, 390);
        // A read arriving at 100 on the same tile conflicts even though
        // the write's burst is long over.
        obs.on_command(&command(0, (0, 0), "row-hit", (100, 400, 410, 410)));
        assert_eq!(obs.heatmap.cell(0, 0).conflicts, 1);
        assert_eq!(obs.heatmap.cell(0, 0).conflict_cycles, 300);
    }

    #[test]
    fn banks_have_independent_clocks() {
        let mut obs = Observer::new(2, 2);
        obs.on_command(&command(0, (0, 0), "activate", (0, 0, 100, 100)));
        // Same tile position in another bank: no conflict.
        obs.on_command(&command(1, (0, 0), "activate", (10, 12, 112, 112)));
        assert_eq!(obs.heatmap.cell(0, 0).conflicts, 0);
        assert_eq!(obs.heatmap.cell(0, 0).activations, 2);
    }

    #[test]
    fn restored_observer_counts_the_same_conflicts_on_later_commands() {
        let stream = [
            command(0, (1, 2), "activate", (0, 10, 100, 100)),
            command(1, (0, 0), "write", (5, 20, 40, 400)),
            // Each of the next two waits on a tile held before the cut.
            command(0, (1, 2), "activate", (20, 100, 180, 180)),
            command(1, (0, 1), "row-hit", (30, 400, 410, 410)),
            command(0, (2, 3), "activate", (50, 120, 200, 200)),
        ];
        let mut whole = Observer::new(4, 4);
        stream.iter().for_each(|cmd| whole.on_command(cmd));
        assert_eq!(whole.heatmap.total_conflicts(), 2);

        let mut head = Observer::new(4, 4);
        stream[..2].iter().for_each(|cmd| head.on_command(cmd));
        assert_eq!(head.heatmap.total_conflicts(), 0);
        let mut w = fgnvm_types::SnapshotWriter::new();
        head.save_state(&mut w);
        let bytes = w.finish();
        let mut resumed = Observer::new(4, 4);
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        resumed.load_state(&mut r).expect("decodes");
        stream[2..].iter().for_each(|cmd| resumed.on_command(cmd));
        assert_eq!(resumed.heatmap.cells(), whole.heatmap.cells());
    }

    #[test]
    fn exports_are_row_major() {
        let mut h = TileHeatmap::new(2, 3);
        h.on_command(&command(0, (1, 2), "row-hit", (0, 0, 8, 8)), 0);
        let csv = h.to_csv();
        assert!(csv.ends_with("1,2,0,1,0,0,0,0,0\n"));
        assert_eq!(csv.lines().count(), 7);
        let json = h.to_json();
        assert!(json.starts_with("{\"sags\":2,\"cds\":3,\"cells\":[{\"sag\":0,\"cd\":0,"));
        assert!(json.contains("{\"sag\":1,\"cd\":2,\"activations\":0,\"row_hits\":1,"));
    }
}
