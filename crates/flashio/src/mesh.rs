//! FLASH's in-memory data structures: guarded AMR blocks and their
//! metadata, generated deterministically.

/// Number of guard cells on each side of a block (FLASH's `nguard`).
pub const NGUARD: u64 = 4;

/// Unknowns held per cell in a checkpoint (FLASH's `nvar`).
pub const NUNK: usize = 24;

/// Variables written to plotfiles.
pub const NPLOT: usize = 4;

/// The canonical unknown names of the FLASH hydro solver.
pub const UNK_NAMES: [&str; NUNK] = [
    "dens", "velx", "vely", "velz", "pres", "ener", "temp", "gamc", "game", "enuc", "gpot", "flam",
    "c12_", "o16_", "ne20", "mg24", "si28", "s32_", "ar36", "ca40", "ti44", "cr48", "fe52", "ni56",
];

/// Description of one rank's share of the AMR mesh.
#[derive(Clone, Copy, Debug)]
pub struct BlockMesh {
    /// Cells per block per dimension (8 or 16 in the paper).
    pub nxb: u64,
    /// Blocks held by each processor (80 in the paper).
    pub blocks_per_proc: u64,
    /// Number of processors.
    pub nprocs: usize,
}

impl BlockMesh {
    /// The paper's configuration: 80 blocks of `nxb`³ per processor.
    pub fn paper(nxb: u64, nprocs: usize) -> BlockMesh {
        BlockMesh {
            nxb,
            blocks_per_proc: 80,
            nprocs,
        }
    }

    /// Total blocks across all processors.
    pub fn total_blocks(&self) -> u64 {
        self.blocks_per_proc * self.nprocs as u64
    }

    /// First global block id of `rank`.
    pub fn first_block(&self, rank: usize) -> u64 {
        rank as u64 * self.blocks_per_proc
    }

    /// Cells per block (interior only).
    pub fn cells_per_block(&self) -> u64 {
        self.nxb * self.nxb * self.nxb
    }

    /// Cells per block including the corner extension (plotfile w/corners).
    pub fn corner_cells_per_block(&self) -> u64 {
        (self.nxb + 1).pow(3)
    }

    /// Bytes one checkpoint writes per processor (24 unknowns, f64).
    pub fn checkpoint_bytes_per_proc(&self) -> u64 {
        self.blocks_per_proc * self.cells_per_block() * NUNK as u64 * 8
    }

    /// Deterministic cell value for (variable, global block, cell index),
    /// where `cell` counts the `side`³ interior cells of one block in
    /// row-major order. Cheap enough to regenerate per unknown, so a rank
    /// never holds more than one unknown's guarded blocks at a time; a fill
    /// calls it once per interior cell and never for a guard cell.
    pub fn cell_value(&self, var: usize, block: u64, cell: u64) -> f64 {
        (var as f64 + 1.0) * 1e3 + block as f64 + cell as f64 * 1e-6
    }

    /// One rank's data for `var` with guard cells stripped, for all of its
    /// blocks, in block-major order — the "contiguous user buffer" the
    /// benchmark writes from. `side` is the per-dimension cell count
    /// written (nxb, or nxb+1 for corner plots).
    pub fn interior_buffer(&self, rank: usize, var: usize, side: u64) -> Vec<f64> {
        let mut out = Vec::new();
        self.interior_buffer_into(rank, var, side, &mut out, &mut Vec::new());
        out
    }

    /// [`BlockMesh::interior_buffer`] into `out`, replacing what it held:
    /// a writer strips one unknown after another into the same array, as
    /// FLASH's own checkpoint routine does.
    ///
    /// Each block is filled into the guarded scratch block `guarded` and its
    /// interior copied out: the stripping memcpy the real benchmark
    /// performs. The guards hold a NaN sentinel that must never reach the
    /// file. It is the same in every block, so the scratch block is filled
    /// with it once per call, and each block then writes only its `side`²
    /// interior rows. A writer passes the same scratch with every unknown,
    /// so it allocates it once per file.
    pub fn interior_buffer_into(
        &self,
        rank: usize,
        var: usize,
        side: u64,
        out: &mut Vec<f64>,
        guarded: &mut Vec<f64>,
    ) {
        let g = NGUARD;
        let gside = side + 2 * g;
        out.clear();
        out.reserve_exact((self.blocks_per_proc * side * side * side) as usize);
        guarded.clear();
        guarded.resize((gside * gside * gside) as usize, f64::NAN);
        for b in 0..self.blocks_per_proc {
            let block = self.first_block(rank) + b;
            for z in g..g + side {
                for y in g..g + side {
                    let row = ((z * gside + y) * gside + g) as usize;
                    let first = ((z - g) * side + (y - g)) * side;
                    for (x, cell) in guarded[row..row + side as usize].iter_mut().zip(first..) {
                        *x = self.cell_value(var, block, cell);
                    }
                }
            }
            for z in g..g + side {
                for y in g..g + side {
                    let row = ((z * gside + y) * gside + g) as usize;
                    out.extend_from_slice(&guarded[row..row + side as usize]);
                }
            }
        }
    }

    /// Block refinement levels for this rank's blocks.
    pub fn refine_levels(&self, rank: usize) -> Vec<i32> {
        (0..self.blocks_per_proc)
            .map(|b| 1 + ((self.first_block(rank) + b) % 6) as i32)
            .collect()
    }

    /// Node types (1 = leaf in FLASH).
    pub fn node_types(&self, rank: usize) -> Vec<i32> {
        (0..self.blocks_per_proc)
            .map(|b| {
                if (self.first_block(rank) + b) % 4 == 0 {
                    2
                } else {
                    1
                }
            })
            .collect()
    }

    /// Block center coordinates, `(blocks, 3)` row-major.
    pub fn coordinates(&self, rank: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.blocks_per_proc as usize * 3);
        for b in 0..self.blocks_per_proc {
            let gb = self.first_block(rank) + b;
            out.extend_from_slice(&[gb as f64 * 1.0, gb as f64 * 2.0, gb as f64 * 3.0]);
        }
        out
    }

    /// Block physical sizes, `(blocks, 3)`.
    pub fn block_sizes(&self, rank: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.blocks_per_proc as usize * 3);
        for b in 0..self.blocks_per_proc {
            let lref = 1 + ((self.first_block(rank) + b) % 6) as i32;
            let size = 1.0 / (1 << lref) as f64;
            out.extend_from_slice(&[size, size, size]);
        }
        out
    }

    /// Bounding boxes, `(blocks, 3, 2)`.
    pub fn bounding_boxes(&self, rank: usize) -> Vec<f64> {
        let coords = self.coordinates(rank);
        let sizes = self.block_sizes(rank);
        let mut out = Vec::with_capacity(self.blocks_per_proc as usize * 6);
        for b in 0..self.blocks_per_proc as usize {
            for d in 0..3 {
                let c = coords[b * 3 + d];
                let h = sizes[b * 3 + d] / 2.0;
                out.extend_from_slice(&[c - h, c + h]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_section_5_2() {
        // "In the 8x8x8 case each processor outputs approximately 8 MB and
        // in the 16x16x16 case approximately 60 MB."
        let m8 = BlockMesh::paper(8, 16);
        assert_eq!(m8.checkpoint_bytes_per_proc(), 80 * 512 * 24 * 8);
        let mb8 = m8.checkpoint_bytes_per_proc() as f64 / 1e6;
        assert!((7.0..9.0).contains(&mb8), "{mb8} MB");

        let m16 = BlockMesh::paper(16, 16);
        let mb16 = m16.checkpoint_bytes_per_proc() as f64 / 1e6;
        assert!((58.0..65.0).contains(&mb16), "{mb16} MB");

        // Plotfile sizes: ~1 MB and ~6 MB (4 vars, f32).
        let plot8 = 80 * m8.cells_per_block() * 4 * 4;
        assert!((0.5e6..1.5e6).contains(&(plot8 as f64)), "{plot8}");
        let plot16c = 80 * m16.corner_cells_per_block() * 4 * 4;
        assert!((5e6..8e6).contains(&(plot16c as f64)), "{plot16c}");
    }

    #[test]
    fn interior_buffer_strips_guards() {
        let m = BlockMesh::paper(8, 2);
        let buf = m.interior_buffer(1, 3, 8);
        assert_eq!(buf.len(), (80 * 512) as usize);
        // No guard sentinel leaked.
        assert!(buf.iter().all(|v| v.is_finite()));
        // Spot-check a value: rank 1, block 0 (global 80), first cell.
        assert_eq!(buf[0], m.cell_value(3, 80, 0));
        // Last cell of last block.
        assert_eq!(buf[buf.len() - 1], m.cell_value(3, 80 + 79, 511));
    }

    /// The fill as it was before the guard sentinel was written once per
    /// call: every cell of every guarded block, guard or interior, decided
    /// one at a time. Kept as the oracle of the test below.
    fn per_cell_fill(m: &BlockMesh, rank: usize, var: usize, side: u64) -> Vec<f64> {
        let g = NGUARD;
        let gside = side + 2 * g;
        let mut out = Vec::new();
        let mut guarded = vec![0f64; (gside * gside * gside) as usize];
        for b in 0..m.blocks_per_proc {
            let block = m.first_block(rank) + b;
            for z in 0..gside {
                for y in 0..gside {
                    for x in 0..gside {
                        let idx = (z * gside + y) * gside + x;
                        let interior = (g..g + side).contains(&z)
                            && (g..g + side).contains(&y)
                            && (g..g + side).contains(&x);
                        guarded[idx as usize] = if interior {
                            let cell = ((z - g) * side + (y - g)) * side + (x - g);
                            m.cell_value(var, block, cell)
                        } else {
                            f64::NAN
                        };
                    }
                }
            }
            for z in g..g + side {
                for y in g..g + side {
                    let row = ((z * gside + y) * gside + g) as usize;
                    out.extend_from_slice(&guarded[row..row + side as usize]);
                }
            }
        }
        out
    }

    #[test]
    fn interior_fill_matches_the_per_cell_fill() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // One `out` and one scratch block for every case: the corner size
        // runs first, so a fill that left anything of a longer or an earlier
        // buffer would show.
        let (mut out, mut guarded) = (Vec::new(), Vec::new());
        for nxb in [8, 16] {
            let m = BlockMesh {
                nxb,
                blocks_per_proc: 3,
                nprocs: 3,
            };
            for side in [nxb + 1, nxb] {
                for rank in 0..m.nprocs {
                    for var in [0, NUNK - 1] {
                        m.interior_buffer_into(rank, var, side, &mut out, &mut guarded);
                        let want = per_cell_fill(&m, rank, var, side);
                        assert_eq!(
                            bits(&out),
                            bits(&want),
                            "nxb {nxb} side {side} rank {rank} var {var}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corner_buffer_has_extra_cells() {
        let m = BlockMesh::paper(8, 1);
        let buf = m.interior_buffer(0, 0, 9);
        assert_eq!(buf.len(), (80 * 729) as usize);
        assert!(buf.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn metadata_shapes() {
        let m = BlockMesh::paper(8, 4);
        assert_eq!(m.total_blocks(), 320);
        assert_eq!(m.first_block(2), 160);
        assert_eq!(m.refine_levels(0).len(), 80);
        assert_eq!(m.coordinates(1).len(), 240);
        assert_eq!(m.block_sizes(3).len(), 240);
        assert_eq!(m.bounding_boxes(0).len(), 480);
        // Bounding box sanity: lo < hi.
        let bb = m.bounding_boxes(0);
        for pair in bb.chunks_exact(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn unk_names_are_unique() {
        let mut names = UNK_NAMES.to_vec();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NUNK);
    }
}
