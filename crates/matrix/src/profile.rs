//! Sparsity profiling.
//!
//! The accelerator's Sparsity Profiler (an adder tree behind a comparator
//! array at the Result Buffer output) counts the non-zeros of every output
//! partition at runtime and reports the density to the soft processor.  The
//! compiler performs the same profiling at compile time for the adjacency
//! matrix, the weight matrices and the input feature matrix.  This module
//! implements both sides: scalar density helpers and per-partition
//! [`DensityProfile`]s over a [`BlockGrid`].

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::is_nonzero;
use crate::partition::BlockGrid;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Density of an arbitrary slice of values (share of non-zeros).
pub fn density(values: &[f32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| is_nonzero(v)).count() as f64 / values.len() as f64
}

/// Lane-group width of [`scan_row`]'s all-zero test.
pub(crate) const SCAN_LANES: usize = 16;

/// Capacity, in lane groups, of [`scan_row`]'s live-group list.  A longer
/// row is scanned in chunks of this many groups (2048 columns), so the list
/// is a fixed stack array whatever the row length.
const LIVE_GROUPS: usize = 128;
const _: () = assert!(
    LIVE_GROUPS <= 1 << u8::BITS,
    "the list stores group indices as u8"
);

/// The block column of a column index, found without a divide: one
/// reciprocal per block width, then a multiply per lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnBlocks {
    width: usize,
    /// `⌊(2^64 − 1) / w⌋` for the block width `w`, clamped to `[1, 2^32]`.
    recip: u64,
}

impl ColumnBlocks {
    /// Block columns `width` wide.  Every width past `2^32` puts every
    /// column below `2^32` into block 0, as `2^32` does.
    pub(crate) fn new(width: usize) -> Self {
        let width = width.max(1);
        ColumnBlocks {
            width,
            recip: u64::MAX / width.min(1 << 32) as u64,
        }
    }

    /// `k / w` for any column `k < 2^32`.  Write `2^64 − 1 = recip · w + e − 1`
    /// with `1 ≤ e ≤ w`, and `k + 1 = q · w + s` with `1 ≤ s ≤ w`; then
    /// `recip · (k + 1) / 2^64 = q + (s − t) / w` with
    /// `t = e · (k + 1) / 2^64 ∈ (0, 1]`, so `0 ≤ s − t < w` and the floor
    /// is exactly `q`.
    #[inline(always)]
    pub(crate) fn of(self, k: usize) -> usize {
        ((u128::from(self.recip) * (k + 1) as u128) >> 64) as usize
    }
}

/// Whether any lane of `group` is not `±0.0`: one OR of the magnitude bits.
#[inline(always)]
fn is_live(group: &[f32]) -> bool {
    group.iter().fold(0, |bits, v| bits | v.to_bits()) << 1 != 0
}

/// The one dense-row scan every dense ingest path shares (the GEMM row
/// kernel, the right-sparse row kernel, the stand-alone profile refit,
/// `CsrMatrix::from_dense`): the host rendering of the paper's
/// profile-while-you-stream hardware.
///
/// Two passes per chunk of [`LIVE_GROUPS`] lane groups.  **Pass 1** tests
/// every [`SCAN_LANES`]-lane group of the chunk with [`is_live`] and writes
/// its index into a stack list whose length advances only past the live
/// ones — no data-dependent branch, whatever the density.
/// **Pass 2** visits only the listed groups, in increasing `k`: each adds
/// its [`is_nonzero`] count to the counter of its block column in `counts`
/// (a group straddling a block boundary splits its count lane by lane) and
/// is handed to `visit(k, group)`, `k` being the group's first column.  An
/// all-zero group costs pass 1's test and nothing else, so the scan is
/// monotone in density.
#[inline(always)]
pub(crate) fn scan_row(
    row: &[f32],
    blocks: ColumnBlocks,
    counts: &mut [usize],
    mut visit: impl FnMut(usize, &[f32]),
) {
    debug_assert!(row.len() <= 1 << 32, "column indices are 32-bit");
    let mut live = [0u8; LIVE_GROUPS];
    let mut open = OpenBlock::new(blocks);
    for (chunk, k_chunk) in row
        .chunks(LIVE_GROUPS * SCAN_LANES)
        .zip((0..).step_by(LIVE_GROUPS * SCAN_LANES))
    {
        let (groups, tail) = chunk.as_chunks::<SCAN_LANES>();
        let mut len = 0;
        for (g, group) in groups.iter().enumerate() {
            // `len <= g < LIVE_GROUPS`, so the modulo changes nothing; it
            // spares the bounds check.
            live[len % LIVE_GROUPS] = g as u8;
            len += is_live(group) as usize;
        }
        for &g in &live[..len] {
            let (k0, group) = (k_chunk + usize::from(g) * SCAN_LANES, &groups[g as usize]);
            open.count(counts, k0, group);
            visit(k0, group);
        }
        if is_live(tail) {
            let k0 = k_chunk + groups.len() * SCAN_LANES;
            open.count(counts, k0, tail);
            visit(k0, tail);
        }
    }
    open.close(counts);
}

/// [`scan_row`]'s pass-2 counter: the count of the block column the last
/// group fell into is gathered in a register, and the column is looked up
/// again only when a group starts past its end.
struct OpenBlock {
    blocks: ColumnBlocks,
    /// The open block column, its first column past the end, and the
    /// non-zeros gathered for it but not yet added to its counter.
    b: usize,
    end: usize,
    nnz: usize,
}

impl OpenBlock {
    #[inline(always)]
    fn new(blocks: ColumnBlocks) -> Self {
        OpenBlock {
            blocks,
            b: 0,
            end: blocks.width,
            nnz: 0,
        }
    }

    /// Counts the [`is_nonzero`] lanes of the group at columns
    /// `k0..k0 + group.len()`, lane by lane when it straddles a boundary.
    #[inline(always)]
    fn count(&mut self, counts: &mut [usize], k0: usize, group: &[f32]) {
        if k0 >= self.end {
            counts[self.b] += self.nnz;
            self.b = self.blocks.of(k0);
            self.end = (self.b + 1) * self.blocks.width;
            self.nnz = 0;
        }
        if k0 + group.len() <= self.end {
            self.nnz += group.iter().filter(|&&v| is_nonzero(v)).count();
        } else {
            for (k, &v) in (k0..).zip(group) {
                counts[self.blocks.of(k)] += usize::from(is_nonzero(v));
            }
        }
    }

    /// Adds what the open block gathered to its counter.  A row with no
    /// live group touches no counter (a row of no columns has none).
    #[inline(always)]
    fn close(self, counts: &mut [usize]) {
        if self.nnz > 0 {
            counts[self.b] += self.nnz;
        }
    }
}

/// Branch-free compaction of one group [`scan_row`] handed out: stores
/// `(k0 + lane, v)` of every lane at `ks[len]` / `vs[len]` and advances `len`
/// only past the lanes `keep` accepts, so the survivors end up contiguous, in
/// order, with no data-dependent branch.  Needs `group.len()` free slots past
/// `len`; returns the new length.
#[inline(always)]
pub(crate) fn compact_group(
    k0: usize,
    group: &[f32],
    keep: impl Fn(f32) -> bool,
    ks: &mut [u32],
    vs: &mut [f32],
    mut len: usize,
) -> usize {
    for (k, &v) in (k0..).zip(group) {
        ks[len] = k as u32;
        vs[len] = v;
        len += keep(v) as usize;
    }
    len
}

/// Density profile of a matrix over a block grid: the density of every block
/// plus aggregate statistics.  The profile is the information the runtime
/// system consumes for its kernel-to-primitive decisions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DensityProfile {
    rows: usize,
    cols: usize,
    block_rows: usize,
    block_cols: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// nnz of every block, row-major over the grid.
    block_nnz: Vec<usize>,
}

impl DensityProfile {
    /// Profiles a dense matrix over `grid`.
    pub fn of_dense(m: &DenseMatrix, grid: &BlockGrid) -> DensityProfile {
        let mut profile = DensityProfile::default();
        profile.refit_dense(m, grid);
        profile
    }

    /// Profiles a CSR matrix over `grid`.
    pub fn of_csr(m: &CsrMatrix, grid: &BlockGrid) -> DensityProfile {
        let block_nnz: Vec<usize> = grid
            .blocks()
            .par_iter()
            .map(|b| m.block_nnz(b.row_start, b.row_end, b.col_start, b.col_end))
            .collect();
        DensityProfile::from_parts(m.shape(), grid, block_nnz)
    }

    /// Profiles a COO matrix over `grid`.
    pub fn of_coo(m: &CooMatrix, grid: &BlockGrid) -> DensityProfile {
        let block_nnz: Vec<usize> = grid
            .blocks()
            .par_iter()
            .map(|b| m.block_nnz(b.row_start, b.row_end, b.col_start, b.col_end))
            .collect();
        DensityProfile::from_parts(m.shape(), grid, block_nnz)
    }

    /// Recomputes this profile in place for a dense matrix, reusing the
    /// per-block counter allocation (zero-allocation once the counters have
    /// grown to the largest grid seen): a single `scan_row` pass over the
    /// rows through the row-major fast path.  This is the stand-alone
    /// runtime Sparsity Profiler of the serving hot path, for kernels whose
    /// own scan does not fill the profile (see
    /// [`DensityProfile::refit_tiled`]).
    pub fn refit_dense(&mut self, m: &DenseMatrix, grid: &BlockGrid) {
        self.refit_header(m.shape(), grid);
        let gc = self.grid_cols;
        let blocks = ColumnBlocks::new(self.block_cols);
        let br = self.block_rows.max(1);
        for r in 0..m.rows() {
            let counts = &mut self.block_nnz[(r / br) * gc..][..gc];
            match m.row_slice(r) {
                Some(row) => scan_row(row, blocks, counts, |_, _| {}),
                None => {
                    for c in 0..m.cols() {
                        counts[blocks.of(c)] += is_nonzero(m.get(r, c)) as usize;
                    }
                }
            }
        }
    }

    /// Recomputes this profile in place for a CSR matrix (see
    /// [`DensityProfile::refit_dense`]); one pass over the stored entries,
    /// each placed by a multiply with the block width's reciprocal rather
    /// than a divide, identical to [`DensityProfile::of_csr`].
    pub fn refit_csr(&mut self, m: &CsrMatrix, grid: &BlockGrid) {
        self.refit_header(m.shape(), grid);
        let gc = self.grid_cols;
        let blocks = ColumnBlocks::new(self.block_cols);
        let br = self.block_rows.max(1);
        for r in 0..m.rows() {
            let counts = &mut self.block_nnz[(r / br) * gc..][..gc];
            for &c in m.row(r).0 {
                counts[blocks.of(c as usize)] += 1;
            }
        }
    }

    /// Re-tiles this profile for a `rows × cols` matrix cut into
    /// `block_rows × block_cols` tiles, zeroes every counter (reusing the
    /// allocation) and lends the counters out one grid row at a time — each a
    /// `grid_cols`-long `&mut [usize]` covering `block_rows` matrix rows.
    ///
    /// This is the hand-over point of the one-scan dense ingest: a kernel
    /// that streams the matrix anyway (the GEMM row kernel) adds each row
    /// block's per-block-column counts into that block's counter row, and
    /// the profile comes out identical to [`DensityProfile::refit_dense`]
    /// over `BlockGrid::new(rows, cols, block_rows, block_cols)` without a
    /// second pass over the data.  The rows are disjoint, so blocks may be
    /// filled in any order or in parallel.
    pub fn refit_tiled(
        &mut self,
        (rows, cols): (usize, usize),
        (block_rows, block_cols): (usize, usize),
    ) -> std::slice::ChunksMut<'_, usize> {
        assert!(
            block_rows > 0 && block_cols > 0,
            "tile sizes must be positive"
        );
        self.set_header(
            (rows, cols),
            (block_rows, block_cols),
            (rows.div_ceil(block_rows), cols.div_ceil(block_cols)),
        );
        self.block_nnz.chunks_mut(self.grid_cols.max(1))
    }

    fn refit_header(&mut self, shape: (usize, usize), grid: &BlockGrid) {
        self.set_header(
            shape,
            (grid.block_rows(), grid.block_cols()),
            (grid.grid_rows(), grid.grid_cols()),
        );
    }

    fn set_header(
        &mut self,
        (rows, cols): (usize, usize),
        (block_rows, block_cols): (usize, usize),
        (grid_rows, grid_cols): (usize, usize),
    ) {
        self.rows = rows;
        self.cols = cols;
        self.block_rows = block_rows;
        self.block_cols = block_cols;
        self.grid_rows = grid_rows;
        self.grid_cols = grid_cols;
        self.block_nnz.clear();
        self.block_nnz.resize(grid_rows * grid_cols, 0);
    }

    fn from_parts(shape: (usize, usize), grid: &BlockGrid, block_nnz: Vec<usize>) -> Self {
        DensityProfile {
            rows: shape.0,
            cols: shape.1,
            block_rows: grid.block_rows(),
            block_cols: grid.block_cols(),
            grid_rows: grid.grid_rows(),
            grid_cols: grid.grid_cols(),
            block_nnz,
        }
    }

    /// Builds a profile directly from per-block nnz counts (used when the
    /// accelerator's Sparsity Profiler reports output densities block by
    /// block without the host ever seeing the values).
    pub fn from_block_nnz(
        rows: usize,
        cols: usize,
        grid: &BlockGrid,
        block_nnz: Vec<usize>,
    ) -> DensityProfile {
        assert_eq!(
            block_nnz.len(),
            grid.grid_rows() * grid.grid_cols(),
            "one nnz count per block"
        );
        DensityProfile::from_parts((rows, cols), grid, block_nnz)
    }

    /// Shape of the profiled matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Block dimensions `(block_rows, block_cols)` of the grid.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.block_rows, self.block_cols)
    }

    /// Grid dimensions `(grid_rows, grid_cols)`.
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.grid_rows, self.grid_cols)
    }

    /// nnz of the block at grid position `(gr, gc)`.
    pub fn block_nnz(&self, gr: usize, gc: usize) -> usize {
        self.block_nnz[gr * self.grid_cols + gc]
    }

    /// Per-block nnz counts, row-major over the grid.
    pub fn block_counts(&self) -> &[usize] {
        &self.block_nnz
    }

    /// Rewrites this profile as a transformed copy of `src`: same shape and
    /// grid, per-block counts mapped through `f`.  Reuses the counter
    /// allocation (zero-allocation once it has grown to the largest grid
    /// seen) — this is how the pricing cache materializes a bucket's
    /// canonical representative profile on the serving hot path.
    pub fn refit_mapped(&mut self, src: &DensityProfile, mut f: impl FnMut(usize) -> usize) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.block_rows = src.block_rows;
        self.block_cols = src.block_cols;
        self.grid_rows = src.grid_rows;
        self.grid_cols = src.grid_cols;
        self.block_nnz.clear();
        self.block_nnz.extend(src.block_nnz.iter().map(|&n| f(n)));
    }

    /// Density of the block at grid position `(gr, gc)`, relative to the full
    /// (padded) block area — the on-chip buffers always hold a full block.
    pub fn block_density(&self, gr: usize, gc: usize) -> f64 {
        let area = (self.block_rows * self.block_cols) as f64;
        if area == 0.0 {
            0.0
        } else {
            self.block_nnz(gr, gc) as f64 / area
        }
    }

    /// Total number of non-zeros across all blocks.
    pub fn total_nnz(&self) -> usize {
        self.block_nnz.iter().sum()
    }

    /// Overall density of the matrix (relative to its true, unpadded size).
    pub fn overall_density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.total_nnz() as f64 / total as f64
        }
    }

    /// Minimum block density over the grid.
    pub fn min_block_density(&self) -> f64 {
        (0..self.grid_rows)
            .flat_map(|gr| (0..self.grid_cols).map(move |gc| (gr, gc)))
            .map(|(gr, gc)| self.block_density(gr, gc))
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Maximum block density over the grid.
    pub fn max_block_density(&self) -> f64 {
        (0..self.grid_rows)
            .flat_map(|gr| (0..self.grid_cols).map(move |gc| (gr, gc)))
            .map(|(gr, gc)| self.block_density(gr, gc))
            .fold(0.0, f64::max)
    }

    /// Number of completely empty blocks (the runtime system skips these).
    pub fn empty_blocks(&self) -> usize {
        self.block_nnz.iter().filter(|&&n| n == 0).count()
    }

    /// Total number of blocks in the grid.
    pub fn block_count(&self) -> usize {
        self.block_nnz.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::BlockGrid;
    use crate::random::random_dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn column_blocks_divide_exactly() {
        let top = (1usize << 32) - 1;
        for width in [
            1usize,
            2,
            3,
            7,
            16,
            17,
            24,
            1433,
            65_537,
            (1 << 31) + 1,
            top,
            1 << 32,
            (1 << 32) + 5,
            usize::MAX,
        ] {
            let blocks = ColumnBlocks::new(width);
            let last = top / width * width;
            for k in [0, 1, 15, 16, 1432, 1433, 65_536, 1 << 31, top - 1, top]
                .into_iter()
                .chain([
                    width - 1,
                    width,
                    width.saturating_add(1),
                    last.max(1) - 1,
                    last,
                ])
                .filter(|&k| k <= top)
            {
                assert_eq!(blocks.of(k), k / width, "{k} / {width}");
            }
        }
    }

    #[test]
    fn scalar_density() {
        assert_eq!(density(&[]), 0.0);
        assert_eq!(density(&[0.0, 0.0]), 0.0);
        assert_eq!(density(&[1.0, 0.0, 2.0, 0.0]), 0.5);
    }

    #[test]
    fn dense_profile_counts_blocks() {
        let m = DenseMatrix::from_row_major(
            4,
            4,
            vec![
                1.0, 0.0, 0.0, 0.0, //
                0.0, 2.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 3.0,
            ],
        )
        .unwrap();
        let grid = BlockGrid::new(4, 4, 2, 2);
        let p = DensityProfile::of_dense(&m, &grid);
        assert_eq!(p.grid_shape(), (2, 2));
        assert_eq!(p.block_nnz(0, 0), 2);
        assert_eq!(p.block_nnz(0, 1), 0);
        assert_eq!(p.block_nnz(1, 0), 0);
        assert_eq!(p.block_nnz(1, 1), 1);
        assert_eq!(p.total_nnz(), 3);
        assert_eq!(p.empty_blocks(), 2);
        assert!((p.block_density(0, 0) - 0.5).abs() < 1e-12);
        assert!((p.overall_density() - 3.0 / 16.0).abs() < 1e-12);
        assert_eq!(p.min_block_density(), 0.0);
        assert!((p.max_block_density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csr_and_coo_profiles_agree_with_dense() {
        let mut rng = StdRng::seed_from_u64(21);
        let m = random_dense(&mut rng, 50, 37, 0.2);
        let grid = BlockGrid::new(50, 37, 16, 16);
        let pd = DensityProfile::of_dense(&m, &grid);
        let pc = DensityProfile::of_csr(&CsrMatrix::from_dense(&m), &grid);
        let po = DensityProfile::of_coo(&CooMatrix::from_dense(&m), &grid);
        assert_eq!(pd, pc);
        assert_eq!(pd, po);
        // A column-major matrix goes through the element fallback.
        let col_major = m.to_layout(crate::Layout::ColMajor);
        assert_eq!(pd, DensityProfile::of_dense(&col_major, &grid));
    }

    #[test]
    fn padded_fringe_blocks_use_full_block_area() {
        // A 3x3 all-ones matrix on a 2x2 grid: the fringe blocks are padded,
        // so their density is counted against the full 2x2 block.
        let m = DenseMatrix::from_fn(3, 3, |_, _| 1.0);
        let grid = BlockGrid::new(3, 3, 2, 2);
        let p = DensityProfile::of_dense(&m, &grid);
        assert_eq!(p.block_nnz(0, 0), 4);
        assert_eq!(p.block_nnz(1, 1), 1);
        assert!((p.block_density(1, 1) - 0.25).abs() < 1e-12);
        assert!((p.overall_density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_block_nnz_round_trips() {
        let grid = BlockGrid::new(4, 4, 2, 2);
        let p = DensityProfile::from_block_nnz(4, 4, &grid, vec![4, 0, 1, 2]);
        assert_eq!(p.total_nnz(), 7);
        assert_eq!(p.block_count(), 4);
        assert_eq!(p.block_nnz(1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "one nnz count per block")]
    fn from_block_nnz_validates_length() {
        let grid = BlockGrid::new(4, 4, 2, 2);
        let _ = DensityProfile::from_block_nnz(4, 4, &grid, vec![1, 2, 3]);
    }
}
