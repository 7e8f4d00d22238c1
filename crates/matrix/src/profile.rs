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
use crate::isa::dispatched;
use crate::layout::Layout;
use crate::ops::SCRATCH;
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

/// Lanes of [`scan_row`]'s finiteness probe: half a group.
const PROBE_LANES: usize = SCAN_LANES / 2;

/// The finiteness probe of [`scan_row`] and [`count_rows`]: each lane the sum
/// of `v * 0.0` over the lanes it saw, a group's two halves folded into the
/// same lanes.  A finite `v` adds a `±0.0` and `±Inf` or `NaN` a `NaN`, which
/// sticks, so the row was finite exactly when every lane still equals `0.0`
/// — multiplies and adds, no compare.  Half a group wide because the probe
/// stays live across the whole scan: a full-group probe, one register more
/// held throughout, read about 4 % slower on sparse 1433-column GEMM scans.
pub(crate) struct FiniteProbe([f32; PROBE_LANES]);

impl FiniteProbe {
    #[inline(always)]
    pub(crate) fn new() -> Self {
        FiniteProbe([0.0; PROBE_LANES])
    }

    #[inline(always)]
    fn add(&mut self, group: &[f32]) {
        let (lo, hi) = group.split_at(group.len().min(PROBE_LANES));
        for (i, p) in self.0.iter_mut().enumerate() {
            let zero = |half: &[f32]| half.get(i).map_or(0.0, |&v| v * 0.0);
            *p += zero(lo) + zero(hi);
        }
    }

    /// [`FiniteProbe::add`] for a whole group, whose halves are both full:
    /// two multiplies and two adds a register wide, no lane shuffled.
    #[inline(always)]
    fn add_group(&mut self, group: &[f32; SCAN_LANES]) {
        let (lo, hi) = group.split_at(PROBE_LANES);
        for ((p, &l), &h) in self.0.iter_mut().zip(lo).zip(hi) {
            *p += l * 0.0 + h * 0.0;
        }
    }

    #[inline(always)]
    pub(crate) fn finite(&self) -> bool {
        self.0.iter().all(|&p| p == 0.0)
    }
}

/// The dense-row scan of the two ingest paths that visit a row's non-zeros
/// (the GEMM row kernel and `CsrMatrix::from_dense`): the host rendering of
/// the paper's profile-while-you-stream hardware.  A scan that only counts
/// is [`count_rows`].
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
///
/// Returns whether every element of `row` is finite.  A `NaN` or `±Inf` lane
/// has magnitude bits, so its group is always live: pass 2 alone tests for
/// them.
#[inline(always)]
pub(crate) fn scan_row(
    row: &[f32],
    blocks: ColumnBlocks,
    counts: &mut [usize],
    mut visit: impl FnMut(usize, &[f32]),
) -> bool {
    debug_assert!(row.len() <= 1 << 32, "column indices are 32-bit");
    let mut probe = FiniteProbe::new();
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
            probe.add(group);
            open.count(counts, k0, group);
            visit(k0, group);
        }
        if is_live(tail) {
            let k0 = k_chunk + groups.len() * SCAN_LANES;
            probe.add(tail);
            open.count(counts, k0, tail);
            visit(k0, tail);
        }
    }
    open.close(counts);
    probe.finite()
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

/// Columns [`count_rows`] counts at a time: a wider row is counted in
/// chunks of this many columns.
pub(crate) const COUNT_COLUMNS: usize = 2048;

/// [`count_rows`]'s scratch: one 32-bit non-zero counter per column of a
/// chunk.  It zeroes the prefix it uses, so what an earlier call left does
/// not matter.
pub(crate) type ColumnCounts = [u32; COUNT_COLUMNS];

/// Adds each element of `values` that [`is_nonzero`] to its lane's counter
/// in `lanes` (as long as `values`) and folds every element into `probe`:
/// per [`SCAN_LANES`]-lane group, a compare and an add per lane, no lane
/// shuffled across.  The probe's float sum, which no compiler may reorder,
/// also keeps the groups in order, each group compiled as one unit.
#[inline(always)]
fn count_lanes(values: &[f32], lanes: &mut [u32], probe: &mut FiniteProbe) {
    let (groups, tail) = values.as_chunks::<SCAN_LANES>();
    let (lane_groups, lane_tail) = lanes.as_chunks_mut::<SCAN_LANES>();
    for (counters, group) in lane_groups.iter_mut().zip(groups) {
        for (n, &v) in counters.iter_mut().zip(group) {
            *n += u32::from(is_nonzero(v));
        }
        probe.add_group(group);
    }
    for (n, &v) in lane_tail.iter_mut().zip(tail) {
        *n += u32::from(is_nonzero(v));
    }
    if !tail.is_empty() {
        probe.add(tail);
    }
}

/// The [`is_nonzero`] elements of the contiguous `values`, each group's
/// lanes added into one group's 32-bit counters held in registers, and every
/// element folded into `probe`.  (Written out rather than calling
/// [`count_lanes`] per group: that read 10–15 % slower on 2708 × 16 and
/// 2708 × 7 refits.)
#[inline(always)]
fn count_slice(values: &[f32], probe: &mut FiniteProbe) -> usize {
    debug_assert!(
        values.len() / SCAN_LANES < 1 << 32,
        "a lane counter is 32-bit"
    );
    let (groups, tail) = values.as_chunks::<SCAN_LANES>();
    let mut lanes = [0u32; SCAN_LANES];
    for group in groups {
        for (n, &v) in lanes.iter_mut().zip(group) {
            *n += u32::from(is_nonzero(v));
        }
        probe.add_group(group);
    }
    if !tail.is_empty() {
        probe.add(tail);
    }
    let tail_nnz = tail.iter().filter(|&&v| is_nonzero(v)).count();
    lanes.iter().map(|&c| c as usize).sum::<usize>() + tail_nnz
}

/// The scan that only counts, of the profile refit and the right-sparse row
/// kernel: over the row-major `rows` (each `n > 0` floats), adds the
/// [`is_nonzero`] elements of each `width`-wide block column to its counter
/// in `counts` (`n.div_ceil(width)` of them) and folds every element into
/// `probe`.
///
/// One branch-free pass with no live-group list.  Every column has a 32-bit
/// counter in `columns`, and each row adds its lanes into them
/// ([`count_lanes`]); the columns are summed into their block columns once
/// per call, not once per row, so no group straddles a block boundary and no
/// column is looked up.  When one block column spans the row (`width >= n`),
/// the rows are one contiguous slice, counted whole by [`count_slice`].
/// Unlike [`scan_row`], an all-zero group costs as much as any other: a count
/// reads every element anyway, and the probe must see every one.
#[inline(always)]
pub(crate) fn count_rows(
    rows: &[f32],
    n: usize,
    width: usize,
    counts: &mut [usize],
    probe: &mut FiniteProbe,
    columns: &mut ColumnCounts,
) {
    debug_assert!(n > 0 && width > 0 && counts.len() == n.div_ceil(width));
    debug_assert!(
        rows.len() / n < 1 << 28,
        "a column counter, and the sum of a group of them, is 32-bit"
    );
    if width >= n {
        counts[0] += count_slice(rows, probe);
        return;
    }
    for c0 in (0..n).step_by(COUNT_COLUMNS) {
        let c1 = n.min(c0 + COUNT_COLUMNS);
        let lanes = &mut columns[..c1 - c0];
        lanes.fill(0);
        for row in rows.chunks_exact(n) {
            count_lanes(&row[c0..c1], lanes, probe);
        }
        add_block_sums(lanes, c0, width, counts);
    }
}

/// Adds the column counters `lanes` of columns `c0..` into the counters of
/// their `width`-wide block columns.
///
/// When blocks are whole groups and the first starts at `c0` (every
/// power-of-two `N2` of 16 or more), each group's lanes are summed first,
/// in one fixed-width loop, and then each block's group sums.  Summing block
/// by block costs a loop per block: on 1433-wide rows at `N2` 16 that read
/// 0.2 µs a call, more than counting a one-row call and a sixth of a
/// ten-row one (the calls of a sampled subgraph's feature refit).
#[inline(always)]
fn add_block_sums(lanes: &[u32], c0: usize, width: usize, counts: &mut [usize]) {
    if width.is_multiple_of(SCAN_LANES) && c0.is_multiple_of(width) {
        let counts = &mut counts[c0 / width..];
        let (groups, tail) = lanes.as_chunks::<SCAN_LANES>();
        let mut sums = [0u32; COUNT_COLUMNS / SCAN_LANES];
        for (sum, group) in sums.iter_mut().zip(groups) {
            *sum = group.iter().sum();
        }
        if !tail.is_empty() {
            sums[groups.len()] = tail.iter().sum();
        }
        let sums = &sums[..lanes.len().div_ceil(SCAN_LANES)];
        let per_block = width / SCAN_LANES;
        if per_block == 1 {
            for (count, &sum) in counts.iter_mut().zip(sums) {
                *count += sum as usize;
            }
        } else {
            for (count, block) in counts.iter_mut().zip(sums.chunks(per_block)) {
                *count += block.iter().map(|&sum| sum as usize).sum::<usize>();
            }
        }
        return;
    }
    let c1 = c0 + lanes.len();
    let (mut b, mut k) = (c0 / width, c0);
    while k < c1 {
        let end = c1.min((b + 1) * width);
        counts[b] += lanes[k - c0..end - c0]
            .iter()
            .map(|&c| c as usize)
            .sum::<usize>();
        (b, k) = (b + 1, end);
    }
}

/// Folds every value of the contiguous `vals` into `probe`, a whole group
/// at a time and the tail once.  The CSR paths probe a grid row's stored
/// values in one call: probed row by row, each row's short tail cost more
/// than the whole count (1.27 %-dense 1433-column rows, 2-core x86-64 VM).
#[inline(always)]
pub(crate) fn probe_values(vals: &[f32], probe: &mut FiniteProbe) {
    let (groups, tail) = vals.as_chunks::<SCAN_LANES>();
    for group in groups {
        probe.add_group(group);
    }
    if !tail.is_empty() {
        probe.add(tail);
    }
}

/// The count of a CSR grid row's stored entries: each column of `cols` adds
/// one to its block column's counter in `counts`, placed by `blocks` (a
/// multiply rather than a divide), and `vals` is probed.  An entry counts
/// because it is stored, whatever its value: an explicit `0.0`, `-0.0` or
/// denormal counts as any other.  Returns whether every value is finite.
/// [`DensityProfile::refit_csr`] and the counted Gustavson block rows run it;
/// the counted gather counts in its first register tile's pass instead.
#[inline(always)]
pub(crate) fn count_stored(
    cols: &[u32],
    vals: &[f32],
    blocks: ColumnBlocks,
    counts: &mut [usize],
) -> bool {
    for &c in cols {
        counts[blocks.of(c as usize)] += 1;
    }
    let mut probe = FiniteProbe::new();
    probe_values(vals, &mut probe);
    probe.finite()
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
    /// grown to the largest grid seen).  A row-major `m` is counted in one
    /// branch-free pass with no live-group list, a grid row's rows at a time
    /// (`count_rows`; one contiguous slice per grid row when a block column
    /// spans the row).  This is the stand-alone runtime Sparsity Profiler of
    /// the serving hot path, for kernels whose own scan does not fill the
    /// profile (see [`DensityProfile::refit_tiled`]).
    ///
    /// Returns whether every element of `m` is finite (neither `NaN` nor
    /// `±Inf`), which the same pass finds out on the way: kernel 0's refit
    /// is where a dense-stored request to a model whose first kernel is an
    /// Aggregate is refused.
    pub fn refit_dense(&mut self, m: &DenseMatrix, grid: &BlockGrid) -> bool {
        self.refit_header(m.shape(), grid);
        let gc = self.grid_cols;
        let br = self.block_rows.max(1);
        if m.layout() == Layout::RowMajor {
            let (data, n, width) = (m.as_slice(), m.cols(), self.block_cols.max(1));
            return SCRATCH.with_borrow_mut(|scratch| {
                refit_dense_rows(
                    data,
                    n,
                    br,
                    width,
                    &mut self.block_nnz,
                    &mut scratch.columns,
                )
            });
        }
        let blocks = ColumnBlocks::new(self.block_cols);
        let mut finite = true;
        for r in 0..m.rows() {
            let counts = &mut self.block_nnz[(r / br) * gc..][..gc];
            for c in 0..m.cols() {
                let v = m.get(r, c);
                counts[blocks.of(c)] += is_nonzero(v) as usize;
                finite &= v.is_finite();
            }
        }
        finite
    }

    /// Recomputes this profile in place for a CSR matrix (see
    /// [`DensityProfile::refit_dense`]): one pass over the stored entries, a
    /// grid row's at a time, each placed by a multiply with the block width's
    /// reciprocal rather than a divide, identical to
    /// [`DensityProfile::of_csr`].
    ///
    /// Returns whether every stored value is finite, like
    /// [`DensityProfile::refit_dense`]: kernel 0's refit is where a
    /// CSR-stored request is refused when no kernel counted it on the way
    /// (an Aggregate first, or an Update that ran whole as a skip or a
    /// sparse-sparse product).
    pub fn refit_csr(&mut self, m: &CsrMatrix, grid: &BlockGrid) -> bool {
        self.refit_header(m.shape(), grid);
        let blocks = ColumnBlocks::new(self.block_cols);
        let (br, rows) = (self.block_rows.max(1), m.rows());
        let mut finite = true;
        let grid_rows = self.block_nnz.chunks_exact_mut(self.grid_cols.max(1));
        for (gr, counts) in grid_rows.enumerate() {
            let r0 = rows.min(gr * br);
            let (cols, vals) = m.stored_rows(r0, rows.min(r0 + br));
            finite &= count_stored(cols, vals, blocks, counts);
        }
        finite
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

dispatched! {
    /// [`DensityProfile::refit_dense`]'s row loop over the row-major `data`:
    /// each grid row's `br` rows (`n` floats each) are counted by
    /// [`count_rows`] into their counters of `block_nnz`, one per
    /// `width`-wide block column, with `columns` as its scratch.  Returns
    /// whether every element is finite.
    fn refit_dense_rows(
        data: &[f32],
        n: usize,
        br: usize,
        width: usize,
        block_nnz: &mut [usize],
        columns: &mut ColumnCounts,
    ) -> bool {
        if n == 0 {
            return true;
        }
        let gc = n.div_ceil(width);
        let mut probe = FiniteProbe::new();
        for (rows, counts) in data.chunks(br * n).zip(block_nnz.chunks_exact_mut(gc)) {
            count_rows(rows, n, width, counts, &mut probe, columns);
        }
        probe.finite()
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
