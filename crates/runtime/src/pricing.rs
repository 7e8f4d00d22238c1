//! Profile-keyed pricing cache.
//!
//! Since the block-granular executor landed, the cycle-level
//! [`Analyzer`] —
//! not the kernels — dominates Dynamic-priced serving.  The fix mirrors the
//! paper's insight in reverse: sparsity profiles that quantize into the same
//! density bucket lead to the same kernel-to-primitive mapping, so their
//! pricing can be *shared* rather than recomputed.
//!
//! The module provides three pieces:
//!
//! * [`PricingKey`] — a 128-bit content hash over everything that feeds a
//!   pricing decision: the calibration fingerprint, the static-operand
//!   fingerprint (adjacency + weight profiles), the kernel's execution
//!   index, the feature profile's shape/grid, the per-block densities
//!   (bucketed on a half-octave log2 grid), and the mapping strategy.
//! * [`PricingCache`] — a fixed-capacity, open-addressed per-session cache
//!   with zero-allocation steady state (like `KernelArena`): hits clone an
//!   `Arc`, misses evict in place.
//! * [`PricingStage`] — the one place a served kernel is priced: it owns
//!   the cache, both fingerprints and the lookup counters, and runs the
//!   cache → miss sequence for every execution path.
//!
//! **Determinism invariant**: a cached [`KernelAnalysis`] must be a pure
//! function of its key.  The analysis is therefore computed from the
//! bucket's canonical *representative* profile (every block's nnz snapped
//! to its bucket's representative density), never from the first-seen
//! exact profile — so pricing is independent of request order,
//! worker count and cache state, and every cross-path bit-identity
//! guarantee (serial vs. multi-worker, batched vs. one by one) holds by
//! construction.

use crate::analyzer::{Analyzer, KernelAnalysis, OperandProfiles};
use crate::strategy::MappingStrategy;
use dynasparse_compiler::CompiledKernel;
use dynasparse_matrix::{DensityProfile, HostCalibration};
use std::sync::Arc;
use std::time::Instant;

/// How `Session::infer` caches Analyzer results.  There is one mode; the
/// type remains only as the `mode` argument of [`PricingKey::base`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PricingCacheMode {
    /// Cache keyed on half-octave density buckets; a miss prices the
    /// bucket's canonical representative profile, so nearby densities share
    /// one Analyzer pass (bounded pricing distortion, see
    /// [`BUCKET_MAX_RATIO`]).
    #[default]
    Bucketed,
}

/// Bucket index reserved for empty blocks.  Exact zeros are preserved by
/// quantization, so Skip decisions are never distorted by the cache.
pub const SKIP_BUCKET: u8 = 0;

/// Buckets per factor-of-two in density (a half-octave grid).
const BUCKETS_PER_OCTAVE: f64 = 2.0;

/// Worst-case multiplicative distortion of a block's density under
/// half-octave bucketing: a true density is at most a quarter octave from
/// its bucket's representative, i.e. a factor of `2^0.25 ≈ 1.19`.
pub const BUCKET_MAX_RATIO: f64 = 1.189207115002721; // 2^(1/4)

/// Quantizes a block occupancy to its density bucket.  Empty blocks (and
/// degenerate zero-area blocks, whose density would be NaN) map to
/// [`SKIP_BUCKET`]; everything else to `1 + round(-2·log2(density))`,
/// clamped so the index always fits a byte.
pub fn density_bucket(nnz: usize, block_area: usize) -> u8 {
    if nnz == 0 || block_area == 0 {
        return SKIP_BUCKET;
    }
    let density = nnz as f64 / block_area as f64;
    if !density.is_finite() || density <= 0.0 {
        return SKIP_BUCKET;
    }
    let idx = (-BUCKETS_PER_OCTAVE * density.min(1.0).log2()).round();
    idx.clamp(0.0, 253.0) as u8 + 1
}

/// The canonical occupancy a bucket prices at: the representative density
/// `2^-((bucket-1)/2)` times the block area, clamped to `[1, area]` so a
/// non-empty block never quantizes to empty (which would turn a priced
/// product into a skipped one).
pub fn bucket_nnz(bucket: u8, block_area: usize) -> usize {
    if bucket == SKIP_BUCKET || block_area == 0 {
        return 0;
    }
    let density = 2f64.powf(-f64::from(bucket - 1) / BUCKETS_PER_OCTAVE);
    ((density * block_area as f64).round() as usize).clamp(1, block_area)
}

/// [`density_bucket`] and [`bucket_nnz`] of one block area as lookup tables,
/// each entry computed the first time it is asked for.  Pricing maps every
/// block of a feature profile per kernel per request, and a profile holds
/// far more blocks than distinct occupancies, so the `log2` / `powf` behind
/// the two functions run once per distinct occupancy, not once per block.
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketTable {
    area: usize,
    /// Bucket of every occupancy in `0..=area`.
    buckets: Vec<u8>,
    /// Representative occupancy of every bucket.
    representatives: Vec<usize>,
}

impl BucketTable {
    /// A bucket not computed yet; [`density_bucket`] stops at 254.
    const NO_BUCKET: u8 = u8::MAX;
    /// A representative not computed yet; real ones are at most the area.
    const NO_REPRESENTATIVE: usize = usize::MAX;

    /// Points the table at blocks of `area` elements.  Entries are a pure
    /// function of the area, so the same area again keeps what is filled.
    fn reset(&mut self, area: usize) {
        if self.buckets.len() == area + 1 {
            return;
        }
        self.area = area;
        self.buckets.clear();
        self.buckets.resize(area + 1, Self::NO_BUCKET);
        self.representatives.clear();
        self.representatives
            .resize(usize::from(Self::NO_BUCKET), Self::NO_REPRESENTATIVE);
    }

    /// [`density_bucket`] of `nnz` over the table's area.  A count beyond
    /// the area reads the full block's entry, which is the bucket
    /// `density_bucket` gives it (densities clamp at 1).
    #[inline]
    fn bucket(&mut self, nnz: usize) -> u8 {
        let nnz = nnz.min(self.area);
        let slot = &mut self.buckets[nnz];
        if *slot == Self::NO_BUCKET {
            *slot = density_bucket(nnz, self.area);
        }
        *slot
    }

    /// [`bucket_nnz`] of `nnz`'s bucket: the occupancy the block prices at.
    #[inline]
    fn representative(&mut self, nnz: usize) -> usize {
        let bucket = self.bucket(nnz);
        let slot = &mut self.representatives[usize::from(bucket)];
        if *slot == Self::NO_REPRESENTATIVE {
            *slot = bucket_nnz(bucket, self.area);
        }
        *slot
    }

    /// Snaps every block of `src` to its bucket's representative occupancy,
    /// in place over `dst`'s reusable counter allocation.
    fn quantize_into(&mut self, src: &DensityProfile, dst: &mut DensityProfile) {
        let (br, bc) = src.block_shape();
        self.reset(br * bc);
        dst.refit_mapped(src, |nnz| self.representative(nnz));
    }
}

/// Snaps every block of a profile to its bucket's representative occupancy,
/// in place over `dst`'s reusable counter allocation.
pub fn quantize_profile_into(src: &DensityProfile, dst: &mut DensityProfile) {
    BucketTable::default().quantize_into(src, dst);
}

// Two independent FNV-1a-style 64-bit streams over 64-bit words; the pair
// gives an effectively 128-bit key, so accidental collisions across a serve
// lifetime are not a practical concern (and a collision only ever swaps in
// the pricing of a *different* profile — embeddings are never affected).
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Clone, Copy)]
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    fn new() -> Self {
        Fnv2 {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Mixes one word into both streams.  Every operation is a bijection of
    /// the stream's state and, for a given state, of the word — so two
    /// inputs that differ in a single word never share either half.  A
    /// multiply only carries a word's bits upwards, so the shift folds the
    /// high half back down before the next word comes in, and stream `b`
    /// reads the word with its halves swapped: whichever lane of a word
    /// changes, one of the two streams carries it through its whole state.
    #[inline]
    fn word(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(FNV_PRIME);
        self.a ^= self.a >> 32;
        self.b = (self.b ^ v.rotate_left(32)).wrapping_mul(FNV_PRIME);
        self.b ^= self.b >> 29;
    }

    #[inline]
    fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

/// Content hash identifying one kernel-pricing problem.  Equal keys imply
/// (by construction) that the Analyzer would be run with identical inputs,
/// so the cached [`KernelAnalysis`] can be reused verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PricingKey {
    hi: u64,
    lo: u64,
}

impl PricingKey {
    /// Builds the strategy-independent part of a kernel's key: calibration
    /// and static-operand fingerprints, kernel execution index, and the
    /// feature profile's shape, grid and per-block density buckets (`_mode`
    /// is the one [`PricingCacheMode`]).  Fold the strategy in with
    /// [`PricingKey::with_strategy`] — the profile is hashed once per
    /// kernel, not once per strategy.
    pub fn base(
        calibration_fingerprint: u64,
        statics_fingerprint: u64,
        kernel_index: usize,
        _mode: PricingCacheMode,
        features: &DensityProfile,
    ) -> PricingKey {
        PricingKey::base_with(
            calibration_fingerprint,
            statics_fingerprint,
            kernel_index,
            features,
            &mut BucketTable::default(),
        )
    }

    /// [`PricingKey::base`] over a caller-kept bucket table, which it points
    /// at the profile's block area.
    fn base_with(
        calibration_fingerprint: u64,
        statics_fingerprint: u64,
        kernel_index: usize,
        features: &DensityProfile,
        buckets: &mut BucketTable,
    ) -> PricingKey {
        let mut h = Fnv2::new();
        h.word(calibration_fingerprint);
        h.word(statics_fingerprint);
        h.usize(kernel_index);
        hash_bucketed(&mut h, features, buckets);
        PricingKey { hi: h.a, lo: h.b }
    }

    /// Folds a mapping strategy into a base key.
    pub fn with_strategy(self, strategy: MappingStrategy) -> PricingKey {
        let tag = match strategy {
            MappingStrategy::Dynamic => 0x9e37_79b9_7f4a_7c15u64,
            MappingStrategy::Static1 => 0xbf58_476d_1ce4_e5b9,
            MappingStrategy::Static2 => 0x94d0_49bb_1331_11eb,
            MappingStrategy::Oracle => 0xd6e8_feb8_6659_fd93,
        };
        PricingKey {
            hi: (self.hi ^ tag).wrapping_mul(FNV_PRIME),
            lo: (self.lo ^ tag.rotate_left(17)).wrapping_mul(FNV_PRIME),
        }
    }
}

/// Hashes a profile's shape and grid, which also fix its block count.
fn hash_grid(h: &mut Fnv2, profile: &DensityProfile) {
    let (rows, cols) = profile.shape();
    let (br, bc) = profile.block_shape();
    let (gr, gc) = profile.grid_shape();
    h.usize(rows);
    h.usize(cols);
    h.usize(br);
    h.usize(bc);
    h.usize(gr);
    h.usize(gc);
}

/// Hashes a profile by its exact per-block counts, one word each.
fn hash_exact(h: &mut Fnv2, profile: &DensityProfile) {
    hash_grid(h, profile);
    for &nnz in profile.block_counts() {
        h.usize(nnz);
    }
}

/// Hashes a profile by its per-block density buckets, eight bucket bytes to
/// a word (the hashed grid fixes the block count, so a short last word
/// cannot alias a full one).
fn hash_bucketed(h: &mut Fnv2, profile: &DensityProfile, buckets: &mut BucketTable) {
    hash_grid(h, profile);
    let (br, bc) = profile.block_shape();
    buckets.reset(br * bc);
    for lanes in profile.block_counts().chunks(8) {
        let word = lanes.iter().rev().fold(0u64, |word, &nnz| {
            word << 8 | u64::from(buckets.bucket(nnz))
        });
        h.word(word);
    }
}

/// Content fingerprint of a calibration: the six coefficients of its SpDMM
/// and Gustavson curves, hashed bit-exactly.  `None` (region cost model) fingerprints to a fixed constant.
pub fn calibration_fingerprint(calibration: Option<&HostCalibration>) -> u64 {
    let Some(c) = calibration else {
        return 0x7f4a_7c15_9e37_79b9;
    };
    let mut h = Fnv2::new();
    for fit in [&c.spdmm, &c.spmm] {
        h.word(fit.work.to_bits());
        h.word(fit.output.to_bits());
        h.word(fit.per_row.to_bits());
    }
    h.a
}

/// Content fingerprint of a plan's static operands (adjacency + weight
/// profiles).  Content-addressed on exact per-block counts, so two template
/// instances of the same subgraph class fingerprint identically and hit
/// each other's pricing across rebinds.
pub fn statics_fingerprint(adjacency: &DensityProfile, weights: &[DensityProfile]) -> u64 {
    let mut h = Fnv2::new();
    hash_exact(&mut h, adjacency);
    h.usize(weights.len());
    for w in weights {
        hash_exact(&mut h, w);
    }
    h.b
}

#[derive(Debug, Clone)]
struct Slot {
    key: PricingKey,
    analysis: Arc<KernelAnalysis>,
    stamp: u64,
}

/// How far an insert probes before evicting the least-recently-used slot in
/// its window.
const PROBE_WINDOW: usize = 8;

/// Fixed-capacity, open-addressed pricing cache with zero-allocation steady
/// state: `get` clones an `Arc`, `insert` either fills an empty slot or
/// replaces the stalest slot of the key's probe window in place.
#[derive(Debug)]
pub struct PricingCache {
    slots: Box<[Option<Slot>]>,
    mask: usize,
    tick: u64,
}

impl PricingCache {
    /// Creates a cache with at least `capacity` slots (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> PricingCache {
        let cap = capacity.max(8).next_power_of_two();
        PricingCache {
            slots: vec![None; cap].into_boxed_slice(),
            mask: cap - 1,
            tick: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn start(&self, key: &PricingKey) -> usize {
        (key.hi ^ key.lo.rotate_left(32)) as usize & self.mask
    }

    /// Looks a key up; a hit refreshes the entry's recency stamp.
    pub fn get(&mut self, key: &PricingKey) -> Option<Arc<KernelAnalysis>> {
        let start = self.start(key);
        self.tick += 1;
        for i in 0..PROBE_WINDOW.min(self.slots.len()) {
            let idx = (start + i) & self.mask;
            match &mut self.slots[idx] {
                Some(slot) if slot.key == *key => {
                    slot.stamp = self.tick;
                    return Some(Arc::clone(&slot.analysis));
                }
                Some(_) => continue,
                None => return None,
            }
        }
        None
    }

    /// Inserts (or refreshes) an entry.  Returns `true` when an unrelated
    /// entry was evicted to make room.
    pub fn insert(&mut self, key: PricingKey, analysis: Arc<KernelAnalysis>) -> bool {
        let start = self.start(&key);
        self.tick += 1;
        let window = PROBE_WINDOW.min(self.slots.len());
        let mut victim = start;
        let mut victim_stamp = u64::MAX;
        for i in 0..window {
            let idx = (start + i) & self.mask;
            match &mut self.slots[idx] {
                Some(slot) if slot.key == key => {
                    slot.analysis = analysis;
                    slot.stamp = self.tick;
                    return false;
                }
                Some(slot) => {
                    if slot.stamp < victim_stamp {
                        victim_stamp = slot.stamp;
                        victim = idx;
                    }
                }
                None => {
                    self.slots[idx] = Some(Slot {
                        key,
                        analysis,
                        stamp: self.tick,
                    });
                    return false;
                }
            }
        }
        self.slots[victim] = Some(Slot {
            key,
            analysis,
            stamp: self.tick,
        });
        true
    }
}

/// Lookup activity of a [`PricingStage`] since the last
/// [`PricingStage::take_counters`]; the `_ns` fields only advance on probed
/// calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PricingCounters {
    /// Wall time spent inside [`PricingStage::price`].
    pub pricing_ns: u64,
    /// Lookups answered by the session cache.
    pub hits: u64,
    /// Lookups that ran the Analyzer.
    pub misses: u64,
    /// Entries displaced from the session cache.
    pub evictions: u64,
    /// Time spent on lookups that hit.  A kernel's key hash is on its first
    /// lookup, so `hit_ns + miss_ns` is `pricing_ns`.
    pub hit_ns: u64,
    /// Time spent on lookups that missed (Analyzer pass included).
    pub miss_ns: u64,
}

/// The pricing stage of a served request: given a kernel's runtime feature
/// profile, one [`KernelAnalysis`] per mapping strategy — from the session
/// cache, else a fresh Analyzer pass that is then inserted.  Every request,
/// served alone or in a batch, is priced by this one call.
#[derive(Debug)]
pub struct PricingStage {
    /// `None` when nothing is priced (no strategies).
    cache: Option<PricingCache>,
    /// Fingerprint of the calibration decisions are priced under.
    calibration_fingerprint: u64,
    /// Fingerprint of the bound plan's static operands, so template
    /// instances of the same subgraph class share pricing while different
    /// topologies never do.
    statics_fingerprint: u64,
    /// Occupancy → bucket → representative tables of the block area being
    /// priced: the key and a miss's quantization read the same entries.
    buckets: BucketTable,
    /// Bucket-representative quantization of the profile being priced
    /// (misses only), shared by every strategy's miss.
    quant_scratch: DensityProfile,
    counters: PricingCounters,
}

impl PricingStage {
    /// A stage caching in (at least) `capacity` slots, keyed under
    /// `calibration` and the plan's static operand profiles.
    /// `capacity == 0` builds no cache, for a session that prices no
    /// strategy: such a stage must be given no analyzers.
    pub fn new(
        capacity: usize,
        calibration: Option<&HostCalibration>,
        adjacency: &DensityProfile,
        weights: &[DensityProfile],
    ) -> PricingStage {
        PricingStage {
            cache: (capacity > 0).then(|| PricingCache::with_capacity(capacity)),
            calibration_fingerprint: calibration_fingerprint(calibration),
            statics_fingerprint: statics_fingerprint(adjacency, weights),
            buckets: BucketTable::default(),
            quant_scratch: DensityProfile::default(),
            counters: PricingCounters::default(),
        }
    }

    /// Replaces the cache with a fresh one of (at least) `capacity` slots;
    /// a no-op for a stage built without one.
    pub fn set_capacity(&mut self, capacity: usize) {
        if self.cache.is_some() {
            self.cache = Some(PricingCache::with_capacity(capacity));
        }
    }

    /// Re-keys the stage for a plan with different static operands.  The
    /// cache survives: it is content-addressed, so a topology seen before
    /// (or another instance of its subgraph class) hits again while a new
    /// one can only miss.
    pub fn rebind_statics(&mut self, adjacency: &DensityProfile, weights: &[DensityProfile]) {
        self.statics_fingerprint = statics_fingerprint(adjacency, weights);
    }

    /// Returns and zeroes the counters.
    pub fn take_counters(&mut self) -> PricingCounters {
        std::mem::take(&mut self.counters)
    }

    /// Prices `kernel` (execution index `kernel_index`) for one request
    /// whose operands profile as `profiles`, pushing one analysis per
    /// analyzer onto `out` in analyzer order.  `probe` turns the
    /// stopwatches on.
    ///
    /// Same-key requests of one batch amortize here: the first misses and
    /// inserts, the rest hit the just-inserted entry.
    pub fn price(
        &mut self,
        kernel_index: usize,
        kernel: &CompiledKernel,
        profiles: &OperandProfiles<'_>,
        analyzers: &[Analyzer],
        probe: bool,
        out: &mut Vec<Arc<KernelAnalysis>>,
    ) {
        let Some(cache) = self.cache.as_mut() else {
            assert!(
                analyzers.is_empty(),
                "a stage without a cache prices nothing"
            );
            return;
        };
        // One running stopwatch, read after every lookup: the key below is
        // on the first lookup's lap, so the hit and miss times add up to
        // the stage's own.
        let mut lap_start = probe.then(Instant::now);
        // The strategy-free part of the key hashes the profile once per
        // kernel; strategies fold in below.
        let base = PricingKey::base_with(
            self.calibration_fingerprint,
            self.statics_fingerprint,
            kernel_index,
            profiles.features,
            &mut self.buckets,
        );
        let mut quantized = false;
        for analyzer in analyzers {
            let key = base.with_strategy(analyzer.strategy());
            let cached = cache.get(&key);
            let hit = cached.is_some();
            let analysis = match cached {
                Some(analysis) => analysis,
                None => {
                    // Determinism invariant: a miss prices the bucket's
                    // canonical representative profile, never the
                    // first-seen exact one, so the cached value is a pure
                    // function of the key (order-, worker- and
                    // cache-state-free).
                    if !quantized {
                        self.buckets
                            .quantize_into(profiles.features, &mut self.quant_scratch);
                        quantized = true;
                    }
                    let representative = OperandProfiles {
                        features: &self.quant_scratch,
                        ..*profiles
                    };
                    let fresh = Arc::new(analyzer.analyze_kernel(kernel, &representative));
                    self.counters.evictions += u64::from(cache.insert(key, Arc::clone(&fresh)));
                    fresh
                }
            };
            out.push(analysis);
            let lap_ns = lap_start.as_mut().map_or(0, |lap_start| {
                let now = Instant::now();
                let ns = now.duration_since(*lap_start).as_nanos() as u64;
                *lap_start = now;
                ns
            });
            self.counters.pricing_ns += lap_ns;
            if hit {
                self.counters.hits += 1;
                self.counters.hit_ns += lap_ns;
            } else {
                self.counters.misses += 1;
                self.counters.miss_ns += lap_ns;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::PrimitiveMix;
    use dynasparse_matrix::partition::BlockGrid;

    fn analysis(total: u64) -> Arc<KernelAnalysis> {
        Arc::new(KernelAnalysis {
            task_cycles: vec![total],
            decisions: 0,
            mix: PrimitiveMix::default(),
            total_cycles: total,
        })
    }

    fn profile(counts: Vec<usize>) -> DensityProfile {
        grid_profile(2, 2, 4, counts)
    }

    /// A profile over a `grid_rows × grid_cols` grid of square blocks.
    fn grid_profile(
        grid_rows: usize,
        grid_cols: usize,
        block: usize,
        counts: Vec<usize>,
    ) -> DensityProfile {
        let (rows, cols) = (grid_rows * block, grid_cols * block);
        let grid = BlockGrid::new(rows, cols, block, block);
        DensityProfile::from_block_nnz(rows, cols, &grid, counts)
    }

    #[test]
    fn buckets_are_monotone_and_skip_preserving() {
        assert_eq!(density_bucket(0, 16), SKIP_BUCKET);
        assert_eq!(density_bucket(5, 0), SKIP_BUCKET);
        assert_eq!(density_bucket(16, 16), 1);
        // Denser blocks never land in a higher (sparser) bucket.
        let mut last = density_bucket(1, 4096);
        for nnz in 2..=4096 {
            let b = density_bucket(nnz, 4096);
            assert!(b <= last, "bucket must not increase with density");
            assert!(b != SKIP_BUCKET);
            last = b;
        }
    }

    #[test]
    fn bucket_representative_bounds_distortion() {
        // Any occupancy's representative is within 2^(1/4) of the true
        // density (plus integer rounding of the representative count).
        for area in [16usize, 64, 256, 1024] {
            for nnz in 1..=area {
                let b = density_bucket(nnz, area);
                let rep = bucket_nnz(b, area);
                assert!(rep >= 1 && rep <= area);
                let ratio = rep as f64 / nnz as f64;
                let slack = 1.0 / nnz as f64; // integer rounding of rep
                assert!(
                    ratio <= BUCKET_MAX_RATIO + slack && ratio >= 1.0 / BUCKET_MAX_RATIO - slack,
                    "area {area} nnz {nnz}: rep {rep} ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn representatives_are_fixed_points_of_quantization() {
        for area in [16usize, 256, 1024] {
            for bucket in 1u8..40 {
                let rep = bucket_nnz(bucket, area);
                let again = bucket_nnz(density_bucket(rep, area), area);
                assert_eq!(rep, again, "area {area} bucket {bucket}");
            }
        }
    }

    #[test]
    fn bucket_table_agrees_with_the_bucket_functions() {
        let mut table = BucketTable::default();
        for area in [0usize, 1, 16, 256, 512, 1024] {
            table.reset(area);
            for nnz in 0..=area {
                let bucket = density_bucket(nnz, area);
                assert_eq!(table.bucket(nnz), bucket, "area {area} nnz {nnz}");
                assert_eq!(
                    table.representative(nnz),
                    bucket_nnz(bucket, area),
                    "area {area} nnz {nnz}"
                );
            }
            // A count no block of this area can hold clamps to the full
            // block instead of indexing past the table.
            for nnz in [area + 1, 10 * area + 7, usize::MAX] {
                assert_eq!(table.bucket(nnz), density_bucket(nnz, area));
                assert_eq!(table.representative(nnz), area);
            }
        }
        // Entries do not survive a change of area.
        table.reset(16);
        assert_eq!(table.bucket(8), density_bucket(8, 16));
        table.reset(256);
        assert_eq!(table.bucket(8), density_bucket(8, 256));
        assert_eq!(
            table.representative(8),
            bucket_nnz(density_bucket(8, 256), 256)
        );
    }

    #[test]
    fn any_one_block_changes_both_halves_of_the_key() {
        // Kernel 0 of Cora GCN-16: 170 x 90 subfibers of 16 x 16, i.e. 1912
        // full words of eight buckets and a tail of four.
        let blocks = 170 * 90;
        assert_eq!(blocks % 8, 4);
        let key = |counts: Vec<usize>| {
            PricingKey::base(
                1,
                2,
                0,
                PricingCacheMode::Bucketed,
                &grid_profile(170, 90, 16, counts),
            )
        };
        let positions = (0..8) // every lane of the first word
            .chain([8, 4_001, 7_650, 15_295]) // later words
            .chain(blocks - 4..blocks); // the tail
        let base = key(vec![4; blocks]);
        for at in positions {
            let mut counts = vec![4; blocks];
            counts[at] = 64;
            let changed = key(counts);
            assert_ne!(changed.hi, base.hi, "block {at}, high half");
            assert_ne!(changed.lo, base.lo, "block {at}, low half");
        }
    }

    #[test]
    fn keys_separate_the_pricing_inputs() {
        let p = profile(vec![4, 0, 16, 2]);
        let base = PricingKey::base(1, 2, 0, PricingCacheMode::Bucketed, &p);
        assert_ne!(
            base,
            PricingKey::base(9, 2, 0, PricingCacheMode::Bucketed, &p),
            "calibration fingerprint must be keyed"
        );
        assert_ne!(
            base,
            PricingKey::base(1, 9, 0, PricingCacheMode::Bucketed, &p),
            "statics fingerprint must be keyed"
        );
        assert_ne!(
            base,
            PricingKey::base(1, 2, 1, PricingCacheMode::Bucketed, &p),
            "kernel index must be keyed"
        );
        assert_ne!(
            base.with_strategy(MappingStrategy::Dynamic),
            base.with_strategy(MappingStrategy::Static1),
            "strategy must be keyed"
        );
        // Same bucket, different exact counts: equal keys.
        let q = profile(vec![4, 0, 15, 2]);
        assert_eq!(
            base,
            PricingKey::base(1, 2, 0, PricingCacheMode::Bucketed, &q)
        );
        // The same over a grid that fills one word of buckets and leaves a
        // tail of seven: the differing block sits in the tail.
        let wide = |last: usize| {
            let mut counts = vec![16, 0, 3, 8, 1, 16, 0, 2, 5, 0, 16, 4, 0, 9];
            counts.push(last);
            grid_profile(5, 3, 4, counts)
        };
        let bucketed =
            |p: &DensityProfile| PricingKey::base(1, 2, 0, PricingCacheMode::Bucketed, p);
        assert_eq!(density_bucket(16, 16), density_bucket(15, 16));
        assert_eq!(bucketed(&wide(16)), bucketed(&wide(15)));
        assert_ne!(bucketed(&wide(16)), bucketed(&wide(2)));
        assert_ne!(bucketed(&wide(1)), bucketed(&wide(0)), "Skip is a bucket");
    }

    #[test]
    fn hit_and_miss_times_add_up_to_the_pricing_time() {
        use dynasparse_accel::{AcceleratorConfig, ComputationCore};
        use dynasparse_compiler::{compile, CompilerConfig};
        use dynasparse_graph::Dataset;
        use dynasparse_model::GnnModel;

        let ds = Dataset::Cora.spec().generate_scaled(7, 0.1);
        let model = GnnModel::gcn(ds.features.dim(), 16, 7, 3);
        let program = compile(&model, &ds, &CompilerConfig::default()).program;
        let statics = &program.static_sparsity;
        let grid = program
            .partition
            .subfiber_grid(ds.graph.num_vertices(), ds.features.dim());
        let features = ds.features.density_profile(&grid);
        let profiles = OperandProfiles {
            adjacency: &statics.adjacency,
            weights: &statics.weights,
            features: &features,
        };
        let core = ComputationCore::new(AcceleratorConfig::default());
        let analyzers = MappingStrategy::paper_strategies().map(|s| Analyzer::new(core, s));
        let mut stage = PricingStage::new(64, None, &statics.adjacency, &statics.weights);
        let mut out = Vec::new();
        // The first call misses every strategy, the second hits them all;
        // either way the key hash is part of the stage's time, so it must be
        // part of a lookup's.
        for (hits, misses) in [(0, 3), (3, 0)] {
            stage.price(
                0,
                &program.kernels[0],
                &profiles,
                &analyzers,
                true,
                &mut out,
            );
            let c = stage.take_counters();
            assert_eq!((c.hits, c.misses), (hits, misses));
            assert!(c.pricing_ns > 0);
            assert_eq!(c.hit_ns + c.miss_ns, c.pricing_ns);
            assert_eq!(c.hit_ns > 0, hits > 0);
            assert_eq!(c.miss_ns > 0, misses > 0);
        }
        // Unprobed calls count lookups but read no clock.
        stage.price(
            0,
            &program.kernels[0],
            &profiles,
            &analyzers,
            false,
            &mut out,
        );
        let c = stage.take_counters();
        assert_eq!((c.hits, c.pricing_ns, c.hit_ns), (3, 0, 0));
    }

    #[test]
    fn cache_hits_and_evicts_within_capacity() {
        let mut cache = PricingCache::with_capacity(8);
        assert_eq!(cache.capacity(), 8);
        let p = profile(vec![1, 2, 3, 4]);
        let keys: Vec<PricingKey> = (0..64)
            .map(|k| PricingKey::base(7, 7, k, PricingCacheMode::Bucketed, &p))
            .collect();
        assert!(cache.is_empty());
        let mut evictions = 0usize;
        for (i, key) in keys.iter().enumerate() {
            assert!(cache.get(key).is_none(), "fresh key {i} must miss");
            if cache.insert(*key, analysis(i as u64)) {
                evictions += 1;
            }
            let hit = cache.get(key).expect("just-inserted key must hit");
            assert_eq!(hit.total_cycles, i as u64);
        }
        assert!(
            evictions >= keys.len() - cache.capacity(),
            "64 inserts into 8 slots must evict, got {evictions}"
        );
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn fingerprints_track_content_not_identity() {
        let a = HostCalibration::reference();
        let b = HostCalibration::reference();
        assert_eq!(
            calibration_fingerprint(Some(&a)),
            calibration_fingerprint(Some(&b))
        );
        // Each of the six coefficients of both curves is hashed.
        type Coefficient = fn(&mut HostCalibration) -> &mut f64;
        let coefficients: [Coefficient; 6] = [
            |c| &mut c.spdmm.work,
            |c| &mut c.spdmm.output,
            |c| &mut c.spdmm.per_row,
            |c| &mut c.spmm.work,
            |c| &mut c.spmm.output,
            |c| &mut c.spmm.per_row,
        ];
        for (i, coefficient) in coefficients.iter().enumerate() {
            let mut c = HostCalibration::reference();
            *coefficient(&mut c) += 1.0e-9;
            assert_ne!(
                calibration_fingerprint(Some(&a)),
                calibration_fingerprint(Some(&c)),
                "coefficient {i}"
            );
        }
        assert_ne!(
            calibration_fingerprint(Some(&a)),
            calibration_fingerprint(None)
        );

        let adj = profile(vec![1, 2, 3, 4]);
        let w1 = profile(vec![4, 4, 4, 4]);
        let w2 = profile(vec![4, 4, 4, 5]);
        assert_eq!(
            statics_fingerprint(&adj, std::slice::from_ref(&w1)),
            statics_fingerprint(&adj.clone(), std::slice::from_ref(&w1))
        );
        assert_ne!(
            statics_fingerprint(&adj, std::slice::from_ref(&w1)),
            statics_fingerprint(&adj, &[w2])
        );
        assert_ne!(
            statics_fingerprint(&adj, std::slice::from_ref(&w1)),
            statics_fingerprint(&w1, &[adj])
        );
    }
}
