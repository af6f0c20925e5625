//! The flat-node batch predict kernel — the one batch kernel of every
//! forest, exact or fast.
//!
//! A pointer-style descent of the [`Node`] arena matches an enum tag,
//! dispatches on the [`SplitRule`] variant and branches on the routing
//! predicate at every step — per-node branches on top of the dependent node
//! load, with a bounds check on every arena access. This module compiles
//! each fitted tree **once** into a flat breadth-first layout whose descent
//! step is branch-free (and, at the fixed strides, check-free), and
//! batch-predicts through it:
//!
//! - **One small record per node**, laid out in breadth-first order so the
//!   hot top levels of the tree share cache lines: 24 bytes
//!   ([`FlatNode`]: feature / threshold / child-index / category mask) for
//!   trees with categorical splits, 16 bytes ([`NumNode`]: packed
//!   feature+child word / threshold — four nodes per cache line) for
//!   all-numeric trees. Children are adjacent (`right = kid + 1`), so
//!   routing is `kid + 1 - go_left` — an add, not a select. Leaf `μ`/`σ`
//!   statistics live in parallel flat arrays ([`FlatTree::mean`],
//!   [`FlatTree::second`]) indexed by the same node ids, gathered once per
//!   row after the descent.
//! - **A uniform branch-free step** for every node kind: numeric nodes test
//!   `v <= thresh` with a zero mask, categorical nodes carry `thresh = -∞`
//!   with the rule's membership mask, and leaves *self-loop* (`kid` points
//!   at the node itself, `thresh = +∞` forces `go_left`), so the step never
//!   asks "is this a leaf?". The decisions are bitwise identical to
//!   [`SplitRule::goes_left`], so a flat descent lands on exactly the leaf
//!   the scalar [`RegressionTree::predict`] descent lands on — per-tree
//!   predictions are **kernel-invariant** (asserted by the `flat_predict`
//!   suite against the frozen pointer kernel in [`crate::reference`]).
//! - **No bounds checks on the hot path at the fixed strides** (the
//!   workspace forbids `unsafe`, so the checks are *eliminated
//!   structurally*): the node array is padded to a power-of-two length and
//!   indices masked with `len - 1`, rows live in fixed-stride `[f64; S]`
//!   records ([`STRIDE_NARROW`] for `d <= 16`, [`STRIDE_WIDE`] for
//!   `d <= 64`) with the feature index masked by `S - 1`, and lane ids are
//!   compile-time literals of an unrolled [`LANES`]-wide loop — every index
//!   is provably in range, so the optimizer drops the checks. The masks are
//!   identities (real ids and features are always in range), so routing is
//!   unchanged bitwise. Wider spaces (none of the paper's — SPAPT peaks at
//!   ~20 features) run the *same* descent over one boxed record per row
//!   with a checked feature index, so every width has one kernel.
//! - **Per-tree adaptive node strategy**: [`FlatTree::compile`] inspects
//!   each fitted tree once and picks its layout — trees with no
//!   categorical node take the packed [`NumNode`] records and a descent
//!   step with the mask logic deleted (two loads, one compare, one add per
//!   lane); mixed trees keep the general branch-free step.
//! - **Blocked batch descent**: rows are processed [`LANES`] at a time per
//!   tree, giving the core that many independent load chains to overlap,
//!   and the block exits when no lane moved (self-looping leaves make extra
//!   steps idempotent), so one straggler row cannot serialize the block.
//!   The all-numeric step advances [`BURST`] levels between exit checks —
//!   settled lanes' surplus steps are idempotent self-loops, cheaper than
//!   paying the movement reduction on every level.
//!
//! Only the *ensemble fold* depends on the fit mode ([`Fold`]). Exact
//! forests fold serially: one accumulator per row, trees added in
//! ascending order — the recurrence of `RandomForest::predict_one_at`, so
//! exact batch predictions are bit-identical to the scalar calls. Fast
//! forests fold through four accumulator lanes ([`fold_lanes`]), which
//! breaks the floating-point add dependency of the serial chain. The lane
//! assignment is a pure function of the tree index, so fast predictions
//! stay deterministic and width/deal-order invariant — just bitwise
//! different from the serial fold, the same freedom the fast *fit* engine
//! already exercises (DESIGN.md §14).
//!
//! Two pieces serve the incremental pool-score cache's partial-refit loop:
//! [`StridedPool`] keeps the (static) candidate pool pre-transposed into
//! the kernel's row records so each refresh descends it directly, and
//! [`fold_columns`] folds the cached per-tree columns blocked and
//! tree-outer with either fold — bit-identical per row to the batch
//! kernel's fold, but streaming every column sequentially instead of
//! gathering across all columns per row (the gather pattern falls out of
//! cache at realistic pool sizes).

use rayon::prelude::*;

use pwu_space::FeatureMatrix;

use crate::split::SplitRule;
use crate::tree::{Node, RegressionTree};

/// Rows descended per block: enough independent descent chains to hide the
/// node-load latency, small enough that the lane index state (one `u32`
/// each) stays in the innermost cache and the unrolled step bodies don't
/// spill. 8 and 32 both measured slower on the container.
const LANES: usize = 16;

/// Accumulator lanes of the fast ensemble fold. Tree `t` accumulates into
/// lane `t % FOLD_LANES`; the lanes are combined pairwise at the end.
const FOLD_LANES: usize = 4;

/// Rows per parallel chunk: large enough to amortize per-tree loop
/// overhead, small enough that the chunk's row records and accumulators
/// stay cache-resident.
const CHUNK: usize = 512;

/// Row-record stride of the narrow fixed-stride path (`d <= 16`, the
/// common tuning-space width).
const STRIDE_NARROW: usize = 16;

/// Row-record stride of the wide fixed-stride path (`d <= 64`). Wider
/// feature spaces take boxed records of their own width — the same
/// descent, with a checked feature index.
const STRIDE_WIDE: usize = 64;

/// Descent levels advanced per settled-check in the all-numeric kernel.
/// Settled lanes self-loop, so overrunning by `BURST - 1` levels at the end
/// is idempotent; bursting trades that waste for `BURST - 1` fewer
/// movement-reduction passes per level.
const BURST: usize = 3;

/// One node of the flat layout: the four descent-critical fields packed
/// into a single record so a step touches one cache line.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// Feature column this node tests (0 at leaves — any valid column).
    feat: u32,
    /// Left-child node id; the right child is `kid + 1` (breadth-first
    /// children are adjacent). Leaves self-loop: `kid` is the node's own id.
    kid: u32,
    /// Numeric threshold: `v <= thresh` routes left. `+∞` at leaves (the
    /// self-loop always routes "left"), `-∞` at categorical nodes (the mask
    /// alone decides).
    thresh: f64,
    /// Categorical membership mask (bit `c` routes category `c` left);
    /// zero at numeric nodes and leaves.
    mask: u64,
}

/// [`FlatNode`] for all-numeric trees, 16 bytes: the feature and child
/// indices share one word (`feat | kid << 32` — one load, two shifts) and
/// the dead category mask is gone, so a cache line holds four nodes
/// instead of two and a half.
#[derive(Debug, Clone, Copy)]
struct NumNode {
    /// `feat` in the low half, `kid` in the high half.
    fk: u64,
    thresh: f64,
}

impl NumNode {
    fn pack(nd: &FlatNode) -> Self {
        debug_assert_eq!(nd.mask, 0, "numeric trees carry no category masks");
        Self {
            fk: u64::from(nd.feat) | (u64::from(nd.kid) << 32),
            thresh: nd.thresh,
        }
    }
}

/// One tree compiled to the flat layout.
#[derive(Debug, Clone)]
pub(crate) struct FlatTree {
    /// Breadth-first node records, padded to a power-of-two length with
    /// self-looping leaves so hot-path indices can be masked instead of
    /// bounds-checked. Real node ids never reach the padding. Empty for
    /// all-numeric trees, which live in `num` instead.
    nodes: Vec<FlatNode>,
    /// The packed all-numeric layout (empty for trees with categorical
    /// nodes) — same ids, same padding, half the bytes per node.
    num: Vec<NumNode>,
    /// Leaf mean per node id (`μ` — the tree's prediction; 0 at internals).
    mean: Vec<f64>,
    /// Leaf second moment per node id (`variance + mean²`, the per-tree
    /// term of the law-of-total-variance estimator; 0 at internals).
    second: Vec<f64>,
}

impl FlatTree {
    /// Compiles one fitted tree. The arena is preorder; the flat copy is
    /// breadth-first with children pushed consecutively, which yields the
    /// `right = kid + 1` adjacency by construction.
    fn compile(tree: &RegressionTree) -> Self {
        let arena = tree.nodes();
        let n = arena.len();
        // BFS order of arena indices; `order[flat_id] = arena_id`.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(0);
        let mut head = 0usize;
        while head < order.len() {
            if let Node::Internal { left, right, .. } = arena[order[head] as usize] {
                order.push(left);
                order.push(right);
            }
            head += 1;
        }
        debug_assert_eq!(order.len(), n, "every arena node reachable exactly once");
        // `flat_of[arena_id] = flat_id` for child-pointer rewriting.
        let mut flat_of = vec![0u32; n];
        for (flat_id, &arena_id) in order.iter().enumerate() {
            flat_of[arena_id as usize] = flat_id as u32;
        }
        let mut nodes = Vec::with_capacity(n.next_power_of_two());
        let mut mean = vec![0.0f64; n];
        let mut second = vec![0.0f64; n];
        let mut numeric = true;
        for (flat_id, &arena_id) in order.iter().enumerate() {
            match arena[arena_id as usize] {
                Node::Internal {
                    feature,
                    rule,
                    left,
                    right,
                } => {
                    debug_assert_eq!(
                        flat_of[right as usize],
                        flat_of[left as usize] + 1,
                        "BFS children must be adjacent"
                    );
                    let (thresh, mask) = match rule {
                        SplitRule::Threshold(t) => (t, 0u64),
                        SplitRule::Categories(m) => {
                            numeric = false;
                            (f64::NEG_INFINITY, m)
                        }
                    };
                    nodes.push(FlatNode {
                        feat: feature,
                        kid: flat_of[left as usize],
                        thresh,
                        mask,
                    });
                }
                Node::Leaf(stats) => {
                    nodes.push(FlatNode {
                        feat: 0,
                        kid: flat_id as u32,
                        thresh: f64::INFINITY,
                        mask: 0,
                    });
                    mean[flat_id] = stats.mean;
                    second[flat_id] = stats.variance + stats.mean * stats.mean;
                }
            }
        }
        // Pad to a power of two with unreachable self-looping leaves so the
        // descent can mask node indices (`ix & (len - 1)`) instead of
        // bounds-checking them. The mask is an identity for real ids.
        let padded = n.next_power_of_two();
        for flat_id in n..padded {
            nodes.push(FlatNode {
                feat: 0,
                kid: flat_id as u32,
                thresh: f64::INFINITY,
                mask: 0,
            });
        }
        let mut num = Vec::new();
        if numeric {
            num = nodes.iter().map(NumNode::pack).collect();
            nodes = Vec::new();
        }
        Self {
            nodes,
            num,
            mean,
            second,
        }
    }


    /// Routes [`LANES`] row records to their leaves: general step handling
    /// numeric and categorical nodes uniformly. `idx` must start zeroed and
    /// holds leaf node ids on return. The block exits after the settle
    /// iteration (no lane moved); self-looping leaves make the extra steps
    /// of already-finished lanes idempotent.
    #[inline]
    fn descend_mixed<R: Record>(&self, rows: [&R; LANES], idx: &mut [u32; LANES]) {
        let nmask = self.nodes.len() - 1;
        loop {
            let mut moved = 0u32;
            for j in 0..LANES {
                let cur = idx[j];
                let nd = self.nodes[(cur as usize) & nmask];
                let v = rows[j].feature(nd.feat as usize);
                // `v as u64` saturates negatives to 0; harmless — the mask
                // is zero unless this is a categorical node, whose codes are
                // small non-negative integers (< 64, enforced at fit time).
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let code = (v as u64) & 63;
                let go = u32::from(v <= nd.thresh) | ((nd.mask >> code) as u32 & 1);
                let next = nd.kid + 1 - go;
                moved |= next ^ cur;
                idx[j] = next;
            }
            if moved == 0 {
                break;
            }
        }
    }

    /// [`FlatTree::descend_mixed`] specialized for all-numeric trees over
    /// the packed [`NumNode`] records: the category-mask load and bit test
    /// are deleted, leaving one packed-index load, one threshold load, one
    /// row gather, one compare and one add per lane per level. Bitwise
    /// identical routing (numeric nodes never consult the mask).
    #[inline]
    fn descend_numeric<R: Record>(&self, rows: [&R; LANES], idx: &mut [u32; LANES]) {
        let nmask = self.num.len() - 1;
        loop {
            // BURST levels per exit check: settled lanes' extra steps are
            // idempotent self-loops, so overrunning a few levels is free
            // next to paying the movement reduction on every level.
            for _ in 1..BURST {
                for j in 0..LANES {
                    let cur = idx[j];
                    let nd = self.num[(cur as usize) & nmask];
                    #[allow(clippy::cast_possible_truncation)]
                    let v = rows[j].feature(nd.fk as u32 as usize);
                    #[allow(clippy::cast_possible_truncation)]
                    let next = (nd.fk >> 32) as u32 + 1 - u32::from(v <= nd.thresh);
                    idx[j] = next;
                }
            }
            let mut moved = 0u32;
            for j in 0..LANES {
                let cur = idx[j];
                let nd = self.num[(cur as usize) & nmask];
                #[allow(clippy::cast_possible_truncation)]
                let v = rows[j].feature(nd.fk as u32 as usize);
                #[allow(clippy::cast_possible_truncation)]
                let next = (nd.fk >> 32) as u32 + 1 - u32::from(v <= nd.thresh);
                moved |= next ^ cur;
                idx[j] = next;
            }
            if moved == 0 {
                break;
            }
        }
    }

    /// Dispatches a block descent on the tree's node population.
    #[inline]
    fn descend_block<R: Record>(&self, rows: [&R; LANES], idx: &mut [u32; LANES]) {
        if self.nodes.is_empty() {
            self.descend_numeric(rows, idx);
        } else {
            self.descend_mixed(rows, idx);
        }
    }

    /// Leaf mean for one materialized row (kernel-equivalence tests): a
    /// scalar walk through the same node records and routing arithmetic.
    #[cfg(test)]
    fn predict(&self, row: &[f64]) -> f64 {
        let mut ix = 0u32;
        loop {
            let (feat, kid, thresh, mask) = if self.nodes.is_empty() {
                let nd = self.num[ix as usize];
                #[allow(clippy::cast_possible_truncation)]
                let (feat, kid) = (nd.fk as u32, (nd.fk >> 32) as u32);
                (feat, kid, nd.thresh, 0u64)
            } else {
                let nd = self.nodes[ix as usize];
                (nd.feat, nd.kid, nd.thresh, nd.mask)
            };
            let v = row[feat as usize];
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let code = (v as u64) & 63;
            let go = u32::from(v <= thresh) | ((mask >> code) as u32 & 1);
            let next = kid + 1 - go;
            if next == ix {
                return self.mean[ix as usize];
            }
            ix = next;
        }
    }
}

/// One row's features as the descent reads them.
trait Record: Sync {
    /// Feature `f` of the row (`f` is always below the row's width).
    fn feature(&self, f: usize) -> f64;
}

impl<const S: usize> Record for [f64; S] {
    /// Masked by `S - 1` (`S` is a power of two and `f < S`): an identity
    /// the optimizer can prove in range, so the lookup carries no check.
    #[inline]
    fn feature(&self, f: usize) -> f64 {
        self[f & (S - 1)]
    }
}

impl Record for Box<[f64]> {
    #[inline]
    fn feature(&self, f: usize) -> f64 {
        self[f]
    }
}

/// The ensemble fold of a forest's batch predictions, chosen by its fit
/// mode alone: [`Fold::Lanes`] for [`FitMode::Fast`] with the `fast-path`
/// feature compiled, [`Fold::Serial`] otherwise. The per-tree values are
/// the same either way; only the order of the floating-point adds
/// differs.
///
/// [`FitMode::Fast`]: crate::FitMode::Fast
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// One accumulator per row, trees added in ascending order —
    /// bit-identical to the scalar `RandomForest::predict_one_at`.
    Serial,
    /// Tree `t` into accumulator lane `t % 4`, lanes combined pairwise
    /// ([`fold_lanes`]).
    Lanes,
}

/// Combines the accumulator lanes in use: the serial fold's single lane as
/// is, the [`FOLD_LANES`] lanes pairwise — the single place that fixes the
/// fast fold's reduction order.
#[inline]
fn combine<const L: usize>(l: &[f64; L]) -> f64 {
    match l.as_slice() {
        [a] => *a,
        [a, b, c, d] => (a + b) + (c + d),
        _ => unreachable!("folds use 1 or {FOLD_LANES} lanes"),
    }
}

/// Folds per-tree values through [`FOLD_LANES`] accumulator lanes (tree `t`
/// into lane `t % FOLD_LANES`, lanes combined pairwise): the fast ensemble
/// fold, [`Fold::Lanes`]. Returns `(Σv, Σv²)`. The order is a pure function
/// of the tree index, never of the schedule.
pub fn fold_lanes(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    // Pulled one lane-quad per round so each accumulator is a named local
    // (registers, four independent add chains) rather than an indexed
    // array slot; the per-lane accumulation order is identical to the
    // obvious `s[t % FOLD_LANES] += v` loop.
    let mut s = [0.0f64; FOLD_LANES];
    let mut ss = [0.0f64; FOLD_LANES];
    let mut it = values.into_iter();
    'quads: loop {
        for lane in 0..FOLD_LANES {
            let Some(v) = it.next() else { break 'quads };
            s[lane] += v;
            ss[lane] += v * v;
        }
    }
    (combine(&s), combine(&ss))
}

/// Folds cached per-tree prediction columns into per-row `(Σv, Σv²)` pairs
/// with `fold` — bit-identical to the batch kernel's fold of the same
/// per-tree values, but blocked for throughput: rows are chunked, and
/// within a chunk the loop runs **tree-outer**, streaming each column
/// sequentially into the chunk's accumulators. Per accumulator the order is
/// still ascending tree order, so the result is bitwise identical; what
/// changes is the memory pattern (sequential column reads and check-free
/// slice zips instead of a strided, bounds-checked gather across every
/// column per row).
///
/// # Panics
/// Panics if a column's length differs from `n_rows`.
#[must_use]
pub fn fold_columns(columns: &[Vec<f64>], n_rows: usize, fold: Fold) -> Vec<(f64, f64)> {
    for col in columns {
        assert_eq!(col.len(), n_rows, "ragged prediction column");
    }
    match fold {
        Fold::Serial => fold_columns_in::<1>(columns, n_rows),
        Fold::Lanes => fold_columns_in::<FOLD_LANES>(columns, n_rows),
    }
}

/// [`fold_columns`] with `L` accumulator lanes in use (tree `t` into lane
/// `t % L`).
fn fold_columns_in<const L: usize>(columns: &[Vec<f64>], n_rows: usize) -> Vec<(f64, f64)> {
    let per_chunk: Vec<Vec<(f64, f64)>> = chunks(n_rows)
        .par_iter()
        .map(|rows| {
            let (lo, m) = (rows.start, rows.len());
            let mut acc = vec![[[0.0f64; L]; 2]; m];
            // Whole quads of trees per pass: the four lane indices are
            // constants, so the updates are straight-line code over four
            // sequential column streams. Tree `4k + i` lands in lane
            // `i % L` with `k` ascending — ascending tree order per lane.
            let mut quads = columns.chunks_exact(4);
            for quad in &mut quads {
                let c = [
                    &quad[0][lo..lo + m],
                    &quad[1][lo..lo + m],
                    &quad[2][lo..lo + m],
                    &quad[3][lo..lo + m],
                ];
                for j in 0..m {
                    let a = &mut acc[j];
                    for (i, col) in c.iter().enumerate() {
                        let v = col[j];
                        a[0][i % L] += v;
                        a[1][i % L] += v * v;
                    }
                }
            }
            // Leftover trees: their global index is ≡ their remainder
            // index mod 4 (the quads consumed a multiple of it), and L
            // divides 4.
            for (i, col) in quads.remainder().iter().enumerate() {
                for (a, &v) in acc.iter_mut().zip(&col[lo..lo + m]) {
                    a[0][i % L] += v;
                    a[1][i % L] += v * v;
                }
            }
            acc.iter().map(|[s, ss]| (combine(s), combine(ss))).collect()
        })
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// Transposes `x[start..end]` into row records copied from `blank` (slots
/// past `d` are never consulted — feature indices are always `< d`).
fn transpose_into<T: AsMut<[f64]> + Clone>(x: &FeatureMatrix, start: usize, end: usize, blank: T) -> Vec<T> {
    let mut buf = vec![blank; end - start];
    for f in 0..x.n_cols() {
        let col = &x.column(f)[start..end];
        for (rec, &v) in buf.iter_mut().zip(col) {
            rec.as_mut()[f] = v;
        }
    }
    buf
}

/// The [`LANES`] row references of one block: rows past the chunk's end
/// repeat the block's first row, so tail blocks descend a full complement
/// of lanes (the surplus lanes' leaves are simply never read).
#[inline]
fn block_rows<R: Record>(buf: &[R], lo: usize, k: usize) -> [&R; LANES] {
    std::array::from_fn(|j| &buf[lo + if j < k { j } else { 0 }])
}

/// Rows in the kernel's record layout, the stride picked by width.
#[derive(Debug, Clone)]
enum Records {
    /// `d <= 16`.
    Narrow(Vec<[f64; STRIDE_NARROW]>),
    /// `16 < d <= 64`.
    Wide(Vec<[f64; STRIDE_WIDE]>),
    /// `d > 64`: one boxed record of the row's own width.
    General(Vec<Box<[f64]>>),
}

impl Records {
    /// Transposes `x[start..end]` into records of the stride its width
    /// needs.
    fn transpose(x: &FeatureMatrix, start: usize, end: usize) -> Self {
        let d = x.n_cols();
        if d <= STRIDE_NARROW {
            Self::Narrow(transpose_into(x, start, end, [0.0; STRIDE_NARROW]))
        } else if d <= STRIDE_WIDE {
            Self::Wide(transpose_into(x, start, end, [0.0; STRIDE_WIDE]))
        } else {
            Self::General(transpose_into(x, start, end, vec![0.0; d].into_boxed_slice()))
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Narrow(r) => r.len(),
            Self::Wide(r) => r.len(),
            Self::General(r) => r.len(),
        }
    }

    /// Per-tree column segments of `rows` (see [`columns_chunk`]).
    fn columns(&self, rows: std::ops::Range<usize>, trees: &[FlatTree], tree_idx: &[usize]) -> Vec<Vec<f64>> {
        match self {
            Self::Narrow(r) => columns_chunk(trees, tree_idx, &r[rows]),
            Self::Wide(r) => columns_chunk(trees, tree_idx, &r[rows]),
            Self::General(r) => columns_chunk(trees, tree_idx, &r[rows]),
        }
    }
}

/// A pool held in the flat kernel's row records, transposed **once** so
/// repeated partial rescans skip the per-call transpose. The incremental
/// pool-score cache builds one of these next to its per-tree columns: the
/// pool is static across refit iterations (rows only leave, via
/// [`StridedPool::swap_remove`]), so re-deriving the record form on every
/// refresh would redo identical work each iteration.
#[derive(Debug, Clone)]
pub struct StridedPool {
    records: Records,
    /// Feature columns of the transposed pool.
    n_cols: usize,
}

impl StridedPool {
    /// Transposes `x` into row records, the stride chosen by width.
    #[must_use]
    pub fn new(x: &FeatureMatrix) -> Self {
        Self {
            records: Records::transpose(x, 0, x.n_rows()),
            n_cols: x.n_cols(),
        }
    }

    /// Number of row records.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.records.len()
    }

    /// Feature columns per record.
    pub(crate) fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Removes row `i` by swapping the last row into its place — the exact
    /// removal primitive [`Pool::take`](pwu_space::Pool::take) uses, so a
    /// caller mirroring pool removals keeps record `i` aligned with pool
    /// row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn swap_remove(&mut self, i: usize) {
        match &mut self.records {
            Records::Narrow(r) => {
                r.swap_remove(i);
            }
            Records::Wide(r) => {
                r.swap_remove(i);
            }
            Records::General(r) => {
                r.swap_remove(i);
            }
        }
    }
}

/// One chunk's worth of per-tree column segments: every requested tree
/// descends the chunk's records [`LANES`] rows at a time.
fn columns_chunk<R: Record>(trees: &[FlatTree], tree_idx: &[usize], buf: &[R]) -> Vec<Vec<f64>> {
    let m = buf.len();
    let mut idx = [0u32; LANES];
    let mut segs: Vec<Vec<f64>> = vec![Vec::with_capacity(m); tree_idx.len()];
    for (seg, &t) in segs.iter_mut().zip(tree_idx) {
        let tree = &trees[t];
        for block in 0..m.div_ceil(LANES) {
            let lo = block * LANES;
            let w = LANES.min(m - lo);
            idx.fill(0);
            tree.descend_block(block_rows(buf, lo, w), &mut idx);
            seg.extend(idx[..w].iter().map(|&leaf| tree.mean[leaf as usize]));
        }
    }
    segs
}

/// Stitches per-chunk column segments back into whole columns.
fn stitch_columns(n_rows: usize, n_cols: usize, per_chunk: Vec<Vec<Vec<f64>>>) -> Vec<Vec<f64>> {
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n_rows); n_cols];
    for segs in per_chunk {
        for (col, seg) in cols.iter_mut().zip(segs) {
            col.extend_from_slice(&seg);
        }
    }
    cols
}

/// The `CHUNK`-row ranges of `0..n_rows`, each handed to one pool task.
fn chunks(n_rows: usize) -> Vec<std::ops::Range<usize>> {
    (0..n_rows)
        .step_by(CHUNK)
        .map(|start| start..(start + CHUNK).min(n_rows))
        .collect()
}

/// Every tree of a fitted forest compiled to the flat layout.
#[derive(Debug, Clone)]
pub(crate) struct FlatForest {
    trees: Vec<FlatTree>,
}

impl FlatForest {
    /// Approximate heap bytes held by the compiled trees.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.trees
            .iter()
            .map(|t| {
                t.nodes.capacity() * std::mem::size_of::<FlatNode>()
                    + t.num.capacity() * std::mem::size_of::<NumNode>()
                    + (t.mean.capacity() + t.second.capacity()) * 8
            })
            .sum()
    }

    /// Compiles every tree of a fitted ensemble.
    pub(crate) fn compile(trees: &[RegressionTree]) -> Self {
        // Compiling is O(total nodes) per tree with no cross-tree state, so
        // refits amortize it; parallelizing keeps full-forest compiles off
        // the critical path of `fit` at large tree counts.
        let trees: Vec<FlatTree> = trees.par_iter().map(FlatTree::compile).collect();
        Self { trees }
    }

    /// Recompiles one tree after a partial update.
    pub(crate) fn recompile(&mut self, t: usize, tree: &RegressionTree) {
        self.trees[t] = FlatTree::compile(tree);
    }

    /// Blocked batch fold over the pool: rows are chunked across the
    /// `PWU_THREADS` pool, each chunk is transposed once into row records,
    /// and every tree descends the chunk [`LANES`] rows at a time. Per row,
    /// `terms(tree, leaf)`'s `(value, square)` pair accumulates by `fold`
    /// into `(Σv, Σv²)`-style accumulators; the result goes through
    /// `finish(sum, sum_sq, n_trees)`.
    fn fold_batch<T: Send>(
        &self,
        x: &FeatureMatrix,
        fold: Fold,
        terms: impl Fn(&FlatTree, usize) -> (f64, f64) + Sync,
        finish: impl Fn(f64, f64, f64) -> T + Sync,
    ) -> Vec<T> {
        let per_chunk: Vec<Vec<T>> = chunks(x.n_rows())
            .par_iter()
            .map(|rows| match Records::transpose(x, rows.start, rows.end) {
                Records::Narrow(r) => self.fold_chunk(&r, fold, &terms, &finish),
                Records::Wide(r) => self.fold_chunk(&r, fold, &terms, &finish),
                Records::General(r) => self.fold_chunk(&r, fold, &terms, &finish),
            })
            .collect();
        per_chunk.into_iter().flatten().collect()
    }

    fn fold_chunk<R: Record, T>(
        &self,
        rows: &[R],
        fold: Fold,
        terms: &impl Fn(&FlatTree, usize) -> (f64, f64),
        finish: &impl Fn(f64, f64, f64) -> T,
    ) -> Vec<T> {
        match fold {
            Fold::Serial => self.fold_chunk_in::<1, R, T>(rows, terms, finish),
            Fold::Lanes => self.fold_chunk_in::<FOLD_LANES, R, T>(rows, terms, finish),
        }
    }

    /// One chunk of [`FlatForest::fold_batch`] with `L` accumulator lanes
    /// in use: tree `t` accumulates into lane `t % L`, so `L = 1` is the
    /// serial tree-order fold and `L = FOLD_LANES` the lane fold.
    fn fold_chunk_in<const L: usize, R: Record, T>(
        &self,
        rows: &[R],
        terms: &impl Fn(&FlatTree, usize) -> (f64, f64),
        finish: &impl Fn(f64, f64, f64) -> T,
    ) -> Vec<T> {
        let m = rows.len();
        let n = self.trees.len() as f64;
        // Per row: the sum lanes, then the square lanes — contiguous, so a
        // row's whole fold state is at most one cache line.
        let mut acc = vec![[[0.0f64; L]; 2]; m];
        let mut idx = [0u32; LANES];
        for (t, tree) in self.trees.iter().enumerate() {
            let lane = t % L;
            for block in 0..m.div_ceil(LANES) {
                let lo = block * LANES;
                let k = LANES.min(m - lo);
                idx.fill(0);
                tree.descend_block(block_rows(rows, lo, k), &mut idx);
                for (a, &leaf) in acc[lo..lo + k].iter_mut().zip(&idx[..k]) {
                    let (v, v2) = terms(tree, leaf as usize);
                    a[0][lane] += v;
                    a[1][lane] += v2;
                }
            }
        }
        acc.iter()
            .map(|[s, ss]| finish(combine(s), combine(ss), n))
            .collect()
    }

    /// Batch `(Σμ, Σμ²)` fold — the across-tree `(mean, std)` estimator's
    /// input.
    pub(crate) fn fold_mu<T: Send>(
        &self,
        x: &FeatureMatrix,
        fold: Fold,
        finish: impl Fn(f64, f64, f64) -> T + Sync,
    ) -> Vec<T> {
        self.fold_batch(
            x,
            fold,
            |tree, leaf| {
                let m = tree.mean[leaf];
                (m, m * m)
            },
            finish,
        )
    }

    /// Batch `(Σμ, Σ(σ² + μ²))` fold — the law-of-total-variance
    /// estimator's input. The flat `second` array holds `variance + mean²`,
    /// the term the scalar total-variance loop adds.
    pub(crate) fn fold_total_variance<T: Send>(
        &self,
        x: &FeatureMatrix,
        fold: Fold,
        finish: impl Fn(f64, f64, f64) -> T + Sync,
    ) -> Vec<T> {
        self.fold_batch(x, fold, |tree, leaf| (tree.mean[leaf], tree.second[leaf]), finish)
    }

    /// Per-tree point-prediction columns: `out[k][i]` is tree
    /// `tree_idx[k]`'s prediction for row `i` — raw leaf means, no fold,
    /// bit-identical to `RegressionTree::predict_at`.
    ///
    /// # Panics
    /// Panics if a tree index is out of range.
    pub(crate) fn columns(&self, x: &FeatureMatrix, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        // Chunk-parallel with the trees inner, like `fold_batch`: each
        // chunk is transposed exactly once no matter how many columns are
        // requested.
        let per_chunk: Vec<Vec<Vec<f64>>> = chunks(x.n_rows())
            .par_iter()
            .map(|rows| {
                let records = Records::transpose(x, rows.start, rows.end);
                records.columns(0..rows.len(), &self.trees, tree_idx)
            })
            .collect();
        stitch_columns(x.n_rows(), tree_idx.len(), per_chunk)
    }

    /// [`FlatForest::columns`] over a pre-transposed pool: the descent
    /// reads [`StridedPool`]'s records directly, so a refresh pays zero
    /// transpose work. Values are bit-identical to [`FlatForest::columns`]
    /// on the equivalent [`FeatureMatrix`].
    pub(crate) fn columns_pre(&self, pool: &StridedPool, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        let per_chunk: Vec<Vec<Vec<f64>>> = chunks(pool.n_rows())
            .par_iter()
            .map(|rows| pool.records.columns(rows.clone(), &self.trees, tree_idx))
            .collect();
        stitch_columns(pool.n_rows(), tree_idx.len(), per_chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::ForestConfig;
    use pwu_space::FeatureKind;
    use pwu_stats::Xoshiro256PlusPlus;

    /// Mixed numeric/categorical data exercising both rule encodings.
    fn dataset(n: usize, seed: u64) -> (FeatureMatrix, Vec<f64>, Vec<FeatureKind>) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut x = FeatureMatrix::new(3);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = (rng.next() % 7) as f64;
            let b = rng.next_f64() * 10.0;
            let c = (rng.next() % 5) as f64;
            x.push_row(&[a, b, c]);
            y.push(2.0 * a + b + if c >= 3.0 { 5.0 } else { 0.0 } + 0.1 * rng.next_f64());
        }
        let kinds = vec![
            FeatureKind::Numeric,
            FeatureKind::Numeric,
            FeatureKind::Categorical { n_categories: 5 },
        ];
        (x, y, kinds)
    }

    /// The flat descent must land on exactly the pointer descent's leaf:
    /// per-tree predictions are kernel-invariant bitwise.
    #[test]
    fn flat_tree_predictions_match_pointer_descent_bitwise() {
        let (x, y, kinds) = dataset(200, 11);
        let rows: Vec<u32> = (0..200).collect();
        let cfg = ForestConfig::default();
        for seed in 0..4u64 {
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let tree = RegressionTree::fit(&x, &y, &rows, &kinds, &cfg, &mut rng);
            let flat = FlatTree::compile(&tree);
            for i in 0..x.n_rows() {
                let row = x.row(i);
                assert_eq!(
                    flat.predict(&row).to_bits(),
                    tree.predict(&row).to_bits(),
                    "seed {seed}, row {i}"
                );
            }
        }
    }

    /// Descends every block of `buf` and checks each lane's leaf against
    /// the scalar descent of the same row.
    fn assert_blocks_match_scalar<R: Record>(flat: &FlatTree, buf: &[R], x: &FeatureMatrix) {
        let m = x.n_rows();
        let mut idx = [0u32; LANES];
        for block in 0..m.div_ceil(LANES) {
            let lo = block * LANES;
            let k = LANES.min(m - lo);
            idx.fill(0);
            flat.descend_block(block_rows(buf, lo, k), &mut idx);
            for (j, &leaf) in idx[..k].iter().enumerate() {
                assert_eq!(
                    flat.mean[leaf as usize].to_bits(),
                    flat.predict(&x.row(lo + j)).to_bits(),
                    "block {block}, lane {j}"
                );
            }
        }
    }

    /// The blocked descent (mixed and numeric-specialized steps, fixed and
    /// general strides, masked indices, padded arenas, tail-lane padding)
    /// must land every lane on the scalar descent's leaf.
    #[test]
    fn blocked_descent_matches_scalar_descent() {
        let (x, y, kinds) = dataset(300, 13);
        let rows: Vec<u32> = (0..300).collect();
        let cfg = ForestConfig::default();
        let mut rng = Xoshiro256PlusPlus::new(5);
        let tree = RegressionTree::fit(&x, &y, &rows, &kinds, &cfg, &mut rng);
        let flat = FlatTree::compile(&tree);
        assert!(!flat.nodes.is_empty(), "the dataset has a categorical column");
        let n = x.n_rows();
        assert_blocks_match_scalar(&flat, &transpose_into(&x, 0, n, [0.0; STRIDE_NARROW]), &x);
        assert_blocks_match_scalar(&flat, &transpose_into(&x, 0, n, [0.0; STRIDE_WIDE]), &x);
        assert_blocks_match_scalar(&flat, &transpose_into(&x, 0, n, vec![0.0; 3].into_boxed_slice()), &x);
    }

    /// The lane fold is a pure function of the value sequence and combines
    /// the obvious small cases exactly.
    #[test]
    fn fold_lanes_is_deterministic_and_exact_on_small_inputs() {
        let (s, ss) = fold_lanes([2.0, 3.0]);
        assert_eq!(s, 5.0);
        assert_eq!(ss, 13.0);
        let vals: Vec<f64> = (0..17).map(|i| f64::from(i) * 0.25 + 0.1).collect();
        assert_eq!(fold_lanes(vals.clone()), fold_lanes(vals));
    }

    /// The blocked tree-outer column fold must be bitwise identical to the
    /// per-row fold it replaces — the lane fold and the serial tree-order
    /// recurrence alike — including at chunk boundaries, tail chunks, and
    /// tree counts that don't divide the lane count.
    #[test]
    fn fold_columns_matches_per_row_folds_bitwise() {
        let mut rng = Xoshiro256PlusPlus::new(29);
        for (n_trees, n_rows) in [(1, 7), (6, CHUNK - 1), (64, CHUNK + 33), (17, 3 * CHUNK)] {
            let columns: Vec<Vec<f64>> = (0..n_trees)
                .map(|_| (0..n_rows).map(|_| rng.next_f64() * 20.0 - 10.0).collect())
                .collect();
            let lanes = fold_columns(&columns, n_rows, Fold::Lanes);
            let serial = fold_columns(&columns, n_rows, Fold::Serial);
            assert_eq!((lanes.len(), serial.len()), (n_rows, n_rows));
            for i in 0..n_rows {
                let (es, ess) = fold_lanes(columns.iter().map(|col| col[i]));
                assert_eq!(lanes[i].0.to_bits(), es.to_bits(), "lanes sum, {n_trees} trees, row {i}");
                assert_eq!(lanes[i].1.to_bits(), ess.to_bits(), "lanes sum_sq, {n_trees} trees, row {i}");
                let (mut s, mut ss) = (0.0f64, 0.0f64);
                for col in &columns {
                    s += col[i];
                    ss += col[i] * col[i];
                }
                assert_eq!(serial[i].0.to_bits(), s.to_bits(), "serial sum, {n_trees} trees, row {i}");
                assert_eq!(serial[i].1.to_bits(), ss.to_bits(), "serial sum_sq, {n_trees} trees, row {i}");
            }
        }
    }
}
