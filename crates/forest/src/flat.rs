//! Flat-node fast predict layout ([`crate::hyper::FitMode::Fast`]).
//!
//! The exact predict kernel descends the pointer-style [`Node`] arena: every
//! step matches an enum tag, dispatches on the [`SplitRule`] variant, and
//! branches on the routing predicate — per-node branches on top of the
//! dependent node load, with a bounds check on every arena access. This
//! module compiles each fitted tree **once** into a flat breadth-first
//! layout whose descent step is fully branch-free *and* fully check-free,
//! and batch-predicts through it:
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
//!   the pointer descent lands on — per-tree predictions are
//!   **kernel-invariant** (asserted by the `flat_predict` suite).
//! - **No bounds checks on the hot path** (the workspace forbids `unsafe`,
//!   so the checks are *eliminated structurally*): the node array is padded
//!   to a power-of-two length and indices masked with `len - 1`, rows live
//!   in fixed-stride `[f64; STRIDE]` records with the feature index masked
//!   by `STRIDE - 1`, and lane ids are compile-time literals of an unrolled
//!   [`LANES`]-wide loop — every index is provably in range, so the
//!   optimizer drops the checks. The masks are identities (real ids and
//!   features are always in range), so routing is unchanged bitwise.
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
//! Only the *ensemble fold* distinguishes fast batch prediction from the
//! exact kernel: per-tree leaf means are folded through four accumulator
//! lanes ([`fold_lanes`]) instead of one serial chain, which breaks the
//! floating-point add dependency that bounds the exact fold. The lane
//! assignment is a pure function of the tree index, so fast predictions stay
//! deterministic and width/deal-order invariant — just bitwise different
//! from the exact fold, the same freedom the fast *fit* engine already
//! exercises (DESIGN.md §14).
//!
//! Two pieces serve the incremental pool-score cache's partial-refit loop:
//! [`StridedPool`] keeps the (static) candidate pool pre-transposed into
//! the kernel's stride records so each refresh descends it directly, and
//! [`fold_columns`] folds the cached per-tree columns blocked and
//! tree-outer — bit-identical to [`fold_lanes`] per row, but streaming
//! every column sequentially instead of gathering across all columns per
//! row (the gather pattern falls out of cache at realistic pool sizes).

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

/// Rows per parallel chunk (matches the exact kernel's chunking: large
/// enough to amortize per-tree loop overhead, small enough that the chunk's
/// row-major scratch and accumulators stay cache-resident).
const CHUNK: usize = 512;

/// Row-record stride of the narrow fixed-stride path (`d <= 16`, the
/// common tuning-space width).
const STRIDE_NARROW: usize = 16;

/// Row-record stride of the wide fixed-stride path (`d <= 64`). Wider
/// feature spaces fall back to the exact kernel's chunked pointer descent —
/// see [`supports_width`].
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

    /// Routes [`LANES`] fixed-stride rows to their leaves: general step
    /// handling numeric and categorical nodes uniformly. `idx` must start
    /// zeroed and holds leaf node ids on return. The block exits after the
    /// settle iteration (no lane moved); self-looping leaves make the extra
    /// steps of already-finished lanes idempotent.
    #[inline]
    fn descend_mixed<const S: usize>(&self, rows: [&[f64; S]; LANES], idx: &mut [u32; LANES]) {
        let nmask = self.nodes.len() - 1;
        loop {
            let mut moved = 0u32;
            for j in 0..LANES {
                let cur = idx[j];
                let nd = self.nodes[(cur as usize) & nmask];
                let v = rows[j][(nd.feat as usize) & (S - 1)];
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
    fn descend_numeric<const S: usize>(&self, rows: [&[f64; S]; LANES], idx: &mut [u32; LANES]) {
        let nmask = self.num.len() - 1;
        loop {
            // BURST levels per exit check: settled lanes' extra steps are
            // idempotent self-loops, so overrunning a few levels is free
            // next to paying the movement reduction on every level.
            for _ in 1..BURST {
                for j in 0..LANES {
                    let cur = idx[j];
                    let nd = self.num[(cur as usize) & nmask];
                    let v = rows[j][(nd.fk as usize) & (S - 1)];
                    #[allow(clippy::cast_possible_truncation)]
                    let next = (nd.fk >> 32) as u32 + 1 - u32::from(v <= nd.thresh);
                    idx[j] = next;
                }
            }
            let mut moved = 0u32;
            for j in 0..LANES {
                let cur = idx[j];
                let nd = self.num[(cur as usize) & nmask];
                let v = rows[j][(nd.fk as usize) & (S - 1)];
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
    fn descend_block<const S: usize>(&self, rows: [&[f64; S]; LANES], idx: &mut [u32; LANES]) {
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

/// Whether the flat kernel covers this feature width. Spaces wider than
/// [`STRIDE_WIDE`] (none of the paper's — SPAPT peaks at ~20 features)
/// would need bounds-checked row gathers, so the forest skips compiling
/// the flat layout and keeps the exact kernel, `fast_predict() == false`.
pub(crate) fn supports_width(d: usize) -> bool {
    d <= STRIDE_WIDE
}

/// Every tree of a fast-mode forest compiled to the flat layout.
#[derive(Debug, Clone)]
pub(crate) struct FlatForest {
    trees: Vec<FlatTree>,
}

/// Combines the [`FOLD_LANES`] accumulator lanes pairwise — the single
/// place that fixes the fast fold's reduction order.
#[inline]
fn combine(l: &[f64; FOLD_LANES]) -> f64 {
    (l[0] + l[1]) + (l[2] + l[3])
}

/// Folds per-tree values through [`FOLD_LANES`] accumulator lanes (tree `t`
/// into lane `t % FOLD_LANES`, lanes combined pairwise): the fast ensemble
/// fold. Returns `(Σv, Σv²)`. [`PoolScoreCache`] folds its cached columns
/// through this exact function so cached fast scores stay bit-identical to
/// a fresh fast `predict_batch` — the fold order is a pure function of the
/// tree index, never of the schedule.
///
/// [`PoolScoreCache`]: ../../pwu_core/struct.PoolScoreCache.html
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

/// Folds cached per-tree prediction columns into per-row `(Σv, Σv²)` pairs,
/// bit-identical to calling [`fold_lanes`] on each row's tree-order values
/// but blocked for throughput: rows are chunked, and within a chunk the
/// loop runs **tree-outer**, streaming each column sequentially into the
/// chunk's lane accumulators. Per lane the accumulation order is still
/// ascending tree order — exactly [`fold_lanes`]' order — so the result is
/// bitwise identical; what changes is the memory pattern (sequential column
/// reads and check-free slice zips instead of a strided, bounds-checked
/// gather across every column per row).
///
/// # Panics
/// Panics if a column's length differs from `n_rows`.
#[must_use]
pub fn fold_columns(columns: &[Vec<f64>], n_rows: usize) -> Vec<(f64, f64)> {
    for col in columns {
        assert_eq!(col.len(), n_rows, "ragged prediction column");
    }
    let starts: Vec<usize> = (0..n_rows).step_by(CHUNK).collect();
    let per_chunk: Vec<Vec<(f64, f64)>> = starts
        .par_iter()
        .map(|&lo| {
            let m = CHUNK.min(n_rows - lo);
            let mut acc = vec![[0.0f64; 2 * FOLD_LANES]; m];
            // Whole lane-quads of trees per pass: the four lane indices are
            // literals, so the updates are straight-line code over four
            // sequential column streams. Tree `4k + l` still lands in lane
            // `l` with `k` ascending — `fold_lanes`' exact per-lane order.
            let mut quads = columns.chunks_exact(FOLD_LANES);
            for quad in &mut quads {
                let acc = &mut acc[..m];
                let c0 = &quad[0][lo..lo + m];
                let c1 = &quad[1][lo..lo + m];
                let c2 = &quad[2][lo..lo + m];
                let c3 = &quad[3][lo..lo + m];
                for j in 0..m {
                    let a = &mut acc[j];
                    let (v0, v1, v2, v3) = (c0[j], c1[j], c2[j], c3[j]);
                    a[0] += v0;
                    a[1] += v1;
                    a[2] += v2;
                    a[3] += v3;
                    a[FOLD_LANES] += v0 * v0;
                    a[FOLD_LANES + 1] += v1 * v1;
                    a[FOLD_LANES + 2] += v2 * v2;
                    a[FOLD_LANES + 3] += v3 * v3;
                }
            }
            // Leftover trees: their global index is ≡ their remainder
            // index mod FOLD_LANES (the quads consumed a multiple of it).
            for (lane, col) in quads.remainder().iter().enumerate() {
                for (a, &v) in acc.iter_mut().zip(&col[lo..lo + m]) {
                    a[lane] += v;
                    a[FOLD_LANES + lane] += v * v;
                }
            }
            acc.iter()
                .map(|a| {
                    let (s, ss) = a.split_at(FOLD_LANES);
                    (
                        combine(s.try_into().expect("lane count")),
                        combine(ss.try_into().expect("lane count")),
                    )
                })
                .collect()
        })
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// Transposes `x[start..end]` into fixed-stride row records (`buf[j][f]` =
/// row `start + j`, feature `f`; slots past `d` are never consulted —
/// feature indices are always `< d` — so the scratch needs no re-zeroing).
#[allow(clippy::needless_range_loop)] // `f` indexes source column and dest slot
fn transpose_into<const S: usize>(buf: &mut [[f64; S]], x: &FeatureMatrix, start: usize, end: usize) {
    for f in 0..x.n_cols() {
        let col = &x.column(f)[start..end];
        for (j, &v) in col.iter().enumerate() {
            buf[j][f] = v;
        }
    }
}

/// Allocating form of [`transpose_into`] for per-chunk parallel workers.
fn transpose<const S: usize>(x: &FeatureMatrix, start: usize, end: usize) -> Vec<[f64; S]> {
    let mut buf = vec![[0.0f64; S]; end - start];
    transpose_into(&mut buf, x, start, end);
    buf
}

/// The [`LANES`] row references of one block: rows past the chunk's end
/// repeat the block's first row, so tail blocks descend a full complement
/// of lanes (the surplus lanes' leaves are simply never read).
#[inline]
fn block_rows<const S: usize>(buf: &[[f64; S]], lo: usize, k: usize) -> [&[f64; S]; LANES] {
    std::array::from_fn(|j| &buf[lo + if j < k { j } else { 0 }])
}

/// A pool held in the flat kernel's fixed-stride row records, transposed
/// **once** so repeated partial rescans skip the per-call transpose. The
/// incremental pool-score cache builds one of these next to its per-tree
/// columns: the pool is static across refit iterations (rows only leave,
/// via [`StridedPool::swap_remove`]), so re-deriving the strided form on
/// every refresh would redo identical work each iteration.
#[derive(Debug, Clone)]
pub struct StridedPool {
    repr: StridedRepr,
}

#[derive(Debug, Clone)]
enum StridedRepr {
    Narrow(Vec<[f64; STRIDE_NARROW]>),
    Wide(Vec<[f64; STRIDE_WIDE]>),
}

impl StridedPool {
    /// Transposes `x` into stride records, choosing the narrow or wide
    /// stride by width. `None` for spaces wider than the flat kernel
    /// covers ([`RandomForest::fast_predict`] is false there too, so
    /// callers fall back to the pointer kernel consistently).
    ///
    /// [`RandomForest::fast_predict`]: crate::RandomForest::fast_predict
    #[must_use]
    pub fn new(x: &FeatureMatrix) -> Option<Self> {
        let n = x.n_rows();
        if x.n_cols() <= STRIDE_NARROW {
            Some(Self {
                repr: StridedRepr::Narrow(transpose::<STRIDE_NARROW>(x, 0, n)),
            })
        } else if supports_width(x.n_cols()) {
            Some(Self {
                repr: StridedRepr::Wide(transpose::<STRIDE_WIDE>(x, 0, n)),
            })
        } else {
            None
        }
    }

    /// Number of row records.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        match &self.repr {
            StridedRepr::Narrow(records) => records.len(),
            StridedRepr::Wide(records) => records.len(),
        }
    }

    /// Removes row `i` by swapping the last row into its place — the exact
    /// removal primitive [`Pool::take`](pwu_space::Pool::take) uses, so a
    /// caller mirroring pool removals keeps record `i` aligned with pool
    /// row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn swap_remove(&mut self, i: usize) {
        match &mut self.repr {
            StridedRepr::Narrow(records) => {
                records.swap_remove(i);
            }
            StridedRepr::Wide(records) => {
                records.swap_remove(i);
            }
        }
    }
}

/// One chunk's worth of per-tree column segments: every requested tree
/// descends the chunk's pre-transposed records [`LANES`] rows at a time.
fn columns_chunk<const S: usize>(
    trees: &[FlatTree],
    tree_idx: &[usize],
    buf: &[[f64; S]],
) -> Vec<Vec<f64>> {
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
    /// `PWU_THREADS` pool, each chunk is transposed once into fixed-stride
    /// row records, and every tree descends the chunk [`LANES`] rows at a
    /// time. Per row, `terms(tree, leaf)`'s `(value, square)` pair
    /// accumulates into lane `t % FOLD_LANES` of `(Σv, Σv²)`-style
    /// accumulators, combined pairwise exactly like [`fold_lanes`]; the
    /// result goes through `finish(sum, sum_sq, n_trees)`.
    ///
    /// # Panics
    /// Panics if the feature width exceeds [`STRIDE_WIDE`] (compilation is
    /// gated on [`supports_width`], so a compiled layout never sees one).
    pub(crate) fn fold_batch<T: Send>(
        &self,
        x: &FeatureMatrix,
        terms: impl Fn(&FlatTree, usize) -> (f64, f64) + Sync,
        finish: impl Fn(f64, f64, f64) -> T + Sync,
    ) -> Vec<T> {
        if x.n_cols() <= STRIDE_NARROW {
            self.fold_batch_strided::<STRIDE_NARROW, T>(x, &terms, &finish)
        } else {
            assert!(supports_width(x.n_cols()), "feature width exceeds the flat kernel");
            self.fold_batch_strided::<STRIDE_WIDE, T>(x, &terms, &finish)
        }
    }

    fn fold_batch_strided<const S: usize, T: Send>(
        &self,
        x: &FeatureMatrix,
        terms: &(impl Fn(&FlatTree, usize) -> (f64, f64) + Sync),
        finish: &(impl Fn(f64, f64, f64) -> T + Sync),
    ) -> Vec<T> {
        let n_rows = x.n_rows();
        let n = self.trees.len() as f64;
        let starts: Vec<usize> = (0..n_rows).step_by(CHUNK).collect();
        let per_chunk: Vec<Vec<T>> = starts
            .par_iter()
            .map(|&start| {
                let end = (start + CHUNK).min(n_rows);
                let m = end - start;
                let buf = transpose::<S>(x, start, end);
                // Per row: FOLD_LANES sum lanes then FOLD_LANES square
                // lanes, contiguous so a row's whole fold state is one
                // cache line.
                let mut acc = vec![[0.0f64; 2 * FOLD_LANES]; m];
                let mut idx = [0u32; LANES];
                for (t, tree) in self.trees.iter().enumerate() {
                    let lane = t % FOLD_LANES;
                    for block in 0..m.div_ceil(LANES) {
                        let lo = block * LANES;
                        let k = LANES.min(m - lo);
                        idx.fill(0);
                        tree.descend_block(block_rows(&buf, lo, k), &mut idx);
                        for (j, &leaf) in idx[..k].iter().enumerate() {
                            let (v, v2) = terms(tree, leaf as usize);
                            let a = &mut acc[lo + j];
                            a[lane] += v;
                            a[FOLD_LANES + lane] += v2;
                        }
                    }
                }
                acc.iter()
                    .map(|a| {
                        let (s, ss) = a.split_at(FOLD_LANES);
                        finish(
                            combine(s.try_into().expect("lane count")),
                            combine(ss.try_into().expect("lane count")),
                            n,
                        )
                    })
                    .collect()
            })
            .collect();
        per_chunk.into_iter().flatten().collect()
    }

    /// Batch `(Σμ, Σμ²)` fold — the across-tree `(mean, std)` estimator's
    /// input, lane-folded per [`fold_lanes`].
    pub(crate) fn fold_mu<T: Send>(
        &self,
        x: &FeatureMatrix,
        finish: impl Fn(f64, f64, f64) -> T + Sync,
    ) -> Vec<T> {
        self.fold_batch(
            x,
            |tree, leaf| {
                let m = tree.mean[leaf];
                (m, m * m)
            },
            finish,
        )
    }

    /// Batch `(Σμ, Σ(σ² + μ²))` fold — the law-of-total-variance
    /// estimator's input, lane-folded per [`fold_lanes`].
    pub(crate) fn fold_total_variance<T: Send>(
        &self,
        x: &FeatureMatrix,
        finish: impl Fn(f64, f64, f64) -> T + Sync,
    ) -> Vec<T> {
        self.fold_batch(x, |tree, leaf| (tree.mean[leaf], tree.second[leaf]), finish)
    }

    /// Per-tree point-prediction columns through the flat layout:
    /// `out[k][i]` is tree `tree_idx[k]`'s prediction for row `i`. Values
    /// are bit-identical to the pointer kernel's
    /// (`RegressionTree::predict_at`) — the descent decisions match
    /// bitwise, and the column holds raw leaf means, no fold — so the
    /// incremental pool-score cache can refresh through whichever kernel
    /// the model currently uses.
    ///
    /// # Panics
    /// Panics if the feature width exceeds [`STRIDE_WIDE`] (compilation is
    /// gated on [`supports_width`]) or a tree index is out of range.
    pub(crate) fn columns(&self, x: &FeatureMatrix, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        if x.n_cols() <= STRIDE_NARROW {
            self.columns_strided::<STRIDE_NARROW>(x, tree_idx)
        } else {
            assert!(supports_width(x.n_cols()), "feature width exceeds the flat kernel");
            self.columns_strided::<STRIDE_WIDE>(x, tree_idx)
        }
    }

    fn columns_strided<const S: usize>(&self, x: &FeatureMatrix, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        let n_rows = x.n_rows();
        let starts: Vec<usize> = (0..n_rows).step_by(CHUNK).collect();
        // Chunk-parallel with the trees inner, like `fold_batch_strided`:
        // each chunk is transposed exactly once no matter how many columns
        // are requested (tree-outer grouping would repeat the transpose per
        // group, a visible fraction of a partial refresh's work).
        let per_chunk: Vec<Vec<Vec<f64>>> = starts
            .par_iter()
            .map(|&start| {
                let end = (start + CHUNK).min(n_rows);
                let buf = transpose::<S>(x, start, end);
                columns_chunk(&self.trees, tree_idx, &buf)
            })
            .collect();
        stitch_columns(n_rows, tree_idx.len(), per_chunk)
    }

    /// [`FlatForest::columns`] over a pre-transposed pool: the descent
    /// reads [`StridedPool`]'s records directly, so a refresh pays zero
    /// transpose work. Values are bit-identical to [`FlatForest::columns`]
    /// on the equivalent [`FeatureMatrix`] — the records hold the same
    /// feature values the per-call transpose would produce.
    pub(crate) fn columns_pre(&self, pool: &StridedPool, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        match &pool.repr {
            StridedRepr::Narrow(records) => self.columns_records::<STRIDE_NARROW>(records, tree_idx),
            StridedRepr::Wide(records) => self.columns_records::<STRIDE_WIDE>(records, tree_idx),
        }
    }

    fn columns_records<const S: usize>(
        &self,
        records: &[[f64; S]],
        tree_idx: &[usize],
    ) -> Vec<Vec<f64>> {
        let n_rows = records.len();
        let starts: Vec<usize> = (0..n_rows).step_by(CHUNK).collect();
        let per_chunk: Vec<Vec<Vec<f64>>> = starts
            .par_iter()
            .map(|&start| {
                let end = (start + CHUNK).min(n_rows);
                columns_chunk(&self.trees, tree_idx, &records[start..end])
            })
            .collect();
        stitch_columns(n_rows, tree_idx.len(), per_chunk)
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

    /// The blocked descent (mixed and numeric-specialized steps, fixed
    /// strides, masked indices, padded arenas, tail-lane padding) must land
    /// every lane on the scalar descent's leaf.
    #[test]
    fn blocked_descent_matches_scalar_descent() {
        let (x, y, kinds) = dataset(300, 13);
        let rows: Vec<u32> = (0..300).collect();
        let cfg = ForestConfig::default();
        let mut rng = Xoshiro256PlusPlus::new(5);
        let tree = RegressionTree::fit(&x, &y, &rows, &kinds, &cfg, &mut rng);
        let flat = FlatTree::compile(&tree);
        assert!(!flat.nodes.is_empty(), "the dataset has a categorical column");
        let buf = transpose::<STRIDE_NARROW>(&x, 0, x.n_rows());
        let m = x.n_rows();
        let mut idx = [0u32; LANES];
        for block in 0..m.div_ceil(LANES) {
            let lo = block * LANES;
            let k = LANES.min(m - lo);
            idx.fill(0);
            flat.descend_block(block_rows(&buf, lo, k), &mut idx);
            for (j, &leaf) in idx[..k].iter().enumerate() {
                assert_eq!(
                    flat.mean[leaf as usize].to_bits(),
                    flat.predict(&x.row(lo + j)).to_bits(),
                    "block {block}, lane {j}"
                );
            }
        }
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
    /// per-row lane fold it replaces — including at chunk boundaries, tail
    /// chunks, and tree counts that don't divide the lane count.
    #[test]
    fn fold_columns_matches_fold_lanes_bitwise() {
        let mut rng = Xoshiro256PlusPlus::new(29);
        for (n_trees, n_rows) in [(1, 7), (6, CHUNK - 1), (64, CHUNK + 33), (17, 3 * CHUNK)] {
            let columns: Vec<Vec<f64>> = (0..n_trees)
                .map(|_| (0..n_rows).map(|_| rng.next_f64() * 20.0 - 10.0).collect())
                .collect();
            let folded = fold_columns(&columns, n_rows);
            assert_eq!(folded.len(), n_rows);
            for (i, &(s, ss)) in folded.iter().enumerate() {
                let (es, ess) = fold_lanes(columns.iter().map(|col| col[i]));
                assert_eq!(s.to_bits(), es.to_bits(), "sum, {n_trees} trees, row {i}");
                assert_eq!(ss.to_bits(), ess.to_bits(), "sum_sq, {n_trees} trees, row {i}");
            }
        }
    }
}
