//! CART regression trees with variance-reduction splits.
//!
//! The building block of the random forest. Splits minimize the weighted
//! sum of squared errors of the two children; candidate features can be
//! subsampled per split (the `max_features` knob that decorrelates forest
//! members).
//!
//! # Tie order
//!
//! A fitted tree is a function of the order in which each node visits its
//! rows, not only of the row set: node means and split gains are
//! floating-point sums in that order. The order is defined by the
//! original builder (kept as [`naive::fit`]), which stable-sorts a node's
//! rows by the split feature before partitioning, and stable-sorts a
//! working copy by every candidate feature in turn while scanning, so
//! rows with equal values keep the order the previous sort left them in.
//!
//! The fast builder reproduces that permutation exactly without comparing
//! floats. `RankedColumns` ranks each column once per fit in `total_cmp`
//! order, with two values sharing a rank only when their bits are equal.
//! A stable sort by value is then a stable sort by rank, which has one
//! result: the order of the keys `(rank, position)`, where `position` is
//! the row's place in the sequence being sorted. Equal ranks are exactly
//! the `total_cmp` ties, and the position breaks them as stability does.
//! Every sort path produces that order, each from a different property:
//!
//! - *Small nodes* (at most 64 rows, every rank below `2^25`): the keys
//!   `(rank << 6) | position` are distinct and fit an `i32`, so each row's
//!   place is the number of keys below its own. That count has no
//!   data-dependent branch.
//! - *Counting sort* (at most twice as many distinct values as rows): rows
//!   are scattered in the order they arrive, so equal ranks keep their
//!   relative order. A node whose rows share one rank is already sorted.
//! - *Otherwise*: an unstable sort of the distinct `u64` keys
//!   `(rank << 32) | position`. Distinct keys leave the sort no choice.
//!
//! The split is the first candidate feature's sort only when that feature
//! wins; otherwise the node's arrival order is sorted again by the split
//! feature, as the original builder did. A candidate whose sorted rows
//! share one rank (and are not NaN) has no split and is not scanned.
//!
//! The split scan still compares the real values, so `-0.0` and `+0.0`,
//! which rank apart but compare equal, stay unsplittable as before. It
//! computes every position's gain with the original expression and takes
//! it unless `xn <= xv`, the original builder's tie test. That is not
//! `xn > xv`: a NaN neighbour fails both, and it separates. The running
//! sums keep their original order, and row counts enter as `f64`
//! integers, which are exact.

use crate::{check_xy, MlError};
use tuna_stats::rng::Rng;
use tuna_stats::scaler::StandardScaler;

/// Hyperparameters for a single regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum samples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `None` means all.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 24,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
        n: usize,
    },
    Internal {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    n_features: usize,
    /// Total SSE reduction attributed to each feature (for importances).
    feature_gains: Vec<f64>,
}

/// One fit's training matrix: column-major values plus, per column, each
/// row's rank in `total_cmp` order (equal ranks iff equal bits).
pub(crate) struct RankedColumns {
    rows: usize,
    values: Vec<f64>,
    ranks: Vec<u32>,
    /// Distinct values per column (one more than its highest rank).
    distinct: Vec<usize>,
}

impl RankedColumns {
    /// Copies `x` column-major, passing each value through `scaler` when
    /// given (the same `(x - mean) / std` as
    /// [`StandardScaler::transform_row`]), and ranks every column.
    ///
    /// `x` must be a non-empty, rectangular matrix (see `check_xy`).
    pub(crate) fn new(x: &[Vec<f64>], scaler: Option<&StandardScaler>) -> Result<Self, MlError> {
        let rows = x.len();
        let cols = x[0].len();
        if u32::try_from(rows).is_err() {
            return Err(MlError::ShapeMismatch {
                detail: format!("{rows} rows exceed the u32 row-index range"),
            });
        }
        let mut values = vec![0.0; rows * cols];
        for (r, row) in x.iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                values[f * rows + r] = match scaler {
                    Some(s) => (v - s.means()[f]) / s.stds()[f],
                    None => v,
                };
            }
        }
        let mut ranks = vec![0u32; rows * cols];
        let mut distinct = Vec::with_capacity(cols);
        let mut order: Vec<u32> = Vec::with_capacity(rows);
        for (col, rank) in values.chunks_exact(rows).zip(ranks.chunks_exact_mut(rows)) {
            order.clear();
            order.extend(0..rows as u32);
            order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let mut next = 0u32;
            for (i, &r) in order.iter().enumerate() {
                if i > 0 && col[r as usize].to_bits() != col[order[i - 1] as usize].to_bits() {
                    next += 1;
                }
                rank[r as usize] = next;
            }
            distinct.push(next as usize + 1);
        }
        Ok(RankedColumns {
            rows,
            values,
            ranks,
            distinct,
        })
    }

    pub(crate) fn n_rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn n_features(&self) -> usize {
        self.values.len() / self.rows
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.rows..(f + 1) * self.rows]
    }

    /// Column `f`'s ranks and its number of distinct values.
    fn rank(&self, f: usize) -> (&[u32], usize) {
        (
            &self.ranks[f * self.rows..(f + 1) * self.rows],
            self.distinct[f],
        )
    }
}

/// Buffers one tree's build reuses across its nodes.
#[derive(Default)]
pub(crate) struct SplitScratch {
    /// The node's rows in arrival order, kept while `rows` holds the
    /// first candidate's sort.
    arrival: Vec<u32>,
    /// The rows as later candidates sort them, each from the previous.
    order: Vec<u32>,
    features: Vec<usize>,
    sorter: RankSorter,
}

/// Nodes of at most this many rows take the small-node sort.
const SMALL_NODE: usize = 64;
/// Low bits of a small-node key that hold the row's position.
const POS_BITS: u32 = SMALL_NODE.trailing_zeros();
/// Columns with more distinct values than this never take the small-node
/// sort: its keys `(rank << POS_BITS) | position` must fit an `i32`.
const SMALL_RANKS: usize = 1 << (31 - POS_BITS);

/// Stable sorts of row indices by rank (see the module docs).
#[derive(Default)]
struct RankSorter {
    keys: Vec<u64>,
    counts: Vec<u32>,
    copy: Vec<u32>,
}

impl RankSorter {
    /// Stable-sorts `rows` by `rank`, a column with `distinct` ranks.
    ///
    /// A rank-by-counting sort of `i32` keys on nodes of up to
    /// [`SMALL_NODE`] rows, a counting sort when the rank range is small
    /// next to the node, and an unstable sort of `u64` keys otherwise; all
    /// give the one stable order.
    fn sort(&mut self, rows: &mut [u32], (rank, distinct): (&[u32], usize)) {
        let n = rows.len();
        if n <= SMALL_NODE && distinct <= SMALL_RANKS {
            match n {
                0..=8 => small_sort::<8>(rows, rank),
                9..=16 => small_sort::<16>(rows, rank),
                17..=32 => small_sort::<32>(rows, rank),
                _ => small_sort::<SMALL_NODE>(rows, rank),
            }
        } else if distinct <= 2 * n {
            self.count_sort(rows, rank, distinct);
        } else {
            self.key_sort(rows, rank);
        }
    }

    /// Counting sort over the `distinct` rank values. A node whose rows
    /// all share one rank is already in order and is left untouched.
    fn count_sort(&mut self, rows: &mut [u32], rank: &[u32], distinct: usize) {
        let Some(&first) = rows.first() else {
            return;
        };
        self.counts.clear();
        self.counts.resize(distinct + 1, 0);
        for &r in rows.iter() {
            self.counts[rank[r as usize] as usize + 1] += 1;
        }
        if self.counts[rank[first as usize] as usize + 1] as usize == rows.len() {
            return;
        }
        for i in 1..self.counts.len() {
            self.counts[i] += self.counts[i - 1];
        }
        self.copy.clear();
        self.copy.extend_from_slice(rows);
        for &r in &self.copy {
            let slot = &mut self.counts[rank[r as usize] as usize];
            rows[*slot as usize] = r;
            *slot += 1;
        }
    }

    /// Unstable sort of the distinct keys `(rank << 32) | position`.
    fn key_sort(&mut self, rows: &mut [u32], rank: &[u32]) {
        self.copy.clear();
        self.copy.extend_from_slice(rows);
        self.keys.clear();
        self.keys.extend(
            rows.iter()
                .enumerate()
                .map(|(pos, &r)| (u64::from(rank[r as usize]) << 32) | pos as u64),
        );
        self.keys.sort_unstable();
        for (slot, &key) in rows.iter_mut().zip(&self.keys) {
            *slot = self.copy[key as u32 as usize];
        }
    }
}

/// Stable-sorts at most `W <= SMALL_NODE` rows by `rank` (every rank
/// below [`SMALL_RANKS`]): each row goes to the number of keys below its
/// own, over the distinct keys `(rank << POS_BITS) | position`. The count
/// runs over a fixed block of `W` keys padded with `i32::MAX`, which is
/// never below a key, so it has no data-dependent branch. Rows that all
/// share one rank are already in order and are left untouched.
fn small_sort<const W: usize>(rows: &mut [u32], rank: &[u32]) {
    let Some(&first) = rows.first() else {
        return;
    };
    let first = rank[first as usize];
    let mut keys = [i32::MAX; W];
    let mut copy = [0u32; W];
    let mut mixed = 0;
    for ((key, slot), (pos, &r)) in keys.iter_mut().zip(&mut copy).zip(rows.iter().enumerate()) {
        let rank = rank[r as usize];
        mixed |= rank ^ first;
        *key = ((rank << POS_BITS) | pos as u32) as i32;
        *slot = r;
    }
    if mixed == 0 {
        return;
    }
    for (&key, &r) in keys.iter().zip(&copy).take(rows.len()) {
        let dest: u32 = keys.iter().map(|&k| u32::from(k < key)).sum();
        rows[dest as usize] = r;
    }
}

/// The best split found so far across a node's candidate features.
struct Best {
    feature: usize,
    threshold: f64,
    gain: f64,
    left_n: usize,
}

impl RegressionTree {
    /// Fits a tree to `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or ragged.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        params: TreeParams,
        rng: &mut Rng,
    ) -> Result<Self, MlError> {
        check_xy(x, y)?;
        let data = RankedColumns::new(x, None)?;
        let mut rows: Vec<u32> = (0..x.len() as u32).collect();
        Ok(Self::grow(
            &data,
            y,
            &mut rows,
            params,
            rng,
            &mut SplitScratch::default(),
        ))
    }

    /// Fits a tree to the rows `rows` of `data` (a row may repeat, as in
    /// a bootstrap resample); `y` is indexed by row.
    pub(crate) fn grow(
        data: &RankedColumns,
        y: &[f64],
        rows: &mut [u32],
        params: TreeParams,
        rng: &mut Rng,
        scratch: &mut SplitScratch,
    ) -> Self {
        let cols = data.n_features();
        let mut tree = RegressionTree {
            params,
            nodes: Vec::new(),
            n_features: cols,
            feature_gains: vec![0.0; cols],
        };
        tree.build(data, y, rows, 0, rng, scratch);
        tree
    }

    /// Recursively builds the subtree over `rows`, returning its node id.
    fn build(
        &mut self,
        data: &RankedColumns,
        y: &[f64],
        rows: &mut [u32],
        depth: usize,
        rng: &mut Rng,
        scratch: &mut SplitScratch,
    ) -> usize {
        let n = rows.len();
        // One pass; each sum runs in row order from `-0.0`, as `Sum` does.
        let totals = rows.iter().fold((-0.0, -0.0), |(sum, sq): (f64, f64), &i| {
            let yi = y[i as usize];
            (sum + yi, sq + yi * yi)
        });
        let mean = totals.0 / n as f64;

        let must_leaf = depth >= self.params.max_depth
            || n < self.params.min_samples_split
            || n < 2 * self.params.min_samples_leaf;
        if !must_leaf {
            if let Some(best) = self.best_split(data, y, rows, totals, rng, scratch) {
                self.feature_gains[best.feature] += best.gain;
                // `best_split` left `rows` sorted by the split feature.
                let (left_rows, right_rows) = rows.split_at_mut(best.left_n);
                let node_id = self.nodes.len();
                self.nodes.push(Node::Leaf { value: mean, n }); // Placeholder.
                let left = self.build(data, y, left_rows, depth + 1, rng, scratch);
                let right = self.build(data, y, right_rows, depth + 1, rng, scratch);
                self.nodes[node_id] = Node::Internal {
                    feature: best.feature,
                    threshold: best.threshold,
                    left,
                    right,
                };
                return node_id;
            }
        }
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean, n });
        node_id
    }

    /// Finds the best (feature, threshold) split by SSE reduction, given
    /// the node's target sum and sum of squares.
    ///
    /// Returns `None` when no split satisfies the leaf-size constraint or
    /// improves the SSE. On `Some`, `rows` is left stable-sorted by the
    /// split feature, ready to partition; on `None` its order is
    /// unspecified.
    fn best_split(
        &self,
        data: &RankedColumns,
        y: &[f64],
        rows: &mut [u32],
        (total_sum, total_sq): (f64, f64),
        rng: &mut Rng,
        scratch: &mut SplitScratch,
    ) -> Option<Best> {
        let n = rows.len();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        if parent_sse <= 1e-12 {
            return None; // Pure node.
        }

        let k = self
            .params
            .max_features
            .unwrap_or(self.n_features)
            .clamp(1, self.n_features);
        let SplitScratch {
            arrival,
            order,
            features,
            sorter,
        } = scratch;
        if k == self.n_features {
            features.clear();
            features.extend(0..self.n_features);
        } else {
            rng.sample_indices_into(self.n_features, k, features);
        }

        // Each child keeps at least `min_samples_leaf` rows, and one row.
        let min_leaf = self.params.min_samples_leaf.max(1);
        let positions = (min_leaf - 1, n.saturating_sub(min_leaf));
        let mut best: Option<Best> = None;
        arrival.clear();
        arrival.extend_from_slice(rows);
        for (i, &f) in features.iter().enumerate() {
            // Each candidate sorts the order the previous one left. The
            // first sorts `rows` itself, which is then already partitioned
            // when that feature wins.
            if i == 0 {
                sorter.sort(rows, data.rank(f));
                order.clear();
                order.extend_from_slice(rows);
            } else {
                sorter.sort(order, data.rank(f));
            }
            let (rank, _) = data.rank(f);
            let x = data.column(f);
            // Sorted rows that share their first and last rank share one
            // value, and only a NaN separates from itself.
            if rank[order[0] as usize] == rank[order[n - 1] as usize]
                && !x[order[0] as usize].is_nan()
            {
                continue;
            }
            let floor = best.as_ref().map_or(1e-12, |b| b.gain);
            let totals = (total_sum, total_sq, parent_sse);
            if let Some((gain, pos)) = scan(x, y, order, positions, totals, floor) {
                best = Some(Best {
                    feature: f,
                    threshold: 0.5 * (x[order[pos] as usize] + x[order[pos + 1] as usize]),
                    gain,
                    left_n: pos + 1,
                });
            }
        }
        if let Some(b) = &best {
            if b.feature != features[0] {
                rows.copy_from_slice(arrival);
                sorter.sort(rows, data.rank(b.feature));
            }
        }
        best
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training width.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value, .. } => return *value,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (internal + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (root-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Internal { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Per-feature total SSE reduction (unnormalized importances).
    pub fn feature_gains(&self) -> &[f64] {
        &self.feature_gains
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// Scans `order`, stable-sorted by column `x`, for the split with the
/// highest gain above `floor`, trying the positions `first..end` (a split
/// after `pos` puts `pos + 1` rows on the left). Returns that gain and
/// position, or `None` if no split beats `floor`.
///
/// Every position in range computes its gain with the original
/// expression and the running sums in the original order; the tie test
/// only decides whether the gain counts, so the loop has no
/// data-dependent branch but the rare improvement.
fn scan(
    x: &[f64],
    y: &[f64],
    order: &[u32],
    (first, end): (usize, usize),
    (total_sum, total_sq, parent_sse): (f64, f64, f64),
    floor: f64,
) -> Option<(f64, usize)> {
    if first >= end {
        return None;
    }
    let n = order.len();
    let order = &order[..=end];
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    for &r in &order[..first] {
        let yi = y[r as usize];
        left_sum += yi;
        left_sq += yi * yi;
    }
    // Row counts are integers, exact in `f64`: `left_n` and
    // `n_f - left_n` equal the original `as f64` conversions.
    let n_f = n as f64;
    let mut left_n = first as f64;
    let mut xv = x[order[first] as usize];
    let mut best_gain = floor;
    let mut best_pos = None;
    for pos in first..end {
        let yi = y[order[pos] as usize];
        left_sum += yi;
        left_sq += yi * yi;
        left_n += 1.0;
        let right_n = n_f - left_n;
        let right_sum = total_sum - left_sum;
        let right_sq = total_sq - left_sq;
        let left_sse = left_sq - left_sum * left_sum / left_n;
        let right_sse = right_sq - right_sum * right_sum / right_n;
        let gain = parent_sse - left_sse - right_sse;
        // Tied values cannot separate here, but a NaN neighbour does: the
        // original builder skips only `xn <= xv`, which no NaN satisfies.
        let xn = x[order[pos + 1] as usize];
        let separable = xn > xv || xn.is_nan() || xv.is_nan();
        xv = xn;
        if separable & (gain > best_gain) {
            best_gain = gain;
            best_pos = Some(pos);
        }
    }
    best_pos.map(|pos| (best_gain, pos))
}

/// The original builder, retained as an oracle.
///
/// It indexes row-major rows and stable-sorts them with `total_cmp` at
/// every node, once per candidate feature and once more to partition. It
/// is kept public — not `#[cfg(test)]` — because the differential
/// property tests that pin the fast builder to it bit for bit live in the
/// crate's integration-test tree. Do not call it from production code.
pub mod naive {
    use super::{Node, RegressionTree, TreeParams};
    use crate::{check_xy, MlError};
    use tuna_stats::rng::Rng;

    /// Fits a tree to `(x, y)` with the original builder.
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or ragged.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        params: TreeParams,
        rng: &mut Rng,
    ) -> Result<RegressionTree, MlError> {
        let (_, cols) = check_xy(x, y)?;
        let mut tree = RegressionTree {
            params,
            nodes: Vec::new(),
            n_features: cols,
            feature_gains: vec![0.0; cols],
        };
        let mut indices: Vec<usize> = (0..x.len()).collect();
        build(&mut tree, x, y, &mut indices, 0, rng);
        Ok(tree)
    }

    fn build(
        tree: &mut RegressionTree,
        x: &[Vec<f64>],
        y: &[f64],
        indices: &mut [usize],
        depth: usize,
        rng: &mut Rng,
    ) -> usize {
        let n = indices.len();
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n as f64;

        let must_leaf = depth >= tree.params.max_depth
            || n < tree.params.min_samples_split
            || n < 2 * tree.params.min_samples_leaf;
        if !must_leaf {
            if let Some((feature, threshold, gain, split_at)) = best_split(tree, x, y, indices, rng)
            {
                tree.feature_gains[feature] += gain;
                indices.sort_by(|&a, &b| x[a][feature].total_cmp(&x[b][feature]));
                let (left_idx, right_idx) = indices.split_at_mut(split_at);
                let node_id = tree.nodes.len();
                tree.nodes.push(Node::Leaf { value: mean, n });
                let left = build(tree, x, y, left_idx, depth + 1, rng);
                let right = build(tree, x, y, right_idx, depth + 1, rng);
                tree.nodes[node_id] = Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                };
                return node_id;
            }
        }
        let node_id = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: mean, n });
        node_id
    }

    fn best_split(
        tree: &RegressionTree,
        x: &[Vec<f64>],
        y: &[f64],
        indices: &[usize],
        rng: &mut Rng,
    ) -> Option<(usize, f64, f64, usize)> {
        let n = indices.len();
        let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        if parent_sse <= 1e-12 {
            return None;
        }

        let k = tree
            .params
            .max_features
            .unwrap_or(tree.n_features)
            .clamp(1, tree.n_features);
        let features = if k == tree.n_features {
            (0..tree.n_features).collect::<Vec<_>>()
        } else {
            rng.sample_indices(tree.n_features, k)
        };

        let min_leaf = tree.params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64, usize)> = None;
        let mut order: Vec<usize> = indices.to_vec();
        for &f in &features {
            order.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for pos in 0..n - 1 {
                let yi = y[order[pos]];
                left_sum += yi;
                left_sq += yi * yi;
                let left_n = pos + 1;
                let right_n = n - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let xv = x[order[pos]][f];
                let xn = x[order[pos + 1]][f];
                if xn <= xv {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n as f64;
                let right_sse = right_sq - right_sum * right_sum / right_n as f64;
                let gain = parent_sse - left_sse - right_sse;
                if gain > best.map_or(1e-12, |b| b.2) {
                    best = Some((f, 0.5 * (xv + xn), gain, left_n));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 0 for x < 0.5, y = 10 for x >= 0.5.
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] < 0.5 { 0.0 } else { 10.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (xs, ys) = step_data();
        let mut rng = Rng::seed_from(1);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert_eq!(t.predict(&[0.2]), 0.0);
        assert_eq!(t.predict(&[0.9]), 10.0);
        // One split suffices for a pure step.
        assert_eq!(t.leaf_count(), 2);
    }

    #[test]
    fn constant_target_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys = vec![3.5; 50];
        let mut rng = Rng::seed_from(2);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[17.0]), 3.5);
    }

    #[test]
    fn respects_max_depth() {
        let mut rng = Rng::seed_from(3);
        let xs: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeParams {
                max_depth: 3,
                ..TreeParams::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(t.depth() <= 3, "depth {}", t.depth());
        assert!(t.leaf_count() <= 8);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let mut rng = Rng::seed_from(4);
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeParams {
                min_samples_leaf: 16,
                ..TreeParams::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(t.leaf_count() <= 4);
    }

    #[test]
    fn picks_informative_feature() {
        // Feature 1 is pure noise; feature 0 fully determines y.
        let mut rng = Rng::seed_from(5);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 2) as f64, rng.next_f64()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 100.0).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert!(t.feature_gains()[0] > t.feature_gains()[1] * 10.0);
    }

    #[test]
    fn prediction_interpolates_training_means() {
        let (xs, ys) = step_data();
        let mut rng = Rng::seed_from(6);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        for x in &xs {
            let p = t.predict(x);
            assert!((0.0..=10.0).contains(&p));
        }
    }

    #[test]
    fn rejects_bad_input() {
        let mut rng = Rng::seed_from(7);
        assert!(matches!(
            RegressionTree::fit(&[], &[], TreeParams::default(), &mut rng),
            Err(MlError::EmptyTrainingSet)
        ));
        assert!(matches!(
            RegressionTree::fit(
                &[vec![1.0], vec![2.0]],
                &[1.0],
                TreeParams::default(),
                &mut rng
            ),
            Err(MlError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            RegressionTree::fit(
                &[vec![1.0], vec![2.0, 3.0]],
                &[1.0, 2.0],
                TreeParams::default(),
                &mut rng
            ),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn single_sample_is_leaf() {
        let mut rng = Rng::seed_from(8);
        let t = RegressionTree::fit(&[vec![1.0, 2.0]], &[5.0], TreeParams::default(), &mut rng)
            .unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[0.0, 0.0]), 5.0);
    }

    #[test]
    fn duplicate_feature_values_handled() {
        // All x identical: no valid split exists.
        let xs = vec![vec![1.0]; 10];
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut rng = Rng::seed_from(9);
        let t = RegressionTree::fit(&xs, &ys, TreeParams::default(), &mut rng).unwrap();
        assert_eq!(t.node_count(), 1);
        assert!((t.predict(&[1.0]) - 4.5).abs() < 1e-12);
    }

    /// `rows` stable-sorted by `rank` the standard library's way.
    fn stable(rows: &[u32], rank: &[u32]) -> Vec<u32> {
        let mut want = rows.to_vec();
        want.sort_by_key(|&r| rank[r as usize]);
        want
    }

    /// Every path of `RankSorter` against `slice::sort_by_key`, at the
    /// node sizes around each path's edge and rank ranges on both sides
    /// of the counting sort's `distinct <= 2n` test. Rows repeat, as in a
    /// bootstrap resample, so equal ranks are common.
    #[test]
    fn rank_sorter_paths_match_a_stable_sort() {
        let mut rng = Rng::seed_from(10);
        let mut sorter = RankSorter::default();
        for n in [0, 1, 2, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64, 65, 200] {
            for distinct in [1, 2, 3, n.max(1), 2 * n.max(1), 2 * n + 1, 1000] {
                let rank: Vec<u32> = (0..300).map(|_| rng.below(distinct) as u32).collect();
                let rows: Vec<u32> = (0..n).map(|_| rng.below(300) as u32).collect();
                let want = stable(&rows, &rank);
                let check = |sort: &mut dyn FnMut(&mut [u32])| {
                    let mut got = rows.clone();
                    sort(&mut got);
                    assert_eq!(got, want, "n {n}, distinct {distinct}");
                };
                check(&mut |rows| sorter.sort(rows, (&rank, distinct)));
                check(&mut |rows| sorter.count_sort(rows, &rank, distinct));
                check(&mut |rows| sorter.key_sort(rows, &rank));
                if n <= 8 {
                    check(&mut |rows| small_sort::<8>(rows, &rank));
                }
                if n <= 16 {
                    check(&mut |rows| small_sort::<16>(rows, &rank));
                }
                if n <= 32 {
                    check(&mut |rows| small_sort::<32>(rows, &rank));
                }
                if n <= SMALL_NODE {
                    check(&mut |rows| small_sort::<SMALL_NODE>(rows, &rank));
                }
            }
        }
    }

    /// Ranks too wide for a small-node key send even a small node to the
    /// `u64` keys, with no column of that many rows needed.
    #[test]
    fn rank_sorter_wide_ranks_fall_back_to_u64_keys() {
        let mut rng = Rng::seed_from(11);
        let mut sorter = RankSorter::default();
        for base in [SMALL_RANKS as u32, 1 << 26, u32::MAX - 8] {
            let rank: Vec<u32> = (0..40).map(|_| base + rng.below(4) as u32).collect();
            for n in [2, 9, 32, SMALL_NODE] {
                let rows: Vec<u32> = (0..n).map(|_| rng.below(40) as u32).collect();
                let mut got = rows.clone();
                sorter.sort(&mut got, (&rank, base as usize + 4));
                assert_eq!(got, stable(&rows, &rank), "base {base}, n {n}");
            }
        }
    }
}
