//! Axis-aligned regression tree — the *interpretable* surrogate the paper
//! tried before settling on the DNN (§3.7.2: *"we experimented with an
//! interpretable model, the decision tree, with the node at each level
//! having a single decision variable … we found that this was woefully
//! inadequate in modeling the search space"*). Implemented here so the
//! Table 2 ablation can reproduce that comparison.

use crate::dataset::Dataset;

/// Hyperparameters for [`RegressionTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum depth of the tree.
    pub max_depth: usize,
    /// Minimum number of samples in a leaf.
    pub min_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 6,
            min_leaf: 3,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        dim: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A CART-style regression tree with variance-reduction splits, each split
/// testing a single feature (the paper's "single decision variable" nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    dims: usize,
}

impl RegressionTree {
    /// Fits a regression tree.
    ///
    /// # Panics
    ///
    /// Panics when the dataset is empty.
    pub fn fit(data: &Dataset, cfg: &TreeConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit tree on empty dataset");
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            dims: data.dims(),
        };
        tree.build(data, idx, 0, cfg);
        tree
    }

    fn build(&mut self, data: &Dataset, idx: Vec<usize>, depth: usize, cfg: &TreeConfig) -> usize {
        let mean: f64 = idx.iter().map(|&i| data.targets()[i]).sum::<f64>() / idx.len() as f64;
        if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_leaf {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        let Some((dim, threshold)) = best_split(data, &idx, cfg.min_leaf) else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| data.row(i)[dim] <= threshold);
        // Reserve this node's slot before recursing.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        let left = self.build(data, left_idx, depth + 1, cfg);
        let right = self.build(data, right_idx, depth + 1, cfg);
        self.nodes[slot] = Node::Split {
            dim,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Predicts the target for a feature row.
    ///
    /// # Panics
    ///
    /// Panics when `row.len()` differs from the training dimensionality.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.dims, "feature dimension mismatch");
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    dim,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*dim] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Mean absolute percentage error on a dataset, in percent.
    pub fn mape(&self, data: &Dataset) -> f64 {
        let predicted: Vec<f64> = (0..data.len()).map(|i| self.predict(data.row(i))).collect();
        rafiki_stats::descriptive::mape(&predicted, data.targets())
    }
}

/// Finds the (dimension, threshold) split maximizing variance reduction,
/// honouring the minimum leaf size. Returns `None` if no valid split exists.
fn best_split(data: &Dataset, idx: &[usize], min_leaf: usize) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (dim, thr, score)
    let total_sum: f64 = idx.iter().map(|&i| data.targets()[i]).sum();
    let total_sq: f64 = idx
        .iter()
        .map(|&i| data.targets()[i] * data.targets()[i])
        .sum();
    let n = idx.len() as f64;
    let base_sse = total_sq - total_sum * total_sum / n;

    for dim in 0..data.dims() {
        let mut order: Vec<usize> = idx.to_vec();
        order.sort_by(|&a, &b| {
            data.row(a)[dim]
                .partial_cmp(&data.row(b)[dim])
                .expect("NaN feature")
        });
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (k, &i) in order.iter().enumerate().take(order.len() - 1) {
            let y = data.targets()[i];
            left_sum += y;
            left_sq += y * y;
            let nl = (k + 1) as f64;
            let nr = n - nl;
            if (k + 1) < min_leaf || (order.len() - k - 1) < min_leaf {
                continue;
            }
            // Skip ties: can't split between equal feature values.
            let here = data.row(i)[dim];
            let next = data.row(order[k + 1])[dim];
            if here == next {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse =
                (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
            let reduction = base_sse - sse;
            if best.is_none_or(|(_, _, s)| reduction > s) && reduction > 1e-12 {
                best = Some((dim, (here + next) / 2.0, reduction));
            }
        }
    }
    best.map(|(d, t, _)| (d, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_dataset() -> Dataset {
        // y depends on x0 threshold at 5.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 0.0]).collect();
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { 10.0 } else { 50.0 }).collect();
        Dataset::from_rows(&rows, targets)
    }

    #[test]
    fn tree_learns_a_step_function() {
        let data = step_dataset();
        let tree = RegressionTree::fit(&data, &TreeConfig::default());
        assert_eq!(tree.predict(&[3.0, 0.0]), 10.0);
        assert_eq!(tree.predict(&[15.0, 0.0]), 50.0);
    }

    #[test]
    fn depth_zero_tree_is_the_mean() {
        let data = step_dataset();
        let tree = RegressionTree::fit(
            &data,
            &TreeConfig {
                max_depth: 0,
                min_leaf: 1,
            },
        );
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.predict(&[0.0, 0.0]), 30.0);
    }

    #[test]
    fn min_leaf_is_respected() {
        let data = step_dataset();
        let tree = RegressionTree::fit(
            &data,
            &TreeConfig {
                max_depth: 10,
                min_leaf: 10,
            },
        );
        // With min_leaf 10 only the one balanced split is allowed.
        assert!(tree.leaf_count() <= 2);
    }

    #[test]
    fn tree_struggles_with_smooth_interactions() {
        // The paper's point: a shallow univariate-split tree underfits a
        // smooth interacting surface relative to its own training data.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let a = i as f64 / 11.0;
                let b = j as f64 / 11.0;
                rows.push(vec![a, b]);
                targets.push(100.0 + 50.0 * (a * b * std::f64::consts::PI).sin());
            }
        }
        let data = Dataset::from_rows(&rows, targets);
        let tree = RegressionTree::fit(
            &data,
            &TreeConfig {
                max_depth: 3,
                min_leaf: 5,
            },
        );
        assert!(tree.mape(&data) > 1.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(&rows, vec![7.0; 10]);
        let tree = RegressionTree::fit(&data, &TreeConfig::default());
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.predict(&[4.2]), 7.0);
    }
}
