//! Stochastic gradient-boosted regression trees (Friedman 2002 — the
//! paper's citation \[18\]) with histogram-based split finding.
//!
//! Built from scratch: CART trees on quantile-binned features, squared
//! loss (so per-tree targets are plain residuals), shrinkage, and
//! per-tree row subsampling. Histogram splits make training linear in the
//! sample count per depth level, which keeps the full paper-scale history
//! (91 days × 48 slots × 256 regions ≈ 1.1M samples) tractable.

use mrvd_demand::DemandSeries;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::features::{lagged_features, training_samples, LAG_WINDOW};
use crate::Predictor;

/// GBRT hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbrtConfig {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Number of quantile bins per feature.
    pub n_bins: usize,
    /// Fraction of rows sampled per tree (stochastic gradient boosting).
    pub subsample: f64,
    /// Minimum rows in a leaf.
    pub min_samples_leaf: usize,
    /// RNG seed for row subsampling.
    pub seed: u64,
}

impl Default for GbrtConfig {
    fn default() -> Self {
        Self {
            n_trees: 60,
            max_depth: 3,
            learning_rate: 0.12,
            n_bins: 32,
            subsample: 0.5,
            min_samples_leaf: 20,
            seed: 0xB005,
        }
    }
}

/// Sentinel feature id marking a leaf node.
const LEAF: u16 = u16::MAX;

/// One tree node; leaves carry the prediction in `value`.
#[derive(Debug, Clone)]
struct Node {
    feature: u16,
    /// Go left when `bin(x[feature]) <= threshold_bin`.
    threshold_bin: u8,
    left: u32,
    right: u32,
    value: f64,
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict_binned(&self, x: &[u8; LAG_WINDOW]) -> f64 {
        let mut i = 0usize;
        loop {
            let n = &self.nodes[i];
            if n.feature == LEAF {
                return n.value;
            }
            i = if x[n.feature as usize] <= n.threshold_bin {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }
}

/// Gradient-boosted regression trees over the lagged-count features.
#[derive(Debug, Clone)]
pub struct Gbrt {
    config: GbrtConfig,
    /// Per-feature ascending bin edges; `bin = #edges ≤ x`.
    bin_edges: Vec<Vec<f64>>,
    base: f64,
    trees: Vec<Tree>,
}

impl Gbrt {
    /// A model with the given hyper-parameters.
    pub fn new(config: GbrtConfig) -> Self {
        assert!(config.n_trees > 0, "Gbrt: need at least one tree");
        assert!(
            (0.0..=1.0).contains(&config.subsample) && config.subsample > 0.0,
            "Gbrt: subsample must be in (0, 1]"
        );
        assert!(
            config.n_bins >= 2 && config.n_bins <= 256,
            "Gbrt: n_bins must be in 2..=256"
        );
        Self {
            config,
            bin_edges: Vec::new(),
            base: 0.0,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    fn bin_value(&self, feature: usize, x: f64) -> u8 {
        let edges = &self.bin_edges[feature];
        // partition_point = #edges ≤ x (edges ascending).
        edges.partition_point(|&e| e <= x) as u8
    }

    fn bin_features(&self, x: &[f64; LAG_WINDOW]) -> [u8; LAG_WINDOW] {
        let mut out = [0u8; LAG_WINDOW];
        for (f, o) in out.iter_mut().enumerate() {
            *o = self.bin_value(f, x[f]);
        }
        out
    }

    fn predict_one(&self, x: &[f64; LAG_WINDOW]) -> f64 {
        let xb = self.bin_features(x);
        let mut y = self.base;
        for t in &self.trees {
            y += self.config.learning_rate * t.predict_binned(&xb);
        }
        y.max(0.0)
    }
}

/// Builds quantile bin edges for one feature from its sorted values.
fn quantile_edges(mut values: Vec<f64>, n_bins: usize) -> Vec<f64> {
    // Sorting bare scalars: equal keys are identical values, so any
    // permutation of them yields the same edge vector.
    values.sort_by(|a, b| a.partial_cmp(b).expect("counts are finite")); // D004: bare scalars
    let mut edges = Vec::new();
    for b in 1..n_bins {
        let idx = b * values.len() / n_bins;
        let e = values[idx.min(values.len() - 1)];
        if edges.last() != Some(&e) {
            edges.push(e);
        }
    }
    edges
}

/// Recursive histogram-based tree construction on residuals.
struct TreeBuilder<'a> {
    xb: &'a [[u8; LAG_WINDOW]],
    residuals: &'a [f64],
    config: &'a GbrtConfig,
    nodes: Vec<Node>,
}

impl<'a> TreeBuilder<'a> {
    fn build(&mut self, rows: &mut [u32], depth: usize) -> u32 {
        let sum: f64 = rows.iter().map(|&i| self.residuals[i as usize]).sum();
        let n = rows.len() as f64;
        let mean = sum / n;
        if depth >= self.config.max_depth || rows.len() < 2 * self.config.min_samples_leaf {
            return self.push_leaf(mean);
        }
        // Histogram per feature: (count, residual sum) per bin.
        let bins = self.config.n_bins;
        let mut best: Option<(usize, u8, f64)> = None; // (feature, bin, gain)
        for f in 0..LAG_WINDOW {
            let mut cnt = vec![0u32; bins];
            let mut sums = vec![0.0f64; bins];
            for &i in rows.iter() {
                let b = self.xb[i as usize][f] as usize;
                cnt[b] += 1;
                sums[b] += self.residuals[i as usize];
            }
            let mut cl = 0u32;
            let mut sl = 0.0f64;
            for b in 0..bins - 1 {
                cl += cnt[b];
                sl += sums[b];
                let cr = rows.len() as u32 - cl;
                if (cl as usize) < self.config.min_samples_leaf
                    || (cr as usize) < self.config.min_samples_leaf
                {
                    continue;
                }
                let sr = sum - sl;
                // Variance-reduction gain (up to constants).
                let gain = sl * sl / cl as f64 + sr * sr / cr as f64 - sum * sum / n;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((f, b as u8, gain));
                }
            }
        }
        let Some((feature, threshold_bin, _)) = best else {
            return self.push_leaf(mean);
        };
        // Partition rows in place.
        let mut lo = 0usize;
        let mut hi = rows.len();
        while lo < hi {
            if self.xb[rows[lo] as usize][feature] <= threshold_bin {
                lo += 1;
            } else {
                hi -= 1;
                rows.swap(lo, hi);
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            feature: feature as u16,
            threshold_bin,
            left: 0,
            right: 0,
            value: mean,
        });
        let (left_rows, right_rows) = rows.split_at_mut(lo);
        let left = self.build(left_rows, depth + 1);
        let right = self.build(right_rows, depth + 1);
        self.nodes[id as usize].left = left;
        self.nodes[id as usize].right = right;
        id
    }

    fn push_leaf(&mut self, value: f64) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            feature: LEAF,
            threshold_bin: 0,
            left: 0,
            right: 0,
            value,
        });
        id
    }
}

impl Predictor for Gbrt {
    fn name(&self) -> &'static str {
        "GBRT"
    }

    fn fit(&mut self, series: &DemandSeries, train_days: usize) {
        assert!(
            train_days <= series.days(),
            "Gbrt: train_days exceeds series length"
        );
        let samples: Vec<([f64; LAG_WINDOW], f64)> = training_samples(series, train_days)
            .map(|(x, y, _)| (x, y))
            .collect();
        assert!(
            samples.len() >= 2 * self.config.min_samples_leaf,
            "Gbrt: not enough training samples ({})",
            samples.len()
        );
        // Quantile bin edges per feature.
        self.bin_edges = (0..LAG_WINDOW)
            .map(|f| {
                quantile_edges(
                    samples.iter().map(|(x, _)| x[f]).collect(),
                    self.config.n_bins,
                )
            })
            .collect();
        let xb: Vec<[u8; LAG_WINDOW]> = samples.iter().map(|(x, _)| self.bin_features(x)).collect();
        let y: Vec<f64> = samples.iter().map(|(_, y)| *y).collect();
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        let mut f: Vec<f64> = vec![self.base; y.len()];
        let mut residuals: Vec<f64> = y.iter().zip(&f).map(|(y, f)| y - f).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.trees.clear();
        for _ in 0..self.config.n_trees {
            // Row subsample.
            let mut rows: Vec<u32> = if self.config.subsample >= 1.0 {
                (0..y.len() as u32).collect()
            } else {
                (0..y.len() as u32)
                    .filter(|_| rng.gen::<f64>() < self.config.subsample)
                    .collect()
            };
            if rows.len() < 2 * self.config.min_samples_leaf {
                rows = (0..y.len() as u32).collect();
            }
            let mut builder = TreeBuilder {
                xb: &xb,
                residuals: &residuals,
                config: &self.config,
                nodes: Vec::new(),
            };
            let root = builder.build(&mut rows, 0);
            debug_assert_eq!(root, 0);
            let tree = Tree {
                nodes: builder.nodes,
            };
            // Update F and residuals on *all* rows.
            for i in 0..y.len() {
                f[i] += self.config.learning_rate * tree.predict_binned(&xb[i]);
                residuals[i] = y[i] - f[i];
            }
            self.trees.push(tree);
        }
    }

    fn predict(&self, series: &DemandSeries, day: usize, slot: usize) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "Gbrt: predict before fit");
        let gs = day * series.slots_per_day() + slot;
        (0..series.regions())
            .map(|r| self.predict_one(&lagged_features(series, gs, r)))
            .collect()
    }

    fn clone_box(&self) -> Box<dyn Predictor + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinearRegression;

    fn periodic_series(days: usize) -> DemandSeries {
        // Scrambled cycle of length 17 (> LAG_WINDOW, so no lag aligns with
        // the period and linear models cannot represent it exactly), with
        // magnitudes chosen so the next value is a deterministic *step
        // function* of the last lag — ideal territory for trees.
        const MAG: [f64; 17] = [
            13.0, 2.0, 29.0, 7.0, 23.0, 5.0, 31.0, 11.0, 3.0, 19.0, 1.0, 37.0, 17.0, 41.0, 9.0,
            27.0, 21.0,
        ];
        DemandSeries::from_fn(days, 48, 4, |d, t, r| {
            let gs = d * 48 + t;
            10.0 * MAG[gs % 17] + r as f64
        })
    }

    fn cfg_small() -> GbrtConfig {
        GbrtConfig {
            n_trees: 40,
            max_depth: 3,
            learning_rate: 0.15,
            n_bins: 16,
            subsample: 1.0,
            min_samples_leaf: 5,
            seed: 1,
        }
    }

    fn sq_err(pred: &[f64], truth: &[f64]) -> f64 {
        pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum()
    }

    #[test]
    fn learns_nonlinear_interactions_better_than_lr() {
        let s = periodic_series(6);
        let mut g = Gbrt::new(cfg_small());
        g.fit(&s, 5);
        let mut lr = LinearRegression::new();
        lr.fit(&s, 5);
        let mut g_err = 0.0;
        let mut l_err = 0.0;
        for slot in 0..48 {
            let truth: Vec<f64> = (0..4).map(|r| s.get(5, slot, r)).collect();
            g_err += sq_err(&g.predict(&s, 5, slot), &truth);
            l_err += sq_err(&lr.predict(&s, 5, slot), &truth);
        }
        assert!(
            g_err < 0.6 * l_err,
            "GBRT squared error {g_err:.1} vs LR {l_err:.1}"
        );
    }

    #[test]
    fn more_trees_fit_training_data_better() {
        let s = periodic_series(4);
        let train_err = |n_trees: usize| {
            let mut g = Gbrt::new(GbrtConfig {
                n_trees,
                ..cfg_small()
            });
            g.fit(&s, 4);
            let mut err = 0.0;
            for slot in 16..48 {
                let truth: Vec<f64> = (0..4).map(|r| s.get(3, slot, r)).collect();
                err += sq_err(&g.predict(&s, 3, slot), &truth);
            }
            err
        };
        let few = train_err(3);
        let many = train_err(40);
        assert!(many < few, "3 trees: {few:.2}, 40 trees: {many:.2}");
    }

    #[test]
    fn constant_series_is_predicted_exactly() {
        let s = DemandSeries::from_fn(3, 48, 2, |_, _, _| 6.0);
        let mut g = Gbrt::new(cfg_small());
        g.fit(&s, 3);
        let p = g.predict(&s, 2, 30);
        assert!(p.iter().all(|&v| (v - 6.0).abs() < 1e-9), "{p:?}");
    }

    #[test]
    fn does_not_read_the_future() {
        let mut s = periodic_series(4);
        let mut g = Gbrt::new(cfg_small());
        g.fit(&s, 3);
        let before = g.predict(&s, 3, 20);
        for t in 20..48 {
            for r in 0..4 {
                s.set(3, t, r, 1e6);
            }
        }
        assert_eq!(before, g.predict(&s, 3, 20));
    }

    #[test]
    fn predictions_are_non_negative() {
        let s = DemandSeries::from_fn(3, 48, 2, |_, t, _| (t % 2) as f64);
        let mut g = Gbrt::new(cfg_small());
        g.fit(&s, 3);
        assert!(g.predict(&s, 2, 25).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn subsampling_is_deterministic_given_seed() {
        let s = periodic_series(4);
        let cfg = GbrtConfig {
            subsample: 0.5,
            ..cfg_small()
        };
        let mut a = Gbrt::new(cfg.clone());
        a.fit(&s, 4);
        let mut b = Gbrt::new(cfg);
        b.fit(&s, 4);
        assert_eq!(a.predict(&s, 3, 30), b.predict(&s, 3, 30));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        let s = DemandSeries::zeros(1, 48, 1);
        Gbrt::new(GbrtConfig::default()).predict(&s, 0, 20);
    }
}
