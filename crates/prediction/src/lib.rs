//! Demand-prediction substrate, built entirely from scratch.
//!
//! The paper's offline process predicts the order count of every region for
//! the next 30-minute slot and compares four models (its Appendix A,
//! Table 6): Historical Average, Linear Regression, Gradient-Boosted
//! Regression Trees and DeepST (a CNN over demand grids); an appendix also
//! sketches DeepST-GC, a graph-convolution variant for irregular regions.
//! No ML crates are available offline, so this crate implements all of
//! them:
//!
//! * [`ha`] — [`HistoricalAverage`]: mean of the previous 15 slots;
//! * [`linreg`] — [`LinearRegression`]: OLS over the previous 15 slot
//!   counts (normal equations + Gaussian elimination);
//! * [`gbrt`] — [`Gbrt`]: stochastic gradient-boosted CART trees with
//!   histogram split finding (Friedman 2002, the paper's citation \[18\]);
//! * [`nn`] — a minimal dense/conv neural-network kit with Adam and
//!   gradient-checked backprop, hosting [`DeepStNet`] (the DeepST
//!   substitute: closeness/period/trend frames + time metadata) and
//!   [`GraphConvNet`] (the DeepST-GC substitute);
//! * [`eval`] — the Table-6 evaluation loop (relative RMSE % and real
//!   RMSE per slot prediction).
//!
//! All models implement [`Predictor`] and are trained on
//! [`mrvd_demand::DemandSeries`] histories. Predictions for `(day, slot)`
//! may only read counts strictly before that slot — a property the test
//! suite enforces by mutating the future and checking invariance.

pub mod eval;
pub mod features;
pub mod gbrt;
pub mod ha;
pub mod linreg;
pub mod nn;

pub use eval::{evaluate, EvalReport};
pub use features::{lagged_features, LAG_WINDOW};
pub use gbrt::{Gbrt, GbrtConfig};
pub use ha::HistoricalAverage;
pub use linreg::LinearRegression;
pub use nn::deepst::{DeepStConfig, DeepStNet};
pub use nn::graphconv::{GraphConvConfig, GraphConvNet};

use mrvd_demand::DemandSeries;

/// A demand predictor: fits offline on the first `train_days` of a series,
/// then predicts per-region counts for later `(day, slot)` pairs.
pub trait Predictor {
    /// Short display name (matches the paper's tables: "HA", "LR", "GBRT",
    /// "DeepST", "DeepST-GC").
    fn name(&self) -> &'static str;

    /// Fits the model on days `0..train_days` of `series`.
    ///
    /// # Panics
    /// Implementations panic if `train_days` exceeds `series.days()` or is
    /// too small for the model's lag structure.
    fn fit(&mut self, series: &DemandSeries, train_days: usize);

    /// Predicts the per-region count of `(day, slot)`, reading only counts
    /// strictly before that slot.
    fn predict(&self, series: &DemandSeries, day: usize, slot: usize) -> Vec<f64>;

    /// Clones the (possibly fitted) model into a boxed trait object —
    /// lets an expensively trained model be shared across many simulation
    /// runs.
    fn clone_box(&self) -> Box<dyn Predictor + Send>;
}
