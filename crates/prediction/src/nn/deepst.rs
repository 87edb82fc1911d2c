//! `DeepStNet` — the from-scratch substitute for DeepST (Zhang et al.,
//! the paper's citation \[31\] and its chosen predictor).
//!
//! Like DeepST it consumes three temporal views of the demand grid —
//! *closeness* (the last 3 slots), *period* (the same slot on the last 3
//! days) and *trend* (the same slot 1–3 weeks back) — as 9 input channels
//! over the 16×16 region grid, plus time-of-day / day-of-week metadata
//! fused through a dense head. Three 3×3 convolutions replace DeepST's
//! residual stack (at 16×16 the receptive field already spans the city);
//! training is Adam on per-slot MSE. Table 6 compares its accuracy with
//! the other predictors.

use mrvd_demand::DemandSeries;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use super::conv::Conv2d;
use super::dense::Dense;
use super::{relu_backward, relu_inplace};
use crate::Predictor;

/// Number of input channels: 3 closeness + 3 period + 3 trend.
const IN_CH: usize = 9;
/// Days of week for the metadata one-hot.
const DOW: usize = 7;

/// Hyper-parameters of [`DeepStNet`].
#[derive(Debug, Clone)]
pub struct DeepStConfig {
    /// Channels of the two hidden conv layers.
    pub hidden_channels: usize,
    /// Training epochs over all (day, slot) samples.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Seed for init, shuffling.
    pub seed: u64,
    /// First day eligible as a training target; defaults to 21 so the
    /// trend channels are fully populated. Clamped to the available
    /// history at fit time.
    pub min_history_days: usize,
}

impl Default for DeepStConfig {
    fn default() -> Self {
        Self {
            hidden_channels: 16,
            epochs: 20,
            lr: 1e-3,
            batch_size: 8,
            seed: 0xDEE9,
            min_history_days: 21,
        }
    }
}

/// The DeepST-style convolutional demand predictor.
#[derive(Clone)]
pub struct DeepStNet {
    cols: usize,
    rows: usize,
    config: DeepStConfig,
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    meta: Dense,
    scale: f64,
    slots_per_day: usize,
    fitted: bool,
}

impl DeepStNet {
    /// Creates a network for a `cols × rows` region grid and
    /// `slots_per_day` time slots (48 at the paper's 30-minute slots).
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(cols: usize, rows: usize, slots_per_day: usize, config: DeepStConfig) -> Self {
        assert!(
            cols > 0 && rows > 0,
            "DeepStNet: grid dims must be positive"
        );
        assert!(
            slots_per_day > 0,
            "DeepStNet: slots_per_day must be positive"
        );
        assert!(
            config.hidden_channels > 0,
            "DeepStNet: need hidden channels"
        );
        assert!(
            config.batch_size > 0,
            "DeepStNet: batch_size must be positive"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.hidden_channels;
        Self {
            cols,
            rows,
            conv1: Conv2d::new(IN_CH, h, &mut rng),
            conv2: Conv2d::new(h, h, &mut rng),
            conv3: Conv2d::new(h, 1, &mut rng),
            meta: Dense::new(slots_per_day + DOW, cols * rows, &mut rng),
            config,
            scale: 1.0,
            slots_per_day,
            fitted: false,
        }
    }

    fn cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Builds the 9-channel input frame for `(day, slot)`; frames that
    /// reach before the start of the series are zero-filled.
    fn assemble_input(&self, series: &DemandSeries, day: usize, slot: usize) -> Vec<f64> {
        let cells = self.cells();
        let spd = series.slots_per_day();
        let gs = day * spd + slot;
        let mut input = vec![0.0; IN_CH * cells];
        let write = |ch: usize, gday: i64, gslot: i64, input: &mut Vec<f64>| {
            if gday < 0 || gslot < 0 {
                return;
            }
            let (d, s) = (gday as usize, gslot as usize);
            for r in 0..cells {
                input[ch * cells + r] = series.get(d, s, r) * self.scale;
            }
        };
        // Closeness: global slots gs−1..gs−3.
        for c in 0..3 {
            let g = gs as i64 - (c as i64 + 1);
            if g >= 0 {
                write(c, g / spd as i64, g % spd as i64, &mut input);
            }
        }
        // Period: same slot, previous days.
        for p in 0..3 {
            write(3 + p, day as i64 - (p as i64 + 1), slot as i64, &mut input);
        }
        // Trend: same slot, previous weeks.
        for q in 0..3 {
            write(
                6 + q,
                day as i64 - 7 * (q as i64 + 1),
                slot as i64,
                &mut input,
            );
        }
        input
    }

    /// One-hot slot-of-day concatenated with one-hot day-of-week.
    fn assemble_meta(&self, day: usize, slot: usize) -> Vec<f64> {
        let mut m = vec![0.0; self.slots_per_day + DOW];
        m[slot % self.slots_per_day] = 1.0;
        m[self.slots_per_day + day % DOW] = 1.0;
        m
    }

    /// Forward pass; returns the output and the caches needed by
    /// [`Self::backward`].
    fn forward(&self, input: &[f64], meta: &[f64]) -> ForwardCache {
        let (h, w) = (self.rows, self.cols);
        let mut a1 = self.conv1.forward(input, h, w);
        let m1 = relu_inplace(&mut a1);
        let mut a2 = self.conv2.forward(&a1, h, w);
        let m2 = relu_inplace(&mut a2);
        let conv_out = self.conv3.forward(&a2, h, w);
        let meta_out = self.meta.forward(meta);
        let y: Vec<f64> = conv_out.iter().zip(&meta_out).map(|(c, m)| c + m).collect();
        ForwardCache { a1, m1, a2, m2, y }
    }

    /// Backward pass from `dL/dy`; accumulates all parameter gradients.
    fn backward(&mut self, input: &[f64], meta: &[f64], cache: &ForwardCache, grad_y: &[f64]) {
        let (h, w) = (self.rows, self.cols);
        // Both heads receive grad_y unchanged (the sum node).
        self.meta.backward(meta, grad_y);
        let mut g2 = self.conv3.backward(&cache.a2, grad_y, h, w);
        relu_backward(&mut g2, &cache.m2);
        let mut g1 = self.conv2.backward(&cache.a1, &g2, h, w);
        relu_backward(&mut g1, &cache.m1);
        let _ = self.conv1.backward(input, &g1, h, w);
    }

    fn zero_grads(&mut self) {
        self.conv1.weight.zero_grad();
        self.conv1.bias.zero_grad();
        self.conv2.weight.zero_grad();
        self.conv2.bias.zero_grad();
        self.conv3.weight.zero_grad();
        self.conv3.bias.zero_grad();
        self.meta.weight.zero_grad();
        self.meta.bias.zero_grad();
    }

    fn adam_step(&mut self, t: u64) {
        let lr = self.config.lr;
        self.conv1.weight.adam_step(lr, t);
        self.conv1.bias.adam_step(lr, t);
        self.conv2.weight.adam_step(lr, t);
        self.conv2.bias.adam_step(lr, t);
        self.conv3.weight.adam_step(lr, t);
        self.conv3.bias.adam_step(lr, t);
        self.meta.weight.adam_step(lr, t);
        self.meta.bias.adam_step(lr, t);
    }

    /// Mean squared error (in normalized units) over the given day range,
    /// exposed for convergence tests.
    pub fn mse(&self, series: &DemandSeries, days: std::ops::Range<usize>) -> f64 {
        let cells = self.cells();
        let mut acc = 0.0;
        let mut n = 0usize;
        for day in days {
            for slot in 0..series.slots_per_day() {
                let input = self.assemble_input(series, day, slot);
                let meta = self.assemble_meta(day, slot);
                let cache = self.forward(&input, &meta);
                for r in 0..cells {
                    let t = series.get(day, slot, r) * self.scale;
                    acc += (cache.y[r] - t) * (cache.y[r] - t);
                    n += 1;
                }
            }
        }
        acc / n as f64
    }
}

/// Intermediate activations kept for the backward pass.
struct ForwardCache {
    a1: Vec<f64>,
    m1: Vec<bool>,
    a2: Vec<f64>,
    m2: Vec<bool>,
    y: Vec<f64>,
}

impl Predictor for DeepStNet {
    fn name(&self) -> &'static str {
        "DeepST"
    }

    fn fit(&mut self, series: &DemandSeries, train_days: usize) {
        assert!(
            train_days <= series.days(),
            "DeepStNet: train_days exceeds series length"
        );
        assert_eq!(
            series.regions(),
            self.cells(),
            "DeepStNet: series regions != grid cells"
        );
        assert_eq!(
            series.slots_per_day(),
            self.slots_per_day,
            "DeepStNet: slots_per_day mismatch"
        );
        assert!(train_days >= 2, "DeepStNet: need at least 2 training days");
        // Normalization from the training range only.
        let mut max_v = 0.0f64;
        for d in 0..train_days {
            for s in 0..series.slots_per_day() {
                for r in 0..series.regions() {
                    max_v = max_v.max(series.get(d, s, r));
                }
            }
        }
        self.scale = 1.0 / max_v.max(1e-9);

        let start_day = self.config.min_history_days.min(train_days - 1).max(1);
        let mut samples: Vec<(usize, usize)> = (start_day..train_days)
            .flat_map(|d| (0..series.slots_per_day()).map(move |s| (d, s)))
            .collect();
        assert!(!samples.is_empty(), "DeepStNet: no training samples");
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x7E57);
        let cells = self.cells();
        let mut step = 0u64;
        for _epoch in 0..self.config.epochs {
            samples.shuffle(&mut rng);
            for chunk in samples.chunks(self.config.batch_size) {
                self.zero_grads();
                let inv = 1.0 / chunk.len() as f64;
                for &(day, slot) in chunk {
                    let input = self.assemble_input(series, day, slot);
                    let meta = self.assemble_meta(day, slot);
                    let cache = self.forward(&input, &meta);
                    let grad_y: Vec<f64> = (0..cells)
                        .map(|r| {
                            let t = series.get(day, slot, r) * self.scale;
                            2.0 * (cache.y[r] - t) / cells as f64 * inv
                        })
                        .collect();
                    self.backward(&input, &meta, &cache, &grad_y);
                }
                step += 1;
                self.adam_step(step);
            }
        }
        self.fitted = true;
    }

    fn predict(&self, series: &DemandSeries, day: usize, slot: usize) -> Vec<f64> {
        assert!(self.fitted, "DeepStNet: predict before fit");
        let input = self.assemble_input(series, day, slot);
        let meta = self.assemble_meta(day, slot);
        let cache = self.forward(&input, &meta);
        cache.y.iter().map(|&v| (v / self.scale).max(0.0)).collect()
    }

    fn clone_box(&self) -> Box<dyn Predictor + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A small synthetic grid series with daily periodicity and a spatial
    /// pattern — the structure DeepST is designed to capture.
    fn synthetic_series(days: usize, cols: usize, rows: usize, spd: usize) -> DemandSeries {
        let mut rng = StdRng::seed_from_u64(77);
        DemandSeries::from_fn(days, spd, cols * rows, |d, t, r| {
            let (x, y) = (r % cols, r / cols);
            let spatial = 3.0 + 2.0 * ((x + y) as f64 / (cols + rows) as f64);
            let daily = 4.0 + 3.0 * (2.0 * std::f64::consts::PI * t as f64 / spd as f64).sin();
            let dow = if d % 7 >= 5 { 0.7 } else { 1.0 };
            (spatial * daily * dow + rng.gen_range(-0.5..0.5)).max(0.0)
        })
    }

    fn tiny_net(spd: usize) -> DeepStNet {
        DeepStNet::new(
            4,
            4,
            spd,
            DeepStConfig {
                hidden_channels: 6,
                epochs: 12,
                lr: 3e-3,
                batch_size: 8,
                seed: 5,
                min_history_days: 7,
            },
        )
    }

    #[test]
    fn training_reduces_mse() {
        let spd = 12;
        let s = synthetic_series(20, 4, 4, spd);
        let mut net = tiny_net(spd);
        // Set scale as fit would, then measure pre-training MSE.
        net.scale = 1.0 / s.max_value();
        let before = net.mse(&s, 16..20);
        net.fit(&s, 16);
        let after = net.mse(&s, 16..20);
        assert!(
            after < 0.5 * before,
            "MSE before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    fn beats_historical_average_on_periodic_data() {
        use crate::ha::HistoricalAverage;
        let spd = 12;
        let s = synthetic_series(24, 4, 4, spd);
        let mut net = tiny_net(spd);
        net.fit(&s, 20);
        let ha = HistoricalAverage;
        let mut nn_err = 0.0;
        let mut ha_err = 0.0;
        for day in 20..24 {
            for slot in 0..spd {
                let truth: Vec<f64> = (0..16).map(|r| s.get(day, slot, r)).collect();
                let np = net.predict(&s, day, slot);
                let hp = ha.predict(&s, day, slot);
                for r in 0..16 {
                    nn_err += (np[r] - truth[r]).powi(2);
                    ha_err += (hp[r] - truth[r]).powi(2);
                }
            }
        }
        assert!(
            nn_err < ha_err,
            "DeepST err {nn_err:.1} vs HA err {ha_err:.1}"
        );
    }

    #[test]
    fn whole_model_gradient_check() {
        // Finite differences through the full conv-conv-conv + meta path.
        let spd = 6;
        let s = synthetic_series(10, 4, 4, spd);
        let mut net = tiny_net(spd);
        net.scale = 1.0 / s.max_value();
        let (day, slot) = (8, 3);
        let input = net.assemble_input(&s, day, slot);
        let meta = net.assemble_meta(day, slot);
        let cells = net.cells();
        let target: Vec<f64> = (0..cells)
            .map(|r| s.get(day, slot, r) * net.scale)
            .collect();
        let loss_of = |net: &DeepStNet| -> f64 {
            let c = net.forward(&input, &meta);
            c.y.iter()
                .zip(&target)
                .map(|(y, t)| (y - t) * (y - t))
                .sum::<f64>()
                / cells as f64
        };
        let cache = net.forward(&input, &meta);
        let grad_y: Vec<f64> = (0..cells)
            .map(|r| 2.0 * (cache.y[r] - target[r]) / cells as f64)
            .collect();
        net.zero_grads();
        net.backward(&input, &meta, &cache, &grad_y);
        let eps = 1e-6;
        // Sample parameters from each tensor.
        let analytic = [
            net.conv1.weight.g[3],
            net.conv2.weight.g[10],
            net.conv3.weight.g[0],
            net.meta.weight.g[5],
            net.conv1.bias.g[0],
            net.meta.bias.g[2],
        ];
        let mut numeric = [0.0f64; 6];
        macro_rules! probe {
            ($i:expr, $field:expr, $idx:expr) => {{
                let orig = $field.w[$idx];
                $field.w[$idx] = orig + eps;
                let lp = loss_of(&net);
                $field.w[$idx] = orig - eps;
                let lm = loss_of(&net);
                $field.w[$idx] = orig;
                numeric[$i] = (lp - lm) / (2.0 * eps);
            }};
        }
        probe!(0, net.conv1.weight, 3);
        probe!(1, net.conv2.weight, 10);
        probe!(2, net.conv3.weight, 0);
        probe!(3, net.meta.weight, 5);
        probe!(4, net.conv1.bias, 0);
        probe!(5, net.meta.bias, 2);
        for i in 0..6 {
            assert!(
                (numeric[i] - analytic[i]).abs() < 1e-5 * (1.0 + numeric[i].abs()),
                "param {i}: numeric {}, analytic {}",
                numeric[i],
                analytic[i]
            );
        }
    }

    #[test]
    fn does_not_read_the_future() {
        let spd = 6;
        let mut s = synthetic_series(12, 4, 4, spd);
        let mut net = tiny_net(spd);
        net.fit(&s, 10);
        let before = net.predict(&s, 10, 2);
        for t in 2..spd {
            for r in 0..16 {
                s.set(10, t, r, 999.0);
            }
        }
        for t in 0..spd {
            for r in 0..16 {
                s.set(11, t, r, 999.0);
            }
        }
        assert_eq!(before, net.predict(&s, 10, 2));
    }

    #[test]
    fn predictions_are_non_negative_counts() {
        let spd = 6;
        let s = synthetic_series(12, 4, 4, spd);
        let mut net = tiny_net(spd);
        net.fit(&s, 10);
        let p = net.predict(&s, 10, 0);
        assert_eq!(p.len(), 16);
        assert!(p.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        let s = DemandSeries::zeros(2, 6, 16);
        tiny_net(6).predict(&s, 1, 0);
    }
}
