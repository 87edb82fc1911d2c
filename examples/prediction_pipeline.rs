//! The offline prediction pipeline (paper §3.1.1 and Appendix A):
//! generate a multi-week demand history, train all four predictors plus
//! the graph-conv variant, and print Table-6-style accuracy rows.
//!
//! ```bash
//! cargo run --release --example prediction_pipeline
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the example prints wall-clock timings as demo output; nothing feeds back into simulated results"
)]

use mrvd::prelude::*;

fn main() {
    // A 6-week history at reduced volume keeps this example quick.
    let train_days = 35;
    let test_days = 7;
    let gen = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: 50_000.0,
        seed: 5,
        ..NycLikeConfig::default()
    });
    println!(
        "generating {} days of demand counts…",
        train_days + test_days
    );
    let series = gen.generate_counts(train_days + test_days);
    let grid = Grid::nyc_16x16();
    let peak = series.max_value();

    let mut models: Vec<Box<dyn Predictor>> = vec![
        Box::new(HistoricalAverage),
        Box::new(LinearRegression::new()),
        Box::new(Gbrt::new(GbrtConfig::default())),
        Box::new(DeepStNet::new(
            16,
            16,
            SLOTS_PER_DAY,
            DeepStConfig {
                epochs: 8,
                ..DeepStConfig::default()
            },
        )),
        Box::new(GraphConvNet::from_grid(
            &grid,
            SLOTS_PER_DAY,
            GraphConvConfig {
                epochs: 8,
                ..GraphConvConfig::default()
            },
        )),
    ];

    println!(
        "{:<10} {:>9} {:>10} {:>8} {:>9}",
        "model", "RMSE (%)", "RealRMSE", "MAE", "train (s)"
    );
    for model in models.iter_mut() {
        let t0 = std::time::Instant::now();
        let report = mrvd::prediction::evaluate(model.as_mut(), &series, train_days, 0);
        println!(
            "{:<10} {:>9.2} {:>10.2} {:>8.2} {:>9.1}",
            report.name,
            100.0 * report.rmse_real / peak,
            report.rmse_real,
            report.mae,
            t0.elapsed().as_secs_f64()
        );
    }
    println!("\n(RMSE % is relative to the peak cell count {peak:.0}, the paper's convention)");
}
