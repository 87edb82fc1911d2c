//! The paper's tables: 3 (idle-time estimation), 4 (prediction × policy
//! revenue), 6 (prediction accuracy), 7–8 (chi-square Poisson tests).

use mrvd_spatial::Point;
use mrvd_stats::{chi_square_gof_poisson, mae, relative_rmse, rmse};
use serde_json::json;

use crate::common::{
    dump_json, parallel_map, print_table, run_cell, ModelKind, OracleKind, PolicySpec, RunCfg,
    World, TEST_DAYS, TRAIN_DAYS,
};

/// Paper reference rows for Table 3 (#drivers, MAE s, RMSE %, real RMSE s).
const PAPER_TABLE3: [(usize, f64, f64, f64); 8] = [
    (1_000, 2.12, 5.02, 8.73),
    (2_000, 1.89, 4.76, 6.89),
    (3_000, 1.78, 4.53, 4.43),
    (4_000, 2.04, 5.11, 7.04),
    (5_000, 2.22, 5.47, 11.24),
    (6_000, 2.54, 5.93, 13.81),
    (7_000, 3.20, 6.45, 26.39),
    (8_000, 4.34, 7.43, 44.43),
];

/// The idle-time estimation protocol censors realized idle intervals
/// beyond one scheduling window: §4.1 scopes the steady-state analysis to
/// "a short time period" `t_c`, so a driver still idle when the window
/// ends is re-analyzed by the next window rather than predicted hours
/// ahead. Without censoring, overnight stranding (hours of idle the model
/// never claims to predict) dominates the error metrics.
const IDLE_CENSOR_S: f64 = 900.0;

/// Table 3: accuracy of the queueing-theoretic idle-time estimates,
/// varying the fleet from 1K to 8K (scaled).
pub fn table3(world: &World) {
    let jobs: Vec<usize> = PAPER_TABLE3.iter().map(|r| r.0).collect();
    let opts = &world.opts;
    let rows = parallel_map(jobs, opts.threads, |&paper_n| {
        let n = opts.drivers(paper_n);
        let mut est = Vec::new();
        let mut real = Vec::new();
        let mut censored = 0usize;
        for i in 0..opts.instances {
            let cfg = RunCfg::defaults(n, i);
            let res = crate::common::run_one(
                world,
                PolicySpec::Irg(OracleKind::Pred(ModelKind::DeepSt)),
                &cfg,
            );
            for (e, r) in res.idle_estimate_pairs() {
                if r > IDLE_CENSOR_S {
                    censored += 1;
                } else {
                    est.push(e.min(IDLE_CENSOR_S));
                    real.push(r);
                }
            }
        }
        (paper_n, n, est, real, censored)
    });
    println!(
        "(pairs with realized idle > {IDLE_CENSOR_S:.0}s are censored: the §4 analysis is \
         scoped to one scheduling window — see `IDLE_CENSOR_S` in \
         crates/experiments/src/tables.rs)"
    );
    let mut out_rows = Vec::new();
    let mut json_rows = Vec::new();
    for (paper_n, n, est, real, censored) in &rows {
        let (m, rel, rr) = if est.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN)
        } else {
            (mae(est, real), relative_rmse(est, real), rmse(est, real))
        };
        let total = est.len() + censored;
        let paper = PAPER_TABLE3
            .iter()
            .find(|r| r.0 == *paper_n)
            .expect("paper row");
        out_rows.push(vec![
            format!("{paper_n} (×{:.2} → {n})", world.opts.scale),
            format!("{m:.2}"),
            format!("{rel:.2}"),
            format!("{rr:.2}"),
            format!("{:.0}%", 100.0 * *censored as f64 / total.max(1) as f64),
            format!("{:.2}", paper.1),
            format!("{:.2}", paper.2),
            format!("{:.2}", paper.3),
        ]);
        json_rows.push(json!({
            "paper_drivers": paper_n, "drivers": n,
            "mae_s": m, "rmse_pct": rel, "real_rmse_s": rr,
            "pairs": est.len(), "censored": censored,
        }));
    }
    print_table(
        "Table 3 — estimated idle time accuracy (ours vs paper)",
        &[
            "#drivers",
            "MAE (s)",
            "RMSE (%)",
            "RealRMSE (s)",
            "censored",
            "paper MAE",
            "paper RMSE%",
            "paper RealRMSE",
        ],
        &out_rows,
    );
    dump_json(&world.opts, "table3", json!({ "rows": json_rows }));
}

/// Paper reference values for Table 4 (total revenue ×10⁸).
const PAPER_TABLE4: [(&str, [f64; 5]); 3] = [
    ("IRG", [2.2460, 2.3203, 2.3446, 2.3756, 2.3899]),
    ("LS", [2.2921, 2.3725, 2.4267, 2.4625, 2.4727]),
    ("POLAR", [2.0460, 2.2293, 2.2767, 2.2953, 2.3285]),
];

/// Table 4: effect of the prediction method on total revenue for the
/// three prediction-driven approaches.
pub fn table4(world: &World) {
    let oracles = [
        OracleKind::Pred(ModelKind::Ha),
        OracleKind::Pred(ModelKind::Lr),
        OracleKind::Pred(ModelKind::Gbrt),
        OracleKind::Pred(ModelKind::DeepSt),
        OracleKind::Real,
    ];
    type SpecCtor = fn(OracleKind) -> PolicySpec;
    let algos: [(&str, SpecCtor); 3] = [
        ("IRG", PolicySpec::Irg),
        ("LS", PolicySpec::Ls),
        ("POLAR", PolicySpec::Polar),
    ];
    let n = world.opts.drivers(3_000);
    let mut jobs = Vec::new();
    for (ai, (_, mk)) in algos.iter().enumerate() {
        for (oi, o) in oracles.iter().enumerate() {
            jobs.push((ai, oi, mk(*o)));
        }
    }
    let results = parallel_map(jobs, world.opts.threads, |&(ai, oi, spec)| {
        (ai, oi, run_cell(world, spec, &RunCfg::defaults(n, 0)))
    });
    let mut grid = vec![vec![0.0f64; oracles.len()]; algos.len()];
    for (ai, oi, cell) in &results {
        grid[*ai][*oi] = cell.revenue;
    }
    let mut rows = Vec::new();
    for (ai, (name, _)) in algos.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for v in &grid[ai] {
            row.push(format!("{:.4}", v / 1e8 / world.opts.scale));
        }
        let paper = PAPER_TABLE4.iter().find(|p| p.0 == *name).expect("row");
        for v in paper.1 {
            row.push(format!("{v:.4}"));
        }
        rows.push(row);
    }
    print_table(
        "Table 4 — revenue ×10⁸ by prediction method (ours, scale-normalized | paper)",
        &[
            "approach", "HA", "LR", "GBRT", "DeepST", "Real", "p:HA", "p:LR", "p:GBRT", "p:DeepST",
            "p:Real",
        ],
        &rows,
    );
    dump_json(
        &world.opts,
        "table4",
        json!({
            "oracles": ["HA", "LR", "GBRT", "DeepST", "Real"],
            "revenue": grid,
        }),
    );
}

/// Paper reference values for Table 6 (RMSE %, real RMSE).
const PAPER_TABLE6: [(&str, f64, f64); 4] = [
    ("DeepST", 2.30, 15.03),
    ("HA", 7.46, 48.21),
    ("LR", 3.40, 21.66),
    ("GBRT", 2.74, 17.67),
];

/// Table 6: accuracy of the demand-prediction models on the held-out
/// days (no refitting — the world's trained models are evaluated).
///
/// "RMSE (%)" is the real RMSE relative to the *peak* cell count of the
/// training range — the only normalization consistent with the paper's
/// own numbers (its Table 5 peak of 853 records/slot and real RMSE of
/// 15.03 give ≈ 1.8%, matching its reported 2.30%; a mean-normalized
/// figure could never reach 2.3% through Poisson noise alone).
pub fn table6(world: &World) {
    let series = &world.series;
    let peak = series.max_value().max(1.0);
    println!("(RMSE % is relative to the peak cell count: {peak:.0})");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for kind in ModelKind::all() {
        let model = kind.model(world);
        let mut pred = Vec::new();
        let mut truth = Vec::new();
        for day in TRAIN_DAYS..TRAIN_DAYS + TEST_DAYS {
            for slot in 0..series.slots_per_day() {
                let p = model.predict(series, day, slot);
                for (r, &v) in p.iter().enumerate() {
                    pred.push(v);
                    truth.push(series.get(day, slot, r));
                }
            }
        }
        let real = rmse(&pred, &truth);
        let rel = 100.0 * real / peak;
        let m = mae(&pred, &truth);
        let paper = PAPER_TABLE6.iter().find(|p| p.0 == kind.label());
        rows.push(vec![
            kind.label().to_string(),
            format!("{rel:.2}"),
            format!("{real:.2}"),
            format!("{m:.2}"),
            paper.map_or("—".into(), |p| format!("{:.2}", p.1)),
            paper.map_or("—".into(), |p| format!("{:.2}", p.2)),
        ]);
        json_rows.push(json!({
            "model": kind.label(), "rmse_pct": rel, "real_rmse": real, "mae": m,
        }));
    }
    print_table(
        "Table 6 — demand prediction accuracy on held-out days (ours | paper)",
        &[
            "model",
            "RMSE (%)",
            "RealRMSE",
            "MAE",
            "p:RMSE%",
            "p:RealRMSE",
        ],
        &rows,
    );
    dump_json(&world.opts, "table6", json!({ "rows": json_rows }));
}

/// The two probe rectangles of the paper's Appendix B.
const REGION1: (Point, Point) = (Point::new(-74.01, 40.70), Point::new(-73.97, 40.80));
const REGION2: (Point, Point) = (Point::new(-73.97, 40.70), Point::new(-73.93, 40.80));

fn in_rect(p: Point, rect: (Point, Point)) -> bool {
    p.lon >= rect.0.lon && p.lon < rect.1.lon && p.lat >= rect.0.lat && p.lat < rect.1.lat
}

/// Per-minute counts over 21 weekdays for a rectangle and a 10-minute
/// window, for pickups (`destinations = false`) or dropoffs (`true`,
/// the paper's rejoined-driver proxy).
fn minute_samples(
    world: &World,
    rect: (Point, Point),
    start_min: u64,
    destinations: bool,
) -> Vec<u64> {
    let mut samples = Vec::new();
    let mut day = 0usize;
    let mut weekdays = 0usize;
    while weekdays < 21 {
        if day % 7 < 5 {
            let trips = world.generator.generate_day_trips(day);
            let mut counts = [0u64; 10];
            for t in &trips {
                let p = if destinations { t.dropoff } else { t.pickup };
                if !in_rect(p, rect) {
                    continue;
                }
                let minute = t.request_ms / 60_000;
                if minute >= start_min && minute < start_min + 10 {
                    counts[(minute - start_min) as usize] += 1;
                }
            }
            samples.extend_from_slice(&counts);
            weekdays += 1;
        }
        day += 1;
    }
    assert_eq!(samples.len(), 210);
    samples
}

/// Tables 7–8 and Figures 11–12: chi-square goodness-of-fit of order and
/// rejoined-driver arrivals against the Poisson hypothesis, with the
/// observed/expected histograms.
pub fn table7_8(world: &World, destinations: bool, show_histograms: bool) {
    let what = if destinations {
        "drivers (Table 8 / Fig. 12)"
    } else {
        "orders (Table 7 / Fig. 11)"
    };
    let cases = [
        ("region 1", REGION1, 7 * 60),
        ("region 1", REGION1, 8 * 60),
        ("region 2", REGION2, 7 * 60),
        ("region 2", REGION2, 8 * 60),
    ];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (name, rect, start) in cases {
        let samples = minute_samples(world, rect, start, destinations);
        let outcome = chi_square_gof_poisson(&samples, 0.05, 5.0);
        rows.push(vec![
            name.to_string(),
            format!("{}:00–{0}:10", start / 60),
            format!("{}", outcome.bins),
            format!("{:.4}", outcome.statistic),
            format!("{:.3}", outcome.critical),
            format!("{:.2}", outcome.lambda_hat),
            if outcome.accepted {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
        json_rows.push(json!({
            "region": name, "start_min": start, "bins": outcome.bins,
            "statistic": outcome.statistic, "critical": outcome.critical,
            "accepted": outcome.accepted, "lambda_hat": outcome.lambda_hat,
        }));
        if show_histograms {
            println!(
                "\n-- {what}: {name}, {}:00 — observed vs expected --",
                start / 60
            );
            for (i, ((o, e), range)) in outcome
                .observed
                .iter()
                .zip(&outcome.expected)
                .zip(&outcome.bin_ranges)
                .enumerate()
            {
                let bar_o = "#".repeat((*o as usize).min(80));
                let bar_e = "·".repeat((*e as usize).min(80));
                println!(
                    "bin {i} [{:>3}..{:<3}) obs {o:>5.0} {bar_o}\n            exp {e:>5.1} {bar_e}",
                    range.0, range.1
                );
            }
        }
    }
    print_table(
        &format!("Poisson chi-square test of {what} (accept at α = 0.05)"),
        &[
            "region",
            "window",
            "r",
            "k",
            "chi2_r-1(0.05)",
            "λ̂/min",
            "accepted",
        ],
        &rows,
    );
    dump_json(
        &world.opts,
        if destinations { "table8" } else { "table7" },
        json!({ "rows": json_rows }),
    );
}

/// The idle-time ablation: destination-aware ET vs uniform ET (the
/// constant `t_c / 2` in every region).
pub fn ablation(world: &World) {
    let n = world.opts.drivers(3_000);
    let specs = [
        PolicySpec::Irg(OracleKind::Real),
        PolicySpec::IrgUniformEt(OracleKind::Real),
        PolicySpec::Ls(OracleKind::Real),
        PolicySpec::LsUniformEt(OracleKind::Real),
    ];
    let results = parallel_map(specs.to_vec(), world.opts.threads, |spec| {
        run_cell(world, *spec, &RunCfg::defaults(n, 0))
    });
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                format!("{:.0}", c.revenue),
                format!("{:.0}", c.served),
                format!("{:.2}", c.batch_time_s * 1000.0),
            ]
        })
        .collect();
    print_table(
        "Ablation — destination-aware ET vs uniform ET (* = uniform)",
        &["policy", "revenue", "served", "batch (ms)"],
        &rows,
    );
    dump_json(
        &world.opts,
        "ablation",
        json!({
            "rows": results.iter().map(|c| json!({
                "policy": c.label, "revenue": c.revenue, "served": c.served,
            })).collect::<Vec<_>>()
        }),
    );
}
