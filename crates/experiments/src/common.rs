//! Shared experiment infrastructure: the world (workload + trained
//! models), policy specs, run execution, parallel sweeps and table
//! rendering.

use mrvd_core::{
    DemandOracle, DispatchConfig, Ltg, Near, Polar, PolarConfig, QueueingPolicy, Rand, Upper,
};
use mrvd_demand::{
    count_trips, sample_driver_positions, DemandSeries, NycLikeConfig, NycLikeGenerator,
    TripRecord, SLOTS_PER_DAY,
};
use mrvd_prediction::{
    DeepStConfig, DeepStNet, Gbrt, GbrtConfig, GraphConvConfig, GraphConvNet, HistoricalAverage,
    LinearRegression, Predictor,
};
use mrvd_sim::{DispatchPolicy, SimConfig, SimResult, Simulator};
use mrvd_spatial::{ConstantSpeedModel, Grid, Point};
use rand::{rngs::StdRng, SeedableRng};

/// The paper's test-day order volume (§6.1).
pub const PAPER_ORDERS: f64 = 282_255.0;
/// Training days (paper Table 5).
pub const TRAIN_DAYS: usize = 91;
/// Held-out days for the prediction metrics (paper Table 5's test split).
pub const TEST_DAYS: usize = 10;
/// The dispatch experiments run on the first held-out day.
pub const DISPATCH_DAY: usize = TRAIN_DAYS;

/// Global experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload scale: orders and drivers are multiplied by this
    /// (1.0 = the paper's 282K orders / 1K–8K drivers).
    pub scale: f64,
    /// Problem instances averaged per configuration (paper: 10).
    pub instances: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// DeepST training epochs (quality/runtime knob).
    pub nn_epochs: usize,
    /// Output directory for JSON result dumps.
    pub out_dir: String,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: 0.25,
            instances: 2,
            seed: 42,
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            nn_epochs: 10,
            out_dir: "results".into(),
        }
    }
}

impl Options {
    /// Scales a paper driver count.
    pub fn drivers(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.scale).round() as usize).max(1)
    }

    /// Scaled order volume.
    pub fn orders(&self) -> f64 {
        PAPER_ORDERS * self.scale
    }
}

/// Trained prediction models, shared (read-only) across runs.
pub struct TrainedModels {
    /// Historical average (stateless).
    pub ha: Box<dyn Predictor + Send + Sync>,
    /// OLS linear regression.
    pub lr: Box<dyn Predictor + Send + Sync>,
    /// Gradient-boosted trees.
    pub gbrt: Box<dyn Predictor + Send + Sync>,
    /// The DeepST-style CNN (the paper's default predictor).
    pub deepst: Box<dyn Predictor + Send + Sync>,
    /// The DeepST-GC graph-conv variant (appendix extension).
    pub graphconv: Box<dyn Predictor + Send + Sync>,
}

/// Everything derived from `(scale, seed)` that experiments share:
/// the generator, the multi-day count history, the dispatch-day trips and
/// the trained models.
pub struct World {
    /// Experiment options the world was built with.
    pub opts: Options,
    /// The 16×16 NYC grid.
    pub grid: Grid,
    /// The workload generator.
    pub generator: NycLikeGenerator,
    /// Count history: days `0..TRAIN_DAYS` synthetic history, days
    /// `TRAIN_DAYS..TRAIN_DAYS+TEST_DAYS` hold the *realized* counts of
    /// the generated test-day trips (day `DISPATCH_DAY` matches `trips`).
    pub series: DemandSeries,
    /// The dispatch day's trips, time-sorted.
    pub trips: Vec<TripRecord>,
    /// The travel model (constant 5 m/s, see DESIGN.md).
    pub travel: ConstantSpeedModel,
    /// Fitted predictors.
    pub models: TrainedModels,
}

impl World {
    /// Builds the world: generates history + test days, trains all
    /// models. Prints progress (model training dominates).
    pub fn build(opts: &Options) -> World {
        let t0 = std::time::Instant::now();
        let generator = NycLikeGenerator::new(NycLikeConfig {
            orders_per_day: opts.orders(),
            seed: opts.seed,
            ..NycLikeConfig::default()
        });
        let grid = generator.grid().clone();
        let total_days = TRAIN_DAYS + TEST_DAYS;
        eprintln!("[world] generating {total_days} days of demand counts…");
        let mut series = generator.generate_counts(total_days);
        // Replace the held-out days with realized trip counts so the
        // "Real" oracle and the predictors see exactly the simulated day.
        let mut dispatch_trips = Vec::new();
        for day in TRAIN_DAYS..total_days {
            let trips = generator.generate_day_trips(day);
            let realized = count_trips(&trips, &grid);
            for slot in 0..SLOTS_PER_DAY {
                for r in 0..grid.num_regions() {
                    series.set(day, slot, r, realized.get(0, slot, r));
                }
            }
            if day == DISPATCH_DAY {
                dispatch_trips = trips;
            }
        }
        eprintln!(
            "[world] dispatch day {DISPATCH_DAY}: {} orders ({:.1}s)",
            dispatch_trips.len(),
            t0.elapsed().as_secs_f64()
        );
        let models = Self::train_models(opts, &grid, &series);
        eprintln!("[world] ready in {:.1}s", t0.elapsed().as_secs_f64());
        World {
            opts: opts.clone(),
            grid,
            generator,
            series,
            trips: dispatch_trips,
            travel: ConstantSpeedModel::default(),
            models,
        }
    }

    fn train_models(opts: &Options, grid: &Grid, series: &DemandSeries) -> TrainedModels {
        let mut ha = HistoricalAverage;
        ha.fit(series, TRAIN_DAYS);
        let t = std::time::Instant::now();
        let mut lr = LinearRegression::new();
        lr.fit(series, TRAIN_DAYS);
        eprintln!("[world] LR fitted ({:.1}s)", t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        let mut gbrt = Gbrt::new(GbrtConfig::default());
        gbrt.fit(series, TRAIN_DAYS);
        eprintln!("[world] GBRT fitted ({:.1}s)", t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        let mut deepst = DeepStNet::new(
            grid.cols() as usize,
            grid.rows() as usize,
            SLOTS_PER_DAY,
            DeepStConfig {
                epochs: opts.nn_epochs,
                ..DeepStConfig::default()
            },
        );
        deepst.fit(series, TRAIN_DAYS);
        eprintln!("[world] DeepST fitted ({:.1}s)", t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        let mut graphconv = GraphConvNet::from_grid(
            grid,
            SLOTS_PER_DAY,
            GraphConvConfig {
                epochs: opts.nn_epochs,
                ..GraphConvConfig::default()
            },
        );
        graphconv.fit(series, TRAIN_DAYS);
        eprintln!(
            "[world] DeepST-GC fitted ({:.1}s)",
            t.elapsed().as_secs_f64()
        );
        TrainedModels {
            ha: Box::new(ha),
            lr: Box::new(lr),
            gbrt: Box::new(gbrt),
            deepst: Box::new(deepst),
            graphconv: Box::new(graphconv),
        }
    }

    /// Initial driver positions for one instance.
    pub fn driver_positions(&self, n: usize, instance: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(self.opts.seed + 1_000 + instance as u64);
        sample_driver_positions(&self.trips, n, &mut rng)
    }
}

/// Prediction model selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Historical average.
    Ha,
    /// Linear regression.
    Lr,
    /// Gradient-boosted trees.
    Gbrt,
    /// The DeepST-style CNN (the paper's default).
    DeepSt,
    /// The graph-conv variant.
    GraphConv,
}

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Ha => "HA",
            ModelKind::Lr => "LR",
            ModelKind::Gbrt => "GBRT",
            ModelKind::DeepSt => "DeepST",
            ModelKind::GraphConv => "DeepST-GC",
        }
    }

    /// All models of the paper's Table 6 plus the appendix variant.
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::DeepSt,
            ModelKind::Ha,
            ModelKind::Lr,
            ModelKind::Gbrt,
            ModelKind::GraphConv,
        ]
    }

    /// The trained instance inside a [`World`].
    pub fn model<'w>(&self, world: &'w World) -> &'w (dyn Predictor + Send + Sync) {
        match self {
            ModelKind::Ha => world.models.ha.as_ref(),
            ModelKind::Lr => world.models.lr.as_ref(),
            ModelKind::Gbrt => world.models.gbrt.as_ref(),
            ModelKind::DeepSt => world.models.deepst.as_ref(),
            ModelKind::GraphConv => world.models.graphconv.as_ref(),
        }
    }
}

/// Demand-oracle selector for the `-P` / `-R` policy flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Ground-truth counts of the dispatch day.
    Real,
    /// A trained model.
    Pred(ModelKind),
}

impl OracleKind {
    fn build(&self, world: &World) -> DemandOracle {
        match self {
            OracleKind::Real => DemandOracle::real(world.series.clone(), DISPATCH_DAY),
            OracleKind::Pred(kind) => DemandOracle::predicted(
                kind.model(world).clone_box(),
                world.series.clone(),
                DISPATCH_DAY,
            ),
        }
    }
}

/// A complete policy specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Idle-ratio greedy (Algorithm 2).
    Irg(OracleKind),
    /// Local search (Algorithm 3).
    Ls(OracleKind),
    /// The Appendix C served-orders variant.
    Short(OracleKind),
    /// IRG with the uniform-ET ablation.
    IrgUniformEt(OracleKind),
    /// LS with the uniform-ET ablation.
    LsUniformEt(OracleKind),
    /// Long-trip greedy.
    Ltg,
    /// Nearest-trip greedy.
    Near,
    /// Random valid assignment.
    Rand,
    /// POLAR with the given oracle.
    Polar(OracleKind),
    /// The revenue upper bound.
    Upper,
}

impl PolicySpec {
    /// Display label (matches the paper's legends).
    pub fn label(&self) -> String {
        let suffix = |o: &OracleKind| match o {
            OracleKind::Real => "R".to_string(),
            OracleKind::Pred(ModelKind::DeepSt) => "P".to_string(),
            OracleKind::Pred(m) => format!("P[{}]", m.label()),
        };
        match self {
            PolicySpec::Irg(o) => format!("IRG-{}", suffix(o)),
            PolicySpec::Ls(o) => format!("LS-{}", suffix(o)),
            PolicySpec::Short(o) => format!("SHORT-{}", suffix(o)),
            PolicySpec::IrgUniformEt(o) => format!("IRG-{}*", suffix(o)),
            PolicySpec::LsUniformEt(o) => format!("LS-{}*", suffix(o)),
            PolicySpec::Ltg => "LTG".into(),
            PolicySpec::Near => "NEAR".into(),
            PolicySpec::Rand => "RAND".into(),
            PolicySpec::Polar(o) => format!("POLAR-{}", suffix(o)),
            PolicySpec::Upper => "UPPER".into(),
        }
    }

    /// Whether the per-batch behaviour depends on the scheduling window
    /// `t_c` (used to reuse runs across the Figure 9 sweep).
    pub fn depends_on_tc(&self) -> bool {
        !matches!(
            self,
            PolicySpec::Ltg | PolicySpec::Near | PolicySpec::Rand | PolicySpec::Upper
        )
    }

    /// Builds the policy for one run.
    pub fn build(
        &self,
        world: &World,
        dispatch_cfg: &DispatchConfig,
        n_drivers: usize,
        instance: usize,
    ) -> Box<dyn DispatchPolicy> {
        match self {
            PolicySpec::Irg(o) => {
                Box::new(QueueingPolicy::irg(dispatch_cfg.clone(), o.build(world)))
            }
            PolicySpec::Ls(o) => Box::new(QueueingPolicy::ls(dispatch_cfg.clone(), o.build(world))),
            PolicySpec::Short(o) => {
                Box::new(QueueingPolicy::short(dispatch_cfg.clone(), o.build(world)))
            }
            PolicySpec::IrgUniformEt(o) => {
                let cfg = DispatchConfig {
                    uniform_et: true,
                    ..dispatch_cfg.clone()
                };
                Box::new(QueueingPolicy::irg(cfg, o.build(world)))
            }
            PolicySpec::LsUniformEt(o) => {
                let cfg = DispatchConfig {
                    uniform_et: true,
                    ..dispatch_cfg.clone()
                };
                Box::new(QueueingPolicy::ls(cfg, o.build(world)))
            }
            PolicySpec::Ltg => Box::new(Ltg::default()),
            PolicySpec::Near => Box::new(Near::default()),
            PolicySpec::Rand => Box::new(Rand::new(world.opts.seed + 3_000 + instance as u64)),
            PolicySpec::Polar(o) => Box::new(Polar::new(
                PolarConfig::default(),
                &o.build(world),
                &world.grid,
                n_drivers,
            )),
            PolicySpec::Upper => Box::new(Upper),
        }
    }
}

/// Parameters of a single simulation run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Fleet size.
    pub n_drivers: usize,
    /// Batch interval Δ, ms.
    pub delta_ms: u64,
    /// Base pickup wait τ, ms.
    pub base_wait_ms: u64,
    /// Scheduling window `t_c`, ms.
    pub tc_ms: u64,
    /// Instance index (drives all per-instance seeds).
    pub instance: usize,
}

impl RunCfg {
    /// The paper's default configuration at a given fleet size
    /// (Δ = 3 s, τ = 180 s, t_c = 15 min).
    pub fn defaults(n_drivers: usize, instance: usize) -> Self {
        Self {
            n_drivers,
            delta_ms: 3_000,
            base_wait_ms: 180_000,
            tc_ms: 15 * 60 * 1000,
            instance,
        }
    }
}

/// Executes one policy for one day.
pub fn run_one(world: &World, spec: PolicySpec, cfg: &RunCfg) -> SimResult {
    let dispatch_cfg = DispatchConfig {
        tc_ms: cfg.tc_ms,
        ..DispatchConfig::default()
    };
    let mut policy = spec.build(world, &dispatch_cfg, cfg.n_drivers, cfg.instance);
    let sim_cfg = SimConfig {
        batch_interval_ms: cfg.delta_ms,
        base_wait_ms: cfg.base_wait_ms,
        seed: world.opts.seed + 2_000 + cfg.instance as u64,
        ..SimConfig::default()
    };
    let sim = Simulator::new(sim_cfg, &world.travel, &world.grid);
    let drivers = world.driver_positions(cfg.n_drivers, cfg.instance);
    sim.run(&world.trips, &drivers, policy.as_mut())
}

/// Mean results of one `(spec, cfg)` cell across instances.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Policy label.
    pub label: String,
    /// Mean total revenue.
    pub revenue: f64,
    /// Mean served orders.
    pub served: f64,
    /// Mean reneged orders.
    pub reneged: f64,
    /// Mean per-batch wall time, seconds.
    pub batch_time_s: f64,
}

/// Runs `(spec, cfg)` for all instances and averages. `cfg.instance` is
/// overwritten per instance.
pub fn run_cell(world: &World, spec: PolicySpec, cfg: &RunCfg) -> CellResult {
    let mut revenue = 0.0;
    let mut served = 0.0;
    let mut reneged = 0.0;
    let mut batch = 0.0;
    let n = world.opts.instances.max(1);
    for i in 0..n {
        let mut c = cfg.clone();
        c.instance = i;
        let r = run_one(world, spec, &c);
        revenue += r.total_revenue;
        served += r.served as f64;
        reneged += r.reneged as f64;
        batch += r.mean_batch_time_s();
    }
    let inv = 1.0 / n as f64;
    CellResult {
        label: spec.label(),
        revenue: revenue * inv,
        served: served * inv,
        reneged: reneged * inv,
        batch_time_s: batch * inv,
    }
}

/// Runs a list of jobs on a small worker pool, preserving output order
/// (shared with the scenario sweep runner).
pub use mrvd_stats::parallel_map;

/// Renders an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{c:<w$}", w = widths[i]));
            } else {
                s.push_str(&format!("  {c:>w$}", w = widths[i]));
            }
        }
        s
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Writes a JSON value into `<out_dir>/<name>.json`.
pub fn dump_json(opts: &Options, name: &str, value: serde_json::Value) {
    let dir = std::path::Path::new(&opts.out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[warn] cannot create {}: {e}", opts.out_dir);
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(
        &path,
        serde_json::to_string_pretty(&value).expect("serializable"),
    ) {
        Ok(()) => eprintln!("[out] wrote {}", path.display()),
        Err(e) => eprintln!("[warn] cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_scale_drivers() {
        let opts = Options {
            scale: 0.25,
            ..Options::default()
        };
        assert_eq!(opts.drivers(3_000), 750);
        assert_eq!(opts.drivers(1), 1); // never zero
        assert!((opts.orders() - PAPER_ORDERS * 0.25).abs() < 1e-9);
    }

    #[test]
    fn policy_labels_match_paper_legends() {
        assert_eq!(PolicySpec::Irg(OracleKind::Real).label(), "IRG-R");
        assert_eq!(
            PolicySpec::Ls(OracleKind::Pred(ModelKind::DeepSt)).label(),
            "LS-P"
        );
        assert_eq!(
            PolicySpec::Irg(OracleKind::Pred(ModelKind::Gbrt)).label(),
            "IRG-P[GBRT]"
        );
        assert_eq!(PolicySpec::Upper.label(), "UPPER");
        assert_eq!(PolicySpec::IrgUniformEt(OracleKind::Real).label(), "IRG-R*");
    }

    #[test]
    fn tc_dependence_flags() {
        assert!(PolicySpec::Irg(OracleKind::Real).depends_on_tc());
        assert!(PolicySpec::Polar(OracleKind::Real).depends_on_tc());
        assert!(!PolicySpec::Rand.depends_on_tc());
        assert!(!PolicySpec::Ltg.depends_on_tc());
        assert!(!PolicySpec::Upper.depends_on_tc());
    }

    #[test]
    fn run_cfg_defaults_match_paper_table2() {
        let cfg = RunCfg::defaults(100, 0);
        assert_eq!(cfg.delta_ms, 3_000);
        assert_eq!(cfg.base_wait_ms, 180_000);
        assert_eq!(cfg.tc_ms, 15 * 60 * 1000);
    }
}
