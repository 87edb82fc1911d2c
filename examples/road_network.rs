//! Dispatching over a road network instead of straight-line travel —
//! the paper's §2 formalism (`G = ⟨V, E⟩` with travel costs).
//!
//! Builds a Manhattan-style lattice with congestion jitter, wraps it in
//! [`RoadNetworkModel`], and runs IRG on a small workload. Shortest-path
//! queries replace the haversine oracle end to end.
//!
//! ```bash
//! cargo run --release --example road_network
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the example prints wall-clock timings as demo output; nothing feeds back into simulated results"
)]

use mrvd::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    // A 24×24 lattice over the NYC box: ~576 intersections, ~2.2K street
    // segments, 20% congestion jitter.
    let network = RoadNetwork::manhattan_lattice(
        &mut rng,
        Point::new(-74.03, 40.58),
        Point::new(-73.77, 40.92),
        24,
        24,
        5.0,
        0.2,
    );
    println!(
        "road network: {} vertices, {} directed edges",
        network.num_vertices(),
        network.num_edges()
    );
    let travel = RoadNetworkModel::new(network, 5.0);

    let gen = NycLikeGenerator::new(NycLikeConfig {
        orders_per_day: 4_000.0,
        seed: 8,
        ..NycLikeConfig::default()
    });
    let trips = gen.generate_day_trips(0);
    let drivers = sample_driver_positions(&trips, 60, &mut rng);
    let grid = Grid::nyc_16x16();
    let series = count_trips(&trips, &grid);
    let sim = Simulator::new(SimConfig::default(), &travel, &grid);

    let mut policy = QueueingPolicy::irg(DispatchConfig::default(), DemandOracle::real(series, 0));
    let t0 = std::time::Instant::now();
    let res = sim.run(&trips, &drivers, &mut policy);
    println!(
        "{}: revenue {:.0}, served {}/{} ({:.1}%), wall {:.1}s",
        res.policy,
        res.total_revenue,
        res.served,
        res.total_riders,
        100.0 * res.service_rate(),
        t0.elapsed().as_secs_f64()
    );
    println!(
        "(road travel has no speed bound hint, so candidate search scans all \
         drivers — fine at this scale, see mrvd-core docs)"
    );
}
