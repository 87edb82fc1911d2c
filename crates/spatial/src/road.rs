//! Road networks `G = ⟨V, E⟩` with non-negative travel costs
//! (the paper's §2 formalism) and shortest-path queries.
//!
//! The paper's experiments use grid distances, but the problem is defined on
//! a road network, so the crate ships a real graph implementation: adjacency
//! lists, Dijkstra (single-source and early-exit point-to-point), and a
//! synthetic Manhattan-lattice generator for examples and tests.

use crate::geo::Point;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a road-network vertex.
pub type VertexId = u32;

/// A directed road network with non-negative edge costs.
///
/// Costs are in abstract units chosen by the builder — the MRVD stack uses
/// seconds of travel time, matching the paper's use of travel cost as travel
/// time throughout.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    positions: Vec<Point>,
    adj: Vec<Vec<(VertexId, f64)>>,
}

impl RoadNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self {
            positions: Vec::new(),
            adj: Vec::new(),
        }
    }

    /// Adds a vertex at `p` and returns its id.
    ///
    /// # Panics
    /// Panics if the network already has 2^32 vertices, so the new id
    /// would not fit a [`VertexId`].
    pub fn add_vertex(&mut self, p: Point) -> VertexId {
        let id = u32::try_from(self.positions.len()).expect("vertex id exceeds u32");
        self.positions.push(p);
        self.adj.push(Vec::new());
        id
    }

    /// Adds a directed edge `u → v` with the given cost.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist or the cost is negative/NaN.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, cost: f64) {
        assert!((u as usize) < self.adj.len(), "add_edge: unknown source");
        assert!((v as usize) < self.adj.len(), "add_edge: unknown target");
        assert!(cost >= 0.0 && cost.is_finite(), "add_edge: bad cost {cost}");
        self.adj[u as usize].push((v, cost));
    }

    /// Adds edges in both directions with the same cost.
    pub fn add_edge_undirected(&mut self, u: VertexId, v: VertexId, cost: f64) {
        self.add_edge(u, v, cost);
        self.add_edge(v, u, cost);
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Position of a vertex.
    ///
    /// # Panics
    /// Panics if the vertex does not exist.
    pub fn position(&self, v: VertexId) -> Point {
        self.positions[v as usize]
    }

    /// The vertex nearest to `p` by great-circle distance
    /// (linear scan; snapping is not on the hot path).
    ///
    /// Returns `None` for an empty network.
    ///
    /// # Panics
    /// Panics if the nearest vertex's index does not fit a [`VertexId`],
    /// which [`RoadNetwork::add_vertex`] already rules out.
    pub fn nearest_vertex(&self, p: Point) -> Option<VertexId> {
        self.positions
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| {
                // Explicit tie-break on equal distances: the highest
                // vertex id wins, which is exactly what `min_by` alone
                // did on equal keys (it keeps the last minimum), so the
                // snap stays bit-identical while no longer depending on
                // that implicit behavior.
                a.distance_m(&p)
                    .partial_cmp(&b.distance_m(&p))
                    .expect("distance is never NaN")
                    .then(j.cmp(i))
            })
            .map(|(i, _)| u32::try_from(i).expect("vertex id exceeds u32"))
    }

    /// Single-source Dijkstra: cost from `src` to every vertex
    /// (`f64::INFINITY` when unreachable).
    ///
    /// # Panics
    /// Panics if `src` does not exist.
    pub fn dijkstra(&self, src: VertexId) -> Vec<f64> {
        assert!((src as usize) < self.adj.len(), "dijkstra: unknown source");
        let mut dist = vec![f64::INFINITY; self.adj.len()];
        dist[src as usize] = 0.0;
        let mut heap: BinaryHeap<Reverse<(OrdF64, VertexId)>> = BinaryHeap::new();
        heap.push(Reverse((OrdF64(0.0), src)));
        while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((OrdF64(nd), v)));
                }
            }
        }
        dist
    }

    /// Point-to-point shortest path cost with early exit;
    /// `f64::INFINITY` when unreachable.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist.
    pub fn shortest_path_cost(&self, src: VertexId, dst: VertexId) -> f64 {
        assert!((src as usize) < self.adj.len(), "unknown source");
        assert!((dst as usize) < self.adj.len(), "unknown target");
        if src == dst {
            return 0.0;
        }
        let mut dist = vec![f64::INFINITY; self.adj.len()];
        dist[src as usize] = 0.0;
        let mut heap: BinaryHeap<Reverse<(OrdF64, VertexId)>> = BinaryHeap::new();
        heap.push(Reverse((OrdF64(0.0), src)));
        while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
            if u == dst {
                return d;
            }
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((OrdF64(nd), v)));
                }
            }
        }
        f64::INFINITY
    }

    /// Generates a `cols × rows` Manhattan-style lattice over the given box.
    ///
    /// Every vertex connects to its 4-neighbours; each undirected street
    /// segment gets cost `great-circle length / speed_mps`, perturbed by a
    /// factor drawn uniformly from `[1, 1 + jitter]` to model congestion
    /// (jitter 0 gives exact grid travel times).
    ///
    /// # Panics
    /// Panics if `cols`/`rows` < 2, `speed_mps <= 0`, or `jitter < 0`.
    pub fn manhattan_lattice<R: Rng + ?Sized>(
        rng: &mut R,
        min: Point,
        max: Point,
        cols: u32,
        rows: u32,
        speed_mps: f64,
        jitter: f64,
    ) -> Self {
        assert!(
            cols >= 2 && rows >= 2,
            "lattice needs at least 2x2 vertices"
        );
        assert!(speed_mps > 0.0, "speed must be positive");
        assert!(jitter >= 0.0, "jitter must be non-negative");
        let mut net = Self::new();
        for r in 0..rows {
            for c in 0..cols {
                let lon = min.lon + (max.lon - min.lon) * c as f64 / (cols - 1) as f64;
                let lat = min.lat + (max.lat - min.lat) * r as f64 / (rows - 1) as f64;
                net.add_vertex(Point::new(lon, lat));
            }
        }
        let vid = |c: u32, r: u32| (r * cols + c) as VertexId;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    let (u, v) = (vid(c, r), vid(c + 1, r));
                    let len = net.position(u).distance_m(&net.position(v));
                    let f = 1.0 + rng.gen::<f64>() * jitter;
                    net.add_edge_undirected(u, v, len / speed_mps * f);
                }
                if r + 1 < rows {
                    let (u, v) = (vid(c, r), vid(c, r + 1));
                    let len = net.position(u).distance_m(&net.position(v));
                    let f = 1.0 + rng.gen::<f64>() * jitter;
                    net.add_edge_undirected(u, v, len / speed_mps * f);
                }
            }
        }
        net
    }
}

impl Default for RoadNetwork {
    fn default() -> Self {
        Self::new()
    }
}

/// Total order on finite non-NaN floats for use in the Dijkstra heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("costs are never NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};
    use rand::{rngs::StdRng, SeedableRng};

    fn diamond() -> RoadNetwork {
        // 0 →(1) 1 →(1) 3, 0 →(4) 2 →(0.5) 3
        let mut n = RoadNetwork::new();
        for i in 0..4 {
            n.add_vertex(Point::new(i as f64, 0.0));
        }
        n.add_edge(0, 1, 1.0);
        n.add_edge(1, 3, 1.0);
        n.add_edge(0, 2, 4.0);
        n.add_edge(2, 3, 0.5);
        n
    }

    #[test]
    fn dijkstra_finds_shortest() {
        let n = diamond();
        let d = n.dijkstra(0);
        assert_eq!(d, vec![0.0, 1.0, 4.0, 2.0]);
        assert_eq!(n.shortest_path_cost(0, 3), 2.0);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut n = diamond();
        let lonely = n.add_vertex(Point::new(9.0, 9.0));
        assert!(n.shortest_path_cost(0, lonely).is_infinite());
        assert!(n.dijkstra(0)[lonely as usize].is_infinite());
        // But the reverse direction from the lonely vertex to itself is 0.
        assert_eq!(n.shortest_path_cost(lonely, lonely), 0.0);
    }

    #[test]
    fn lattice_is_connected_and_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = RoadNetwork::manhattan_lattice(
            &mut rng,
            Point::new(-74.03, 40.58),
            Point::new(-73.77, 40.92),
            8,
            8,
            8.0,
            0.3,
        );
        assert_eq!(n.num_vertices(), 64);
        // 2 * (cols-1)*rows + 2 * cols*(rows-1) directed edges.
        assert_eq!(n.num_edges(), 2 * (7 * 8) * 2);
        let d = n.dijkstra(0);
        assert!(d.iter().all(|x| x.is_finite()), "lattice must be connected");
        // Path cost to the far corner is at least straight-line time.
        let far = (n.num_vertices() - 1) as VertexId;
        let line = n.position(0).distance_m(&n.position(far)) / 8.0;
        assert!(d[far as usize] >= line * 0.99);
    }

    #[test]
    fn nearest_vertex_snaps() {
        let n = diamond();
        assert_eq!(n.nearest_vertex(Point::new(0.1, 0.0)), Some(0));
        assert_eq!(n.nearest_vertex(Point::new(2.9, 0.1)), Some(3));
        assert_eq!(
            RoadNetwork::new().nearest_vertex(Point::new(0.0, 0.0)),
            None
        );
    }

    #[test]
    fn nearest_vertex_ties_break_to_highest_id() {
        // Co-located vertices produce exactly equal distances: the
        // explicit tie-break must reproduce what bare `min_by` did
        // before it (keep the *last* minimum, i.e. the highest id).
        let mut n = RoadNetwork::new();
        n.add_vertex(Point::new(1.0, 1.0));
        n.add_vertex(Point::new(1.0, 1.0));
        n.add_vertex(Point::new(1.0, 1.0));
        n.add_vertex(Point::new(5.0, 5.0));
        assert_eq!(n.nearest_vertex(Point::new(1.0, 1.0)), Some(2));
        // Equidistant distinct positions tie the same way.
        let mut m = RoadNetwork::new();
        m.add_vertex(Point::new(0.0, 1.0));
        m.add_vertex(Point::new(0.0, -1.0));
        assert_eq!(m.nearest_vertex(Point::new(0.0, 0.0)), Some(1));
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_on_small_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let n_v = 8usize;
            let mut net = RoadNetwork::new();
            for i in 0..n_v {
                net.add_vertex(Point::new(i as f64, 0.0));
            }
            let mut fw = vec![vec![f64::INFINITY; n_v]; n_v];
            for (i, row) in fw.iter_mut().enumerate() {
                row[i] = 0.0;
            }
            for _ in 0..20 {
                let u = rng.gen_range(0..n_v);
                let v = rng.gen_range(0..n_v);
                if u == v {
                    continue;
                }
                let w = rng.gen_range(0.1..10.0);
                net.add_edge(u as VertexId, v as VertexId, w);
                if w < fw[u][v] {
                    fw[u][v] = w;
                }
            }
            for k in 0..n_v {
                for i in 0..n_v {
                    for j in 0..n_v {
                        let alt = fw[i][k] + fw[k][j];
                        if alt < fw[i][j] {
                            fw[i][j] = alt;
                        }
                    }
                }
            }
            for (src, fw_row) in fw.iter().enumerate() {
                let d = net.dijkstra(src as VertexId);
                for dst in 0..n_v {
                    let (a, b) = (d[dst], fw_row[dst]);
                    assert!(
                        (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                        "src {src} dst {dst}: dijkstra {a}, fw {b}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn point_to_point_matches_full_dijkstra(seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = RoadNetwork::manhattan_lattice(
                &mut rng,
                Point::new(0.0, 0.0),
                Point::new(0.1, 0.1),
                5,
                4,
                10.0,
                0.5,
            );
            let src = rng.gen_range(0..net.num_vertices()) as VertexId;
            let dst = rng.gen_range(0..net.num_vertices()) as VertexId;
            let full = net.dijkstra(src)[dst as usize];
            let p2p = net.shortest_path_cost(src, dst);
            prop_assert!((full - p2p).abs() < 1e-9);
        }
    }
}
