//! Reachability over the call graph.
//!
//! A deterministic breadth-first closure from the declared roots, with
//! parent pointers so every reachable fn can carry its full call chain
//! (root → … → fn) in `LINT_callgraph.json`. Kept as a pure function over plain
//! adjacency lists — no graph types — so properties (monotonicity under
//! edge addition, chain validity) are directly testable.

/// Result of a reachability pass over `n` nodes.
#[derive(Debug, Clone)]
pub struct Reach {
    /// `reachable[v]` — whether node `v` is reachable from any root.
    pub reachable: Vec<bool>,
    /// `parent[v]` — the node that first discovered `v` (`None` for
    /// roots and unreachable nodes).
    pub parent: Vec<Option<usize>>,
    /// BFS depth from the nearest root (`usize::MAX` when unreachable).
    pub depth: Vec<usize>,
}

impl Reach {
    /// Whether node `v` is worker-reachable.
    pub fn is_reachable(&self, v: usize) -> bool {
        self.reachable.get(v).copied().unwrap_or(false)
    }

    /// The call chain root → … → `v` as node ids (empty when `v` is
    /// unreachable).
    pub fn chain_to(&self, v: usize) -> Vec<usize> {
        if !self.is_reachable(v) {
            return Vec::new();
        }
        let mut chain = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// Compute the closure of `roots` over `edges` (adjacency lists for `n`
/// nodes). Deterministic: roots are visited in the given order and each
/// adjacency list in order, so parent pointers (and thus reported
/// chains) are stable run to run.
pub fn closure(n: usize, edges: &[Vec<usize>], roots: &[usize]) -> Reach {
    let mut reach = Reach {
        reachable: vec![false; n],
        parent: vec![None; n],
        depth: vec![usize::MAX; n],
    };
    let mut queue = std::collections::VecDeque::new();
    for &r in roots {
        if r < n && !reach.reachable[r] {
            reach.reachable[r] = true;
            reach.depth[r] = 0;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in edges.get(u).map(Vec::as_slice).unwrap_or(&[]) {
            if v < n && !reach.reachable[v] {
                reach.reachable[v] = true;
                reach.parent[v] = Some(u);
                reach.depth[v] = reach.depth[u] + 1;
                queue.push_back(v);
            }
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut a = vec![Vec::new(); n];
        for &(u, v) in edges {
            a[u].push(v);
        }
        a
    }

    #[test]
    fn closure_follows_edges_transitively() {
        let edges = adj(5, &[(0, 1), (1, 2), (3, 4)]);
        let r = closure(5, &edges, &[0]);
        assert!(r.is_reachable(0) && r.is_reachable(1) && r.is_reachable(2));
        assert!(!r.is_reachable(3) && !r.is_reachable(4));
        assert_eq!(r.chain_to(2), vec![0, 1, 2]);
        assert_eq!(r.chain_to(4), Vec::<usize>::new());
    }

    #[test]
    fn chains_prefer_shortest_paths() {
        // 0→1→2→3 and 0→3: BFS must report the direct chain.
        let edges = adj(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let r = closure(4, &edges, &[0]);
        assert_eq!(r.chain_to(3), vec![0, 3]);
        assert_eq!(r.depth[3], 1);
    }

    #[test]
    fn multiple_roots_and_cycles_terminate() {
        let edges = adj(4, &[(0, 1), (1, 0), (2, 2), (1, 3)]);
        let r = closure(4, &edges, &[0, 2]);
        assert!(r.is_reachable(3));
        assert!(r.is_reachable(2));
        assert_eq!(r.chain_to(2), vec![2]);
        assert_eq!(r.chain_to(3), vec![0, 1, 3]);
    }

    #[test]
    fn out_of_range_roots_and_edges_are_ignored() {
        let edges = adj(2, &[(0, 1)]);
        let r = closure(2, &edges, &[7, 0]);
        assert!(r.is_reachable(1));
    }
}
