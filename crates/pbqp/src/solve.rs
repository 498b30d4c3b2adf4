use std::collections::{BTreeMap, HashMap};

use crate::{CostMatrix, PbqpError, PbqpGraph, PbqpNodeId};

/// A complete assignment for a PBQP instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Option index chosen for each node, indexed by node id.
    pub selections: Vec<usize>,
    /// Total cost of the assignment (node costs plus edge costs),
    /// recomputed on the original instance.
    pub total_cost: f64,
    /// Whether the solver proved this assignment optimal. `false` only when
    /// the irreducible core exceeded the solver's exact-search budget and
    /// the RN heuristic supplied the answer.
    pub optimal: bool,
    /// Reduction statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// The option chosen for `node`.
    pub fn selection(&self, node: PbqpNodeId) -> usize {
        self.selections[node.index()]
    }
}

/// Counters describing how a solve proceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Degree-0 eliminations.
    pub r0: usize,
    /// Degree-1 (RI) eliminations.
    pub r1: usize,
    /// Degree-2 (RII) eliminations.
    pub r2: usize,
    /// Nodes left in the irreducible core.
    pub core_nodes: usize,
    /// Branch-and-bound search steps taken.
    pub bb_steps: u64,
}

/// The PBQP solver. See the crate docs for the algorithm outline.
///
/// # Example
///
/// ```
/// use pbqp_solver::{PbqpGraph, Solver};
///
/// let mut g = PbqpGraph::new();
/// let n = g.add_node(vec![3.0, 1.0, 2.0]);
/// let s = Solver::new().solve(&g).unwrap();
/// assert_eq!(s.selection(n), 1);
/// assert_eq!(s.total_cost, 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Solver {
    heuristic_only: bool,
    bb_step_budget: u64,
    bb_core_budget: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the default exact-search budgets.
    pub fn new() -> Solver {
        Solver { heuristic_only: false, bb_step_budget: 20_000_000, bb_core_budget: 128 }
    }

    /// Disables branch and bound; the irreducible core is solved with the
    /// RN local-minimum heuristic only. Solutions are marked non-optimal
    /// whenever a core exists. Used by the solver-ablation benchmark.
    pub fn heuristic_only(mut self, yes: bool) -> Solver {
        self.heuristic_only = yes;
        self
    }

    /// Caps branch-and-bound search steps before falling back to the
    /// incumbent heuristic solution.
    pub fn bb_step_budget(mut self, steps: u64) -> Solver {
        self.bb_step_budget = steps;
        self
    }

    /// Solves the instance.
    ///
    /// # Errors
    ///
    /// Returns [`PbqpError::Infeasible`] when every complete assignment has
    /// infinite cost (e.g. two adjacent nodes with no legal layout chain).
    pub fn solve(&self, g: &PbqpGraph) -> Result<Solution, PbqpError> {
        if g.num_nodes() == 0 {
            return Ok(Solution {
                selections: Vec::new(),
                total_cost: 0.0,
                optimal: true,
                stats: SolveStats::default(),
            });
        }

        let mut st = State::new(g);
        let mut stats = SolveStats::default();
        st.normalize_all();
        st.reduce(&mut stats);

        let core: Vec<usize> = (0..st.costs.len()).filter(|&u| st.alive[u]).collect();
        stats.core_nodes = core.len();

        let mut selections = vec![usize::MAX; g.num_nodes()];
        let mut proved_optimal = true;
        if !core.is_empty() {
            let (core_sel, exact) = self.solve_core(&st, &core, &mut stats);
            proved_optimal = exact;
            for (&u, &s) in core.iter().zip(&core_sel) {
                selections[u] = s;
            }
        }

        // Back-propagate eliminated nodes in reverse elimination order.
        for record in st.trail.iter().rev() {
            match record {
                Reduction::R0 { node, choice } => selections[*node] = *choice,
                Reduction::RI { node, neighbor, best } => {
                    selections[*node] = best[selections[*neighbor]];
                }
                Reduction::RII { node, v, w, best, w_options } => {
                    selections[*node] = best[selections[*v] * w_options + selections[*w]];
                }
            }
        }

        let total_cost = g.assignment_cost(&selections);
        if !total_cost.is_finite() {
            return Err(PbqpError::Infeasible);
        }
        Ok(Solution { selections, total_cost, optimal: proved_optimal, stats })
    }

    /// Exhaustively enumerates every assignment. Exponential; intended for
    /// cross-checking the reduction-based solver on small instances and for
    /// the solver-ablation benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`PbqpError::Infeasible`] when no finite assignment exists.
    pub fn solve_exhaustive(&self, g: &PbqpGraph) -> Result<Solution, PbqpError> {
        let n = g.num_nodes();
        let mut current = vec![0usize; n];
        let mut best: Option<(f64, Vec<usize>)> = None;
        loop {
            let cost = g.assignment_cost(&current);
            if cost.is_finite() && best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, current.clone()));
            }
            // Odometer increment over the option space.
            let mut ix = 0;
            loop {
                if ix == n {
                    let (total_cost, selections) = best.ok_or(PbqpError::Infeasible)?;
                    return Ok(Solution {
                        selections,
                        total_cost,
                        optimal: true,
                        stats: SolveStats::default(),
                    });
                }
                current[ix] += 1;
                if current[ix] < g.node_costs(PbqpNodeId(ix)).len() {
                    break;
                }
                current[ix] = 0;
                ix += 1;
            }
        }
    }

    /// Solves the irreducible core: RN-greedy incumbent, then exact branch
    /// and bound unless disabled or over budget. Returns the selection (in
    /// `core` order) and whether it is proved optimal.
    fn solve_core(&self, st: &State, core: &[usize], stats: &mut SolveStats) -> (Vec<usize>, bool) {
        // Order: highest degree first (classic RN order).
        let mut order: Vec<usize> = (0..core.len()).collect();
        order.sort_by_key(|&ci| std::cmp::Reverse(st.adj[core[ci]].len()));

        let incumbent = self.rn_greedy(st, core, &order);
        let incumbent_cost = self.core_cost(st, core, &incumbent);

        if self.heuristic_only || core.len() > self.bb_core_budget {
            return (incumbent, false);
        }

        let mut best = incumbent;
        let mut best_cost = incumbent_cost;
        let mut steps = 0u64;
        let mut sel = vec![usize::MAX; core.len()];
        let complete =
            self.branch(st, core, &order, 0, 0.0, &mut sel, &mut best, &mut best_cost, &mut steps);
        stats.bb_steps = steps;
        (best, complete)
    }

    /// RN heuristic: assign nodes in `order`, each to its locally cheapest
    /// option given already-assigned neighbours (optimistic minima toward
    /// unassigned ones).
    fn rn_greedy(&self, st: &State, core: &[usize], order: &[usize]) -> Vec<usize> {
        let pos: HashMap<usize, usize> = core.iter().enumerate().map(|(ci, &u)| (u, ci)).collect();
        let mut sel = vec![usize::MAX; core.len()];
        for &ci in order {
            let u = core[ci];
            let opts = st.costs[u].len();
            let mut best_opt = 0;
            let mut best_val = f64::INFINITY;
            for i in 0..opts {
                let mut v = st.costs[u][i];
                for (&nb, m) in &st.adj[u] {
                    let Some(&nci) = pos.get(&nb) else { continue };
                    if sel[nci] != usize::MAX {
                        v += m.at(i, sel[nci]);
                    } else {
                        v += m.row_min(i);
                    }
                }
                if v < best_val {
                    best_val = v;
                    best_opt = i;
                }
            }
            sel[ci] = best_opt;
        }
        sel
    }

    fn core_cost(&self, st: &State, core: &[usize], sel: &[usize]) -> f64 {
        let pos: HashMap<usize, usize> = core.iter().enumerate().map(|(ci, &u)| (u, ci)).collect();
        let mut total = 0.0;
        for (ci, &u) in core.iter().enumerate() {
            total += st.costs[u][sel[ci]];
            for (&nb, m) in &st.adj[u] {
                if nb > u {
                    total += m.at(sel[ci], sel[pos[&nb]]);
                }
            }
        }
        total
    }

    /// Depth-first branch and bound. Returns `true` when the search ran to
    /// completion (result provably optimal).
    #[allow(clippy::too_many_arguments)]
    fn branch(
        &self,
        st: &State,
        core: &[usize],
        order: &[usize],
        depth: usize,
        acc: f64,
        sel: &mut [usize],
        best: &mut Vec<usize>,
        best_cost: &mut f64,
        steps: &mut u64,
    ) -> bool {
        *steps += 1;
        if *steps > self.bb_step_budget {
            return false;
        }
        if depth == order.len() {
            if acc < *best_cost {
                *best_cost = acc;
                best.copy_from_slice(sel);
            }
            return true;
        }

        let pos: HashMap<usize, usize> = core.iter().enumerate().map(|(ci, &u)| (u, ci)).collect();
        let ci = order[depth];
        let u = core[ci];
        let opts = st.costs[u].len();

        // Conditioned cost of each option: node cost + edges to assigned.
        let mut cond: Vec<(f64, usize)> = (0..opts)
            .map(|i| {
                let mut v = st.costs[u][i];
                for (&nb, m) in &st.adj[u] {
                    let Some(&nci) = pos.get(&nb) else { continue };
                    if sel[nci] != usize::MAX {
                        v += m.at(i, sel[nci]);
                    }
                }
                (v, i)
            })
            .collect();
        cond.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut complete = true;
        for (v, i) in cond {
            if !v.is_finite() {
                break; // sorted: everything after is infinite too
            }
            let next_acc = acc + v;
            // Optimistic bound: every unassigned node takes its cheapest
            // conditioned option; unassigned-unassigned edges take their
            // matrix minimum (counted once, from the lower-indexed side).
            sel[ci] = i;
            let mut bound = next_acc;
            for &cj in &order[depth + 1..] {
                let nu = core[cj];
                let mut node_best = f64::INFINITY;
                for oi in 0..st.costs[nu].len() {
                    let mut nv = st.costs[nu][oi];
                    for (&nb, m) in &st.adj[nu] {
                        let Some(&nci) = pos.get(&nb) else { continue };
                        if sel[nci] != usize::MAX {
                            nv += m.at(oi, sel[nci]);
                        }
                    }
                    node_best = node_best.min(nv);
                }
                bound += node_best;
            }
            if bound < *best_cost {
                complete &=
                    self.branch(st, core, order, depth + 1, next_acc, sel, best, best_cost, steps);
            }
            sel[ci] = usize::MAX;
            if *steps > self.bb_step_budget {
                return false;
            }
        }
        complete
    }
}

/// Back-propagation record for one eliminated node.
#[allow(clippy::upper_case_acronyms)] // RI/RII are the literature's names
enum Reduction {
    R0 { node: usize, choice: usize },
    RI { node: usize, neighbor: usize, best: Vec<usize> },
    RII { node: usize, v: usize, w: usize, best: Vec<usize>, w_options: usize },
}

/// Mutable solver state: cost vectors, adjacency with per-node oriented
/// matrices (rows index the owning node's options), and the reduction
/// trail.
struct State {
    costs: Vec<Vec<f64>>,
    /// adj[u][v] = matrix with rows = u's options, cols = v's options.
    /// Ordered by neighbour, so every walk over it (and with it every
    /// tie the reductions and the search break) is the same in every
    /// process.
    adj: Vec<BTreeMap<usize, CostMatrix>>,
    alive: Vec<bool>,
    trail: Vec<Reduction>,
}

impl State {
    fn new(g: &PbqpGraph) -> State {
        let n = g.num_nodes();
        let mut adj: Vec<BTreeMap<usize, CostMatrix>> = vec![BTreeMap::new(); n];
        for (&(u, v), m) in &g.edges {
            adj[u].insert(v, m.clone());
            adj[v].insert(u, m.transposed());
        }
        State { costs: g.costs.clone(), adj, alive: vec![true; n], trail: Vec::new() }
    }

    /// Pushes independent row/column minima of every edge into node costs
    /// and deletes edges that become all-zero.
    fn normalize_all(&mut self) {
        let pairs: Vec<(usize, usize)> = (0..self.adj.len())
            .flat_map(|u| {
                self.adj[u]
                    .keys()
                    .filter(move |&&v| v > u)
                    .map(move |&v| (u, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (u, v) in pairs {
            self.normalize_edge(u, v);
        }
    }

    /// Normalizes the edge `(u, v)`; removes it if its matrix becomes zero.
    fn normalize_edge(&mut self, u: usize, v: usize) {
        let Some(mut m) = self.adj[u].remove(&v) else { return };
        self.adj[v].remove(&u);

        // Row pass: minima into u's costs.
        for i in 0..m.rows() {
            let rm = m.row_min(i);
            if rm == f64::INFINITY {
                // Option i at u is illegal whatever v picks.
                self.costs[u][i] = f64::INFINITY;
                for j in 0..m.cols() {
                    m.set(i, j, 0.0);
                }
            } else if rm != 0.0 {
                self.costs[u][i] += rm;
                for j in 0..m.cols() {
                    let cur = m.at(i, j);
                    m.set(i, j, if cur == f64::INFINITY { cur } else { cur - rm });
                }
            }
        }
        // Column pass: minima into v's costs.
        for j in 0..m.cols() {
            let cm = m.col_min(j);
            if cm == f64::INFINITY {
                self.costs[v][j] = f64::INFINITY;
                for i in 0..m.rows() {
                    m.set(i, j, 0.0);
                }
            } else if cm != 0.0 {
                self.costs[v][j] += cm;
                for i in 0..m.rows() {
                    let cur = m.at(i, j);
                    m.set(i, j, if cur == f64::INFINITY { cur } else { cur - cm });
                }
            }
        }

        if !m.is_zero() {
            self.adj[v].insert(u, m.transposed());
            self.adj[u].insert(v, m);
        }
    }

    /// Runs R0/RI/RII to a fixed point.
    fn reduce(&mut self, stats: &mut SolveStats) {
        loop {
            // Lowest-degree reducible node first.
            let mut candidate: Option<(usize, usize)> = None; // (degree, node)
            for u in 0..self.costs.len() {
                if !self.alive[u] {
                    continue;
                }
                let d = self.adj[u].len();
                if d <= 2 && candidate.is_none_or(|(cd, _)| d < cd) {
                    candidate = Some((d, u));
                    if d == 0 {
                        break;
                    }
                }
            }
            let Some((degree, u)) = candidate else { return };
            match degree {
                0 => self.reduce_r0(u, stats),
                1 => self.reduce_r1(u, stats),
                2 => self.reduce_r2(u, stats),
                _ => unreachable!(),
            }
        }
    }

    fn reduce_r0(&mut self, u: usize, stats: &mut SolveStats) {
        let choice = argmin(&self.costs[u]);
        self.trail.push(Reduction::R0 { node: u, choice });
        self.alive[u] = false;
        stats.r0 += 1;
    }

    fn reduce_r1(&mut self, u: usize, stats: &mut SolveStats) {
        let (&v, _) = self.adj[u].iter().next().expect("degree 1");
        let m = self.adj[u].remove(&v).expect("edge present");
        self.adj[v].remove(&u);

        let v_opts = self.costs[v].len();
        let mut best = vec![0usize; v_opts];
        #[allow(clippy::needless_range_loop)] // j also indexes the matrix column
        for j in 0..v_opts {
            let mut bi = 0;
            let mut bv = f64::INFINITY;
            for i in 0..self.costs[u].len() {
                let val = self.costs[u][i] + m.at(i, j);
                if val < bv {
                    bv = val;
                    bi = i;
                }
            }
            // All-infinite column: option j at v is infeasible.
            self.costs[v][j] += if bv.is_finite() { bv } else { f64::INFINITY };
            best[j] = bi;
        }
        self.trail.push(Reduction::RI { node: u, neighbor: v, best });
        self.alive[u] = false;
        stats.r1 += 1;
    }

    fn reduce_r2(&mut self, u: usize, stats: &mut SolveStats) {
        let mut it = self.adj[u].keys().copied();
        let v = it.next().expect("degree 2");
        let w = it.next().expect("degree 2");
        drop(it);
        let muv = self.adj[u].remove(&v).expect("edge");
        let muw = self.adj[u].remove(&w).expect("edge");
        self.adj[v].remove(&u);
        self.adj[w].remove(&u);

        let v_opts = self.costs[v].len();
        let w_opts = self.costs[w].len();
        let mut delta = CostMatrix::zeros(v_opts, w_opts);
        let mut best = vec![0usize; v_opts * w_opts];
        for j in 0..v_opts {
            for l in 0..w_opts {
                let mut bi = 0;
                let mut bv = f64::INFINITY;
                for i in 0..self.costs[u].len() {
                    let val = self.costs[u][i] + muv.at(i, j) + muw.at(i, l);
                    if val < bv {
                        bv = val;
                        bi = i;
                    }
                }
                delta.set(j, l, if bv.is_finite() { bv } else { f64::INFINITY });
                best[j * w_opts + l] = bi;
            }
        }

        // Merge the induced edge into any existing (v, w) edge.
        match self.adj[v].get_mut(&w) {
            Some(existing) => {
                existing.add_assign(&delta);
                let updated = existing.clone();
                self.adj[w].insert(v, updated.transposed());
            }
            None => {
                self.adj[v].insert(w, delta.clone());
                self.adj[w].insert(v, delta.transposed());
            }
        }
        self.normalize_edge(v.min(w), v.max(w));

        self.trail.push(Reduction::RII { node: u, v, w, best, w_options: w_opts });
        self.alive[u] = false;
        stats.r2 += 1;
    }
}

fn argmin(xs: &[f64]) -> usize {
    let mut bi = 0;
    let mut bv = f64::INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v < bv {
            bv = v;
            bi = i;
        }
    }
    bi
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 2a of the paper: three layers, node costs only.
    fn figure2_nodes() -> (PbqpGraph, [PbqpNodeId; 3]) {
        let mut g = PbqpGraph::new();
        let c1 = g.add_node(vec![8.0, 6.0, 10.0]);
        let c2 = g.add_node(vec![17.0, 19.0, 14.0]);
        let c3 = g.add_node(vec![20.0, 17.0, 22.0]);
        (g, [c1, c2, c3])
    }

    #[test]
    fn figure2a_node_costs_only() {
        let (g, [c1, c2, c3]) = figure2_nodes();
        let s = Solver::new().solve(&g).unwrap();
        assert!(s.optimal);
        // Paper: selections B, C, B with total cost 37.
        assert_eq!(s.selection(c1), 1);
        assert_eq!(s.selection(c2), 2);
        assert_eq!(s.selection(c3), 1);
        assert_eq!(s.total_cost, 37.0);
    }

    #[test]
    fn figure2b_with_edge_costs() {
        let (mut g, [c1, c2, c3]) = figure2_nodes();
        g.add_edge(
            c1,
            c2,
            CostMatrix::from_rows(&[vec![0.0, 2.0, 4.0], vec![4.0, 0.0, 5.0], vec![2.0, 1.0, 0.0]]),
        )
        .unwrap();
        g.add_edge(
            c2,
            c3,
            CostMatrix::from_rows(&[vec![0.0, 3.0, 5.0], vec![6.0, 0.0, 5.0], vec![1.0, 5.0, 0.0]]),
        )
        .unwrap();
        let s = Solver::new().solve(&g).unwrap();
        let brute = Solver::new().solve_exhaustive(&g).unwrap();
        assert!(s.optimal);
        assert_eq!(s.total_cost, brute.total_cost);
        // The data-layout costs change the optimum away from the pure
        // node-cost selection (B, C, B) of Figure 2a.
        assert_eq!(g.assignment_cost(&[1, 2, 1]), 37.0 + 5.0 + 5.0);
        assert!(s.total_cost < 47.0);
    }

    #[test]
    fn single_node_and_empty_graph() {
        let g = PbqpGraph::new();
        let s = Solver::new().solve(&g).unwrap();
        assert_eq!(s.total_cost, 0.0);
        assert!(s.optimal);

        let mut g = PbqpGraph::new();
        let n = g.add_node(vec![4.0, 2.0, 9.0]);
        let s = Solver::new().solve(&g).unwrap();
        assert_eq!(s.selection(n), 1);
        assert_eq!(s.stats.r0, 1);
    }

    #[test]
    fn infinite_pairs_force_detours() {
        // Two nodes, the cheap-cheap pairing is illegal.
        let mut g = PbqpGraph::new();
        let a = g.add_node(vec![1.0, 10.0]);
        let b = g.add_node(vec![1.0, 10.0]);
        g.add_edge(a, b, CostMatrix::from_rows(&[vec![f64::INFINITY, 0.0], vec![0.0, 0.0]]))
            .unwrap();
        let s = Solver::new().solve(&g).unwrap();
        assert!(s.optimal);
        assert_eq!(s.total_cost, 11.0);
    }

    #[test]
    fn fully_infeasible_instance_errors() {
        let mut g = PbqpGraph::new();
        let a = g.add_node(vec![1.0]);
        let b = g.add_node(vec![1.0]);
        g.add_edge(a, b, CostMatrix::from_rows(&[vec![f64::INFINITY]])).unwrap();
        assert_eq!(Solver::new().solve(&g), Err(PbqpError::Infeasible));
        assert_eq!(Solver::new().solve_exhaustive(&g), Err(PbqpError::Infeasible));
    }

    #[test]
    fn diamond_dag_requires_rn_or_bb_and_is_exact() {
        // A diamond: s fans out to a, b which join at t. Degrees: s:2 a:2
        // b:2 t:2 — RII applies, possibly leaving a multi-edge core.
        let mut g = PbqpGraph::new();
        let s = g.add_node(vec![0.0, 5.0]);
        let a = g.add_node(vec![1.0, 1.0]);
        let b = g.add_node(vec![2.0, 0.0]);
        let t = g.add_node(vec![0.0, 0.0]);
        let cheap_same = CostMatrix::from_rows(&[vec![0.0, 3.0], vec![3.0, 0.0]]);
        g.add_edge(s, a, cheap_same.clone()).unwrap();
        g.add_edge(s, b, cheap_same.clone()).unwrap();
        g.add_edge(a, t, cheap_same.clone()).unwrap();
        g.add_edge(b, t, cheap_same).unwrap();
        let fast = Solver::new().solve(&g).unwrap();
        let brute = Solver::new().solve_exhaustive(&g).unwrap();
        assert!(fast.optimal);
        assert_eq!(fast.total_cost, brute.total_cost);
    }

    #[test]
    fn random_instances_match_exhaustive() {
        // Deterministic pseudo-random graphs of varying topology.
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for trial in 0..40 {
            let n = 2 + next() % 5;
            let mut g = PbqpGraph::new();
            let ids: Vec<PbqpNodeId> = (0..n)
                .map(|_| {
                    let opts = 1 + next() % 4;
                    g.add_node((0..opts).map(|_| (next() % 50) as f64).collect())
                })
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 100 < 55 {
                        let rows = g.node_costs(ids[i]).len();
                        let cols = g.node_costs(ids[j]).len();
                        let m = CostMatrix::from_fn(rows, cols, |_, _| {
                            let v = next() % 30;
                            if v == 0 {
                                f64::INFINITY
                            } else {
                                v as f64
                            }
                        });
                        g.add_edge(ids[i], ids[j], m).unwrap();
                    }
                }
            }
            let fast = Solver::new().solve(&g);
            let brute = Solver::new().solve_exhaustive(&g);
            match (fast, brute) {
                (Ok(f), Ok(b)) => {
                    assert!(f.optimal, "trial {trial} not proved optimal");
                    assert_eq!(f.total_cost, b.total_cost, "trial {trial}");
                }
                (Err(PbqpError::Infeasible), Err(PbqpError::Infeasible)) => {}
                (f, b) => panic!("trial {trial}: divergent outcomes {f:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn heuristic_only_reports_non_optimal_on_cores() {
        // A 4-clique can't be fully reduced by R0–RII.
        let mut g = PbqpGraph::new();
        let ids: Vec<_> = (0..4).map(|i| g.add_node(vec![i as f64, 2.0])).collect();
        let m = CostMatrix::from_rows(&[vec![0.0, 2.0], vec![2.0, 0.0]]);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(ids[i], ids[j], m.clone()).unwrap();
            }
        }
        let h = Solver::new().heuristic_only(true).solve(&g).unwrap();
        assert!(!h.optimal);
        assert!(h.stats.core_nodes > 0);
        let exact = Solver::new().solve(&g).unwrap();
        assert!(exact.optimal);
        assert!(exact.total_cost <= h.total_cost);
    }

    #[test]
    fn long_chain_reduces_without_core() {
        // A 50-node path: RI/RII must dissolve it entirely.
        let mut g = PbqpGraph::new();
        let ids: Vec<_> = (0..50).map(|i| g.add_node(vec![(i % 3) as f64, 1.0, 2.0])).collect();
        let m = CostMatrix::from_fn(3, 3, |i, j| if i == j { 0.0 } else { 1.5 });
        for pair in ids.windows(2) {
            g.add_edge(pair[0], pair[1], m.clone()).unwrap();
        }
        let s = Solver::new().solve(&g).unwrap();
        assert!(s.optimal);
        assert_eq!(s.stats.core_nodes, 0);
        assert!(s.stats.r1 + s.stats.r2 + s.stats.r0 == 50);
    }
}
