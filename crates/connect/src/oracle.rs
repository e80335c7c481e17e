//! A clone-per-step reference of the classic Figure 4.3 search, kept for
//! differential tests and benchmarks only.
//!
//! The production search ([`crate::portfolio`]) changes one working state
//! in place and backtracks through undo records. This reference instead
//! recurses on a fresh copy of the state for every tried move, the way
//! the search was first written, and shares nothing with the production
//! worker except the state type and the per-node rules (candidate
//! scoring, move application and dead-end pruning). Both must expand the
//! same nodes in the same order and return the same connection. Because
//! those rules are shared, agreement checks the undo log and nothing
//! else; a change to a per-node rule moves both sides alike and is caught
//! by the counts pinned in `tests/integration_portfolio.rs`.

use std::time::Instant;

use mcs_cdfg::{Cdfg, OpId, PortMode};

use crate::model::Interconnect;
use crate::portfolio::{ordered_ops, portfolio_plans, SearchStats, WorkerOutcome, WorkerReport};
use crate::search::{
    apply_move, candidate_moves, fold_node, future_feasible, share_pass, total_pins, ConnectError,
    Move, SearchConfig, State, Transfer, Windows, SEQUENCE_BASIS,
};

/// Runs the classic single-plan search (plan 0 of
/// [`portfolio_plans`]) by cloning the state at every step. It ignores
/// the portfolio, thread, epoch, budget and telemetry settings of `cfg`;
/// its stats hold one worker report.
#[doc(hidden)]
pub fn clone_search(
    cdfg: &Cdfg,
    mode: PortMode,
    cfg: &SearchConfig,
) -> (Result<Interconnect, ConnectError>, SearchStats) {
    let t0 = Instant::now();
    if cfg.rate == 0 {
        return (Err(ConnectError::ZeroRate), SearchStats::default());
    }
    let plan = portfolio_plans(cfg).swap_remove(0);
    let ops = ordered_ops(cdfg, plan.order, cfg.rate);
    let transfers: Vec<Transfer> = ops.iter().map(|&op| Transfer::of(cdfg, op)).collect();
    let mut search = Reference {
        windows: mcs_cdfg::timing::feedback_group_windows(cdfg, cfg.rate),
        rate: cfg.rate,
        budget_left: plan.node_budget,
        plan,
        ops,
        transfers,
        nodes: 0,
        prunes: 0,
        backtracks: 0,
        digest: SEQUENCE_BASIS,
        deepest: 0,
        deepest_buses: 0,
    };
    let root = State::new(cdfg, mode, &search.transfers);
    let end = search.expand(&root, 0, None);
    let (result, outcome) = match end {
        End::Found(state) => {
            let mut ic = state.interconnect(&search.ops);
            if cfg.allow_split {
                share_pass(cdfg, &mut ic, cfg.rate);
            }
            (Ok(ic), WorkerOutcome::Succeeded)
        }
        End::Failed => (Err(ConnectError::NoConnectionFound), WorkerOutcome::Failed),
        End::Exhausted => (
            Err(ConnectError::NoConnectionFound),
            WorkerOutcome::Exhausted,
        ),
    };
    let wall = t0.elapsed();
    let report = WorkerReport {
        index: 0,
        config: String::from("clone reference"),
        outcome,
        nodes: search.nodes,
        cache_hits: 0,
        seed_hits: 0,
        prunes: search.prunes,
        backtracks: search.backtracks,
        cache_published: 0,
        wall,
        cost: result
            .as_ref()
            .ok()
            .map(|ic| (ic.buses.len() as u32, total_pins(cdfg, ic))),
        deepest: search.deepest as u64,
        deepest_buses: search.deepest_buses,
        sequence_digest: search.digest,
    };
    let stats = SearchStats {
        winner: result.as_ref().ok().map(|_| 0),
        epochs: 1,
        threads: 1,
        nodes: report.nodes,
        prunes: report.prunes,
        backtracks: report.backtracks,
        wall,
        deepest: report.deepest,
        deepest_buses: report.deepest_buses,
        workers: vec![report],
        ..SearchStats::default()
    };
    (result, stats)
}

/// How a subtree ended.
enum End {
    Found(State),
    Failed,
    Exhausted,
}

struct Reference {
    windows: Windows,
    rate: u32,
    plan: crate::portfolio::WorkerPlan,
    ops: Vec<OpId>,
    transfers: Vec<Transfer>,
    budget_left: usize,
    nodes: u64,
    prunes: u64,
    backtracks: u64,
    digest: u64,
    deepest: usize,
    deepest_buses: u32,
}

impl Reference {
    /// Expands the node at `depth`, reached by `incoming`. Running out of
    /// budget ends the whole search, including mid-backtrack.
    fn expand(&mut self, state: &State, depth: usize, incoming: Option<&Move>) -> End {
        if depth > self.deepest {
            self.deepest = depth;
            self.deepest_buses = state.buses as u32;
        }
        if depth == self.ops.len() {
            return End::Found(state.clone());
        }
        if self.budget_left == 0 {
            return End::Exhausted;
        }
        self.budget_left -= 1;
        self.nodes += 1;
        self.digest = fold_node(self.digest, depth, incoming);
        let mut moves = Vec::new();
        candidate_moves(
            state,
            &self.windows,
            self.rate,
            &self.plan,
            &self.transfers[depth],
            &mut Vec::new(),
            &mut moves,
        );
        for mv in &moves {
            let mut child = state.clone();
            apply_move(&mut child, depth, &self.transfers[depth], mv);
            if future_feasible(&child, &self.transfers[depth + 1..]) {
                match self.expand(&child, depth + 1, Some(mv)) {
                    End::Failed => {}
                    end => return end,
                }
            } else {
                self.prunes += 1;
            }
            if self.budget_left == 0 {
                return End::Exhausted;
            }
        }
        self.backtracks += 1;
        End::Failed
    }
}
