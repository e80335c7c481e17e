//! The heuristic interchip-connection search of Section 4.1.2
//! (Figure 4.3), with the bidirectional-port variant of Section 4.3 and
//! the sub-bus extension of Section 6.1.2.
//!
//! I/O operations are assigned to buses in descending bit-width order. At
//! each node, a small number of candidate buses with the best *gain*
//! `g = 10000*g1 + 100*g2 + g3` is explored:
//!
//! * `g1` rewards reuse of already-existing ports, weighted by pin
//!   pressure `wf_i = unassigned bits / unallocated pins`;
//! * `g2` rewards co-locating transfers of the same value (they share a
//!   communication slot);
//! * `g3` balances bus utilization (free slots).
//!
//! The branching factor trades run time against the chance of finding a
//! connection; exploration is additionally capped by a node budget. With
//! sub-bus sharing enabled, [`share_pass`] then moves transfers onto
//! sub-buses of a finished structure, splitting an unsplit bus in two
//! when the incoming transfer fits beside a previously assigned one (the
//! prototype's at-most-two-sub-buses restriction, Section 6.1.2).
//!
//! The search keeps one working state and changes it in place: every
//! applied move returns a fixed-size undo record, and backtracking
//! replays those records instead of restoring a saved copy (the trail
//! discipline of the Chapter 3 probe engine).

use std::collections::{BTreeMap, BTreeSet};

use mcs_cdfg::{BusId, Cdfg, OpId, PartitionId, PortMode, ValueId};

use crate::model::{Bus, BusAssignment, Interconnect, SubRange};

/// Tuning knobs of the search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Initiation rate `L` (bus slots per bus).
    pub rate: u32,
    /// Candidates explored per node (the paper's user-set branching
    /// factor). In a portfolio run this is the *base* factor that the
    /// diversified worker plans are derived from.
    pub branching_factor: usize,
    /// Enable Chapter 6 sub-bus sharing (at most two sub-buses per bus).
    pub allow_split: bool,
    /// Backtracking node budget (per portfolio worker; worker 0 always
    /// keeps the full budget, the diversified workers run on slices).
    pub node_budget: usize,
    /// Threads used to expand portfolio workers. Purely an execution
    /// knob: the synthesized `Interconnect` is a function of the
    /// *portfolio*, never of how many threads expanded it.
    pub workers: usize,
    /// Number of diversified search configurations raced against each
    /// other. `None` means "one per worker". A portfolio of 1 runs
    /// exactly the classic Figure 4.3 search (and disables the shared
    /// pruning cache), so single-config results are bit-for-bit those of
    /// the sequential implementation.
    pub portfolio: Option<usize>,
    /// Nodes each live worker expands between synchronization barriers.
    /// Epoch-lockstep execution is what makes the parallel search
    /// deterministic: cancellation and cache visibility are decided by
    /// node counts, never by wall-clock timing.
    pub epoch_nodes: usize,
    /// Sink for `SearchNode` events. The orchestrator records one event
    /// per (worker, epoch) at the barrier, in portfolio-index order, so
    /// the event stream is deterministic across thread counts.
    pub recorder: mcs_obs::RecorderHandle,
    /// Metrics sink: a `connect.epoch_us` histogram (one observation per
    /// live worker per epoch, timed on the registry clock) plus
    /// `connect.seed_hits` / `connect.cache_hits` / `connect.nodes`
    /// counters added once at the end of the run. Disconnected by
    /// default.
    pub metrics: mcs_metrics::MetricsHandle,
    /// Execution budget polled at every epoch barrier. When it trips,
    /// the run stops with [`ConnectError::Interrupted`] and the search
    /// stats carry the deepest partial connection reached (the anytime
    /// result). Count ceilings are checked only at barriers, so the
    /// interruption point — like everything else about the search — is
    /// independent of the thread count; a wall-clock deadline trades
    /// that determinism for latency control.
    pub budget: Option<mcs_ctl::Budget>,
    /// Seed the diversified portfolio with a probe-ranked plan: one
    /// worker orders operations by pin-feasibility pressure measured
    /// through a single batched probe pass over every (operation, step
    /// group) pair ([`crate::portfolio::OpOrder::ProbeSeeded`]). Off by
    /// default so the classic plan menu — and every event stream and
    /// result derived from it — stays byte-identical.
    pub probe_seed_plans: bool,
}

impl SearchConfig {
    /// A configuration with the defaults used by the experiments.
    pub fn new(rate: u32) -> Self {
        SearchConfig {
            rate,
            branching_factor: 3,
            allow_split: false,
            node_budget: 200_000,
            workers: 1,
            portfolio: None,
            epoch_nodes: 512,
            recorder: mcs_obs::RecorderHandle::default(),
            metrics: mcs_metrics::MetricsHandle::default(),
            budget: None,
            probe_seed_plans: false,
        }
    }

    /// Enables Chapter 6 sub-bus sharing.
    pub fn with_sharing(mut self) -> Self {
        self.allow_split = true;
        self
    }

    /// Sets the number of expansion threads (and, unless
    /// [`with_portfolio`](Self::with_portfolio) pins it, the portfolio
    /// size).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Pins the portfolio size independently of the thread count, so the
    /// result stays identical while `workers` varies.
    pub fn with_portfolio(mut self, portfolio: usize) -> Self {
        self.portfolio = Some(portfolio.max(1));
        self
    }

    /// Routes per-epoch `SearchNode` events to `recorder`.
    pub fn with_recorder(mut self, recorder: mcs_obs::RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Connects the `connect.*` metrics to `metrics`.
    pub fn with_metrics(mut self, metrics: mcs_metrics::MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Bounds the run with an execution budget (see
    /// [`SearchConfig::budget`]).
    pub fn with_budget(mut self, budget: mcs_ctl::Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Seeds the portfolio with a probe-ranked plan (see
    /// [`SearchConfig::probe_seed_plans`]).
    pub fn with_probe_seeding(mut self) -> Self {
        self.probe_seed_plans = true;
        self
    }
}

/// Failure modes of connection synthesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnectError {
    /// The initiation rate must be positive.
    ZeroRate,
    /// No connection structure was found within the explored space; a
    /// higher branching factor or node budget may succeed.
    NoConnectionFound,
    /// The execution budget tripped before any worker found a
    /// connection. The carried [`mcs_ctl::Termination`] says why
    /// (deadline, work ceiling, or cancellation); the search stats of
    /// the run hold the deepest partial structure reached.
    Interrupted(mcs_ctl::Termination),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::ZeroRate => write!(f, "initiation rate must be at least 1"),
            ConnectError::NoConnectionFound => {
                write!(f, "heuristic search found no interchip connection")
            }
            ConnectError::Interrupted(t) => {
                write!(f, "connection search interrupted ({t})")
            }
        }
    }
}

impl std::error::Error for ConnectError {}

/// Static group windows of feedback values (Section 7.1): a bus can only
/// host value sets whose windows admit distinct step groups.
pub(crate) type Windows = BTreeMap<ValueId, BTreeSet<u32>>;

/// One I/O operation as the search sees it: the value it carries, its
/// endpoints and its width, looked up once per search.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Transfer {
    pub(crate) value: ValueId,
    pub(crate) from: PartitionId,
    pub(crate) to: PartitionId,
    pub(crate) bits: u32,
}

impl Transfer {
    pub(crate) fn of(cdfg: &Cdfg, op: OpId) -> Transfer {
        let (value, from, to) = cdfg.op(op).io_endpoints().expect("io op");
        Transfer {
            value,
            from,
            to,
            bits: cdfg.value(value).bits,
        }
    }
}

/// The range every search move rides: buses stay unsplit during the
/// search (Chapter 6 splitting happens only in [`share_pass`]), so a
/// transfer always occupies the low-order lines of the whole bus.
const WHOLE: SubRange = SubRange { lo: 0, hi: 0 };

/// The search's working connection structure. [`apply_move`] changes it
/// in place and [`State::undo`] rolls a move back, so a search node never
/// copies it. Buses are unsplit (see [`WHOLE`]): a bus is a width, one
/// dense port-width row per side, and the values riding it.
#[derive(Clone, Debug)]
pub(crate) struct State {
    mode: PortMode,
    nparts: usize,
    /// Live buses. Slots from here on are empty and keep their
    /// allocations for the next fresh bus.
    pub(crate) buses: usize,
    widths: Vec<u32>,
    /// Port widths indexed by `bus * nparts + partition`, 0 meaning not
    /// connected. Side 0 holds the output ports (the bidirectional ports
    /// in bidirectional mode), side 1 the input ports.
    ports: [Vec<u32>; 2],
    /// Values riding each bus, ascending.
    values: Vec<Vec<ValueId>>,
    /// Assignment of each operation, by position in the search order.
    assignment: Vec<Option<BusAssignment>>,
    pins_left: Vec<i64>,
    demand_left: Vec<i64>,
}

/// Everything [`apply_move`] overwrote, so [`State::undo`] can put it
/// back. Entries are restored in reverse order, which stays exact when a
/// transfer's two endpoints share a slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Undo {
    bus: usize,
    fresh: bool,
    width: u32,
    /// `(side, slot, old width)` of the two endpoint ports.
    ports: [(usize, usize, u32); 2],
    /// Where the value was inserted, when it did not ride the bus yet.
    value_slot: Option<usize>,
    pos: usize,
    assignment: Option<BusAssignment>,
    ends: [usize; 2],
    pins_left: [i64; 2],
    demand_left: [i64; 2],
}

impl State {
    /// The root state: no buses, full pin budgets, and the bit demand of
    /// `transfers` on each partition. Bus slots are allocated up front:
    /// each transfer opens at most one bus.
    pub(crate) fn new(cdfg: &Cdfg, mode: PortMode, transfers: &[Transfer]) -> State {
        let nparts = cdfg.partition_count();
        let cap = transfers.len();
        let pins_left = cdfg
            .partitions()
            .iter()
            .map(|part| part.total_pins as i64)
            .collect();
        let mut demand_left = vec![0i64; nparts];
        for t in transfers {
            demand_left[t.from.index()] += t.bits as i64;
            demand_left[t.to.index()] += t.bits as i64;
        }
        State {
            mode,
            nparts,
            buses: 0,
            widths: vec![0; cap],
            ports: [vec![0; cap * nparts], vec![0; cap * nparts]],
            values: vec![Vec::new(); cap],
            assignment: vec![None; cap],
            pins_left,
            demand_left,
        }
    }

    /// `(side, slot)` of the sending and the receiving port `t` needs on
    /// bus `h`.
    fn endpoint_slots(&self, h: usize, t: &Transfer) -> [(usize, usize); 2] {
        let side_to = match self.mode {
            PortMode::Unidirectional => 1,
            PortMode::Bidirectional => 0,
        };
        [
            (0, h * self.nparts + t.from.index()),
            (side_to, h * self.nparts + t.to.index()),
        ]
    }

    /// Current widths of the two ports `t` needs on bus `h`.
    fn endpoint_widths(&self, h: usize, t: &Transfer) -> [u32; 2] {
        self.endpoint_slots(h, t)
            .map(|(side, slot)| self.ports[side][slot])
    }

    /// Whether buses `a` and `b` connect the same partitions on each side
    /// (Section 4.1.2: buses with the same topology are explored once).
    fn same_topology(&self, a: usize, b: usize) -> bool {
        let n = self.nparts;
        self.ports.iter().all(|side| {
            side[a * n..(a + 1) * n]
                .iter()
                .zip(&side[b * n..(b + 1) * n])
                .all(|(&x, &y)| (x > 0) == (y > 0))
        })
    }

    /// Rolls back the move that returned `u`.
    pub(crate) fn undo(&mut self, u: &Undo) {
        for i in [1, 0] {
            self.demand_left[u.ends[i]] = u.demand_left[i];
            self.pins_left[u.ends[i]] = u.pins_left[i];
            let (side, slot, old) = u.ports[i];
            self.ports[side][slot] = old;
        }
        self.assignment[u.pos] = u.assignment;
        if let Some(i) = u.value_slot {
            self.values[u.bus].remove(i);
        }
        self.widths[u.bus] = u.width;
        if u.fresh {
            self.buses -= 1;
        }
    }

    /// The connection structure of a complete search path; `ops` is the
    /// search order the assignment is indexed by.
    pub(crate) fn interconnect(&self, ops: &[OpId]) -> Interconnect {
        let n = self.nparts;
        let row = |side: usize, h: usize| -> BTreeMap<PartitionId, u32> {
            (0..n)
                .filter(|&p| self.ports[side][h * n + p] > 0)
                .map(|p| (PartitionId::new(p as u32), self.ports[side][h * n + p]))
                .collect()
        };
        let buses = (0..self.buses)
            .map(|h| {
                let mut bus = Bus::new();
                bus.sub_widths = vec![self.widths[h]];
                match self.mode {
                    PortMode::Unidirectional => {
                        bus.out_ports = row(0, h);
                        bus.in_ports = row(1, h);
                    }
                    PortMode::Bidirectional => bus.bi_ports = row(0, h),
                }
                bus
            })
            .collect();
        let assignment = ops
            .iter()
            .zip(&self.assignment)
            .filter_map(|(&op, a)| a.map(|a| (op, a)))
            .collect();
        Interconnect {
            mode: self.mode,
            buses,
            assignment,
        }
    }

    /// A search state's identity for pruning: the depth (which, for a
    /// fixed operation order, pins down the set of assigned operations)
    /// plus the exact bus structure — widths, per-partition port widths in
    /// the output, input and bidirectional roles, and the values riding
    /// each bus. Everything the future search can observe is derived from
    /// these, so two states with equal signatures have identical subtrees
    /// under the same plan. Every list is prefixed with its `u32` length,
    /// so the encoding is injective. The buffer is sized exactly: the
    /// refutation cache, and the serve cache after it, keep every
    /// learned signature.
    pub(crate) fn signature(&self, depth: usize) -> Vec<u8> {
        let n = self.nparts;
        let ports: usize = self
            .ports
            .iter()
            .map(|side| side[..self.buses * n].iter().filter(|&&w| w > 0).count())
            .sum();
        let values: usize = self.values[..self.buses].iter().map(Vec::len).sum();
        let mut sig = Vec::with_capacity(4 + 21 * self.buses + 8 * ports + 4 * values);
        let push = |sig: &mut Vec<u8>, x: usize| sig.extend_from_slice(&(x as u32).to_le_bytes());
        push(&mut sig, depth);
        let roles: [Option<usize>; 3] = match self.mode {
            PortMode::Unidirectional => [Some(0), Some(1), None],
            PortMode::Bidirectional => [None, None, Some(0)],
        };
        for h in 0..self.buses {
            sig.push(0xB5);
            push(&mut sig, self.widths[h] as usize);
            for role in roles {
                let row = role.map_or(&[][..], |side| &self.ports[side][h * n..(h + 1) * n]);
                push(&mut sig, row.iter().filter(|&&w| w > 0).count());
                for (p, &w) in row.iter().enumerate().filter(|(_, &w)| w > 0) {
                    push(&mut sig, p);
                    push(&mut sig, w as usize);
                }
            }
            push(&mut sig, self.values[h].len());
            for v in &self.values[h] {
                push(&mut sig, v.0 as usize);
            }
        }
        sig
    }
}

/// Can every value riding a bus, plus `newcomer`, get its own step group,
/// respecting feedback windows? A tiny augmenting-path matching of values
/// to groups. Buses carrying a feedback value additionally keep one spare
/// group: the static windows underestimate how far resource contention
/// pushes the real ones, and a fully packed bus leaves the preloaded
/// transfer no room to maneuver. Without feedback values every group
/// admits every value, so the count alone decides.
pub(crate) fn groups_assignable(
    riders: &[ValueId],
    newcomer: ValueId,
    windows: &Windows,
    l: u32,
) -> bool {
    let count = riders.len() + 1;
    if !windows.contains_key(&newcomer) && !riders.iter().any(|v| windows.contains_key(v)) {
        return count <= l as usize;
    }
    if count > (l as usize).saturating_sub(1) {
        return false;
    }
    let values: Vec<ValueId> = riders.iter().copied().chain([newcomer]).collect();
    let any_group: BTreeSet<u32> = (0..l).collect();
    fn try_give(
        i: usize,
        values: &[ValueId],
        windows: &Windows,
        any_group: &BTreeSet<u32>,
        owner: &mut [Option<usize>],
        seen: &mut [bool],
    ) -> bool {
        for &g in windows.get(&values[i]).unwrap_or(any_group) {
            let g = g as usize;
            if g >= owner.len() || seen[g] {
                continue;
            }
            seen[g] = true;
            let free = match owner[g] {
                None => true,
                Some(j) => try_give(j, values, windows, any_group, owner, seen),
            };
            if free {
                owner[g] = Some(i);
                return true;
            }
        }
        false
    }
    let mut owner = vec![None; l as usize];
    (0..count).all(|i| {
        let mut seen = vec![false; l as usize];
        try_give(i, &values, windows, &any_group, &mut owner, &mut seen)
    })
}

/// One candidate assignment of a transfer: onto bus `bus` (`== buses`
/// means a fresh bus) at `range`, with its gain.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Move {
    pub(crate) bus: usize,
    pub(crate) range: SubRange,
    pub(crate) gain: f64,
}

/// FNV-1a basis of the node-sequence digest.
pub(crate) const SEQUENCE_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one expanded node into a node-sequence digest: its depth and
/// the move that led to it (the root, which no move leads to, folds
/// `u64::MAX` as its bus).
pub(crate) fn fold_node(digest: u64, depth: usize, incoming: Option<&Move>) -> u64 {
    let (bus, range) = incoming.map_or((u64::MAX, WHOLE), |m| (m.bus as u64, m.range));
    [depth as u64, bus, range.lo as u64, range.hi as u64]
        .into_iter()
        .fold(digest, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Synthesizes the interchip connection structure for all I/O operations
/// of `cdfg` (Figure 4.3), discarding the telemetry.
///
/// # Errors
///
/// [`ConnectError::ZeroRate`] or [`ConnectError::NoConnectionFound`].
pub fn synthesize(
    cdfg: &Cdfg,
    mode: PortMode,
    cfg: &SearchConfig,
) -> Result<Interconnect, ConnectError> {
    crate::portfolio::synthesize_with_stats(cdfg, mode, cfg).0
}

/// One candidate relocation considered by [`share_pass`]: the transfer to
/// move, the destination bus index, the sub-range it would ride, the split
/// boundaries to impose on the destination (when it must become a sub-bus
/// structure), and the total pin saving.
type ShareMove = (OpId, usize, SubRange, Option<Vec<u32>>, u32);

/// The Chapter 6 improvement pass: move transfers onto other buses —
/// whole-bus slots or sub-bus ranges, splitting an unsplit bus when the
/// mover can pair with its existing values in one cycle — whenever the
/// move strictly reduces the total pin count without breaching any
/// partition's budget. Vacated ports shrink and emptied buses disappear.
/// Every accepted move reduces total pins, so the pass terminates and
/// sub-bus sharing never costs pins relative to the plain structure
/// (the comparison of Table 6.4).
pub fn share_pass(cdfg: &Cdfg, ic: &mut Interconnect, rate: u32) {
    let windows = mcs_cdfg::timing::feedback_group_windows(cdfg, rate);
    loop {
        let total_before = total_pins(cdfg, ic);
        let mut best: Option<ShareMove> = None;
        let ops: Vec<OpId> = ic.assignment.keys().copied().collect();
        for &op in &ops {
            let cur = ic.assignment[&op];
            let (value, _, _) = cdfg.op(op).io_endpoints().expect("io op");
            let bits = cdfg.io_bits(op);
            for (i, bus) in ic.buses.iter().enumerate() {
                if i == cur.bus.index() {
                    continue;
                }
                // Distinct values riding bus i and their ranges.
                let mut vals: std::collections::BTreeMap<mcs_cdfg::ValueId, SubRange> =
                    std::collections::BTreeMap::new();
                for (&o2, a2) in &ic.assignment {
                    if a2.bus.index() == i {
                        let (v2, _, _) = cdfg.op(o2).io_endpoints().expect("io op");
                        vals.insert(v2, a2.range);
                    }
                }
                if vals.contains_key(&value) {
                    continue; // shared-value rides are not pin moves
                }
                // Candidate target ranges.
                let mut targets: Vec<(SubRange, Option<Vec<u32>>)> = Vec::new();
                if bus.sub_count() == 1 {
                    let w = bus.width();
                    if w >= bits {
                        targets.push((SubRange { lo: 0, hi: 0 }, None));
                    }
                    // Split so the mover rides the upper sub-bus while the
                    // bus's narrow values drop to the lower one: they can
                    // then pair within a cycle (Figure 6.1).
                    if w > bits && !vals.is_empty() {
                        targets.push((SubRange { lo: 1, hi: 1 }, Some(vec![w - bits, bits])));
                    }
                } else {
                    for lo in 0..bus.sub_count() {
                        for hi in lo..bus.sub_count() {
                            let rr = SubRange { lo, hi };
                            if bus.range_width(rr) >= bits {
                                targets.push((rr, None));
                            }
                        }
                    }
                }
                for (range, split) in targets {
                    // Conservative capacity: plan one value per bus cycle
                    // even on split buses (in-cycle pairing is a bonus the
                    // scheduler may still exploit, the pruned-search
                    // spirit of Section 6.2), and feedback values must
                    // keep a cycle inside their static group windows.
                    let riders: Vec<ValueId> = vals.keys().copied().collect();
                    if !groups_assignable(&riders, value, &windows, rate) {
                        continue;
                    }
                    // Simulate the move (growing endpoint ports if needed)
                    // and measure the saving; reject budget breaches.
                    let mut trial = ic.clone();
                    apply_share_move(cdfg, &mut trial, op, i, range, &split);
                    let after = total_pins(cdfg, &trial);
                    let within_budget = (0..cdfg.partition_count()).all(|p| {
                        let pid = PartitionId::new(p as u32);
                        trial.pins_used(pid) <= cdfg.partition(pid).total_pins
                    });
                    if within_budget && after < total_before {
                        let saving = total_before - after;
                        // Equal savings prefer the split form: the bus can
                        // then carry two values in one cycle (Figure 6.1),
                        // which the scheduler exploits opportunistically.
                        let better = match &best {
                            None => true,
                            Some(b) => {
                                saving > b.4 || (saving == b.4 && split.is_some() && b.3.is_none())
                            }
                        };
                        if better {
                            best = Some((op, i, range, split.clone(), saving));
                        }
                    }
                }
            }
        }
        match best {
            Some((op, i, range, split, _)) => {
                apply_share_move(cdfg, ic, op, i, range, &split);
            }
            None => break,
        }
    }
}

pub(crate) fn total_pins(cdfg: &Cdfg, ic: &Interconnect) -> u32 {
    (0..cdfg.partition_count())
        .map(|p| ic.pins_used(PartitionId::new(p as u32)))
        .sum()
}

/// Moves `op` onto bus `i` at `range` (optionally splitting the bus),
/// relocating the bus's previous values (narrow ones to the lower sub-bus,
/// the rest to the whole range), growing the mover's endpoint ports when
/// its lines exceed them, then shrinking the vacated bus.
fn apply_share_move(
    cdfg: &Cdfg,
    ic: &mut Interconnect,
    op: OpId,
    i: usize,
    range: SubRange,
    split: &Option<Vec<u32>>,
) {
    let old_bus = ic.assignment[&op].bus.index();
    if let Some(widths) = split {
        ic.buses[i].sub_widths = widths.clone();
        let moved: Vec<(OpId, u32)> = ic
            .assignment
            .iter()
            .filter(|(_, a)| a.bus.index() == i)
            .map(|(&o, _)| (o, cdfg.io_bits(o)))
            .collect();
        for (o, vbits) in moved {
            let r = if vbits <= widths[0] {
                SubRange { lo: 0, hi: 0 }
            } else {
                SubRange { lo: 0, hi: 1 }
            };
            ic.assignment.get_mut(&o).expect("present").range = r;
        }
    }
    // The mover's endpoint ports must reach its lines.
    let (_, from, to) = cdfg.op(op).io_endpoints().expect("io op");
    let need = ic.buses[i].prefix_start(range) + cdfg.io_bits(op);
    {
        let bus = &mut ic.buses[i];
        let ports: Vec<&mut BTreeMap<PartitionId, u32>> = match ic.mode {
            PortMode::Unidirectional => vec![&mut bus.out_ports, &mut bus.in_ports],
            PortMode::Bidirectional => vec![&mut bus.bi_ports],
        };
        for (side, ports) in ports.into_iter().enumerate() {
            let grow_for = match (ic.mode, side) {
                (PortMode::Unidirectional, 0) => vec![from],
                (PortMode::Unidirectional, _) => vec![to],
                (PortMode::Bidirectional, _) => vec![from, to],
            };
            for p in grow_for {
                let e = ports.entry(p).or_insert(0);
                *e = (*e).max(need);
            }
        }
    }
    ic.assignment.insert(
        op,
        BusAssignment {
            bus: BusId::new(i as u32),
            range,
        },
    );
    shrink_bus(cdfg, ic, old_bus);
    // Drop emptied buses, renumbering.
    if ic.buses[old_bus].width() == 0 {
        ic.buses.remove(old_bus);
        for a in ic.assignment.values_mut() {
            if a.bus.index() > old_bus {
                a.bus = BusId::new(a.bus.0 - 1);
            }
        }
    }
}

/// Recomputes a bus's sub-widths and port widths from its remaining
/// transfers.
fn shrink_bus(cdfg: &Cdfg, ic: &mut Interconnect, j: usize) {
    let riders: Vec<(OpId, SubRange)> = ic
        .assignment
        .iter()
        .filter(|(_, a)| a.bus.index() == j)
        .map(|(&o, a)| (o, a.range))
        .collect();
    let bus = &mut ic.buses[j];
    bus.out_ports.clear();
    bus.in_ports.clear();
    bus.bi_ports.clear();
    if riders.is_empty() {
        bus.sub_widths = vec![0];
        return;
    }
    if bus.sub_count() == 1 {
        let w = riders
            .iter()
            .map(|&(o, _)| cdfg.io_bits(o))
            .max()
            .unwrap_or(0);
        bus.sub_widths = vec![w];
    }
    for (o, r) in riders {
        let (_, from, to) = cdfg.op(o).io_endpoints().expect("io op");
        let prefix = bus.prefix_start(r) + cdfg.io_bits(o);
        match ic.mode {
            mcs_cdfg::PortMode::Unidirectional => {
                let e = bus.out_ports.entry(from).or_insert(0);
                *e = (*e).max(prefix);
                let e = bus.in_ports.entry(to).or_insert(0);
                *e = (*e).max(prefix);
            }
            mcs_cdfg::PortMode::Bidirectional => {
                let e = bus.bi_ports.entry(from).or_insert(0);
                *e = (*e).max(prefix);
                let e = bus.bi_ports.entry(to).or_insert(0);
                *e = (*e).max(prefix);
            }
        }
    }
}

/// Dead-end pruning: every still-unassigned transfer must have at least
/// one geometrically and pin-feasible carrier (existing ports wide enough,
/// or a port extension/fresh bus the remaining pin budgets can pay for).
/// Slot capacity is ignored here — the check is a cheap necessary
/// condition that cuts hopeless subtrees early.
pub(crate) fn future_feasible(state: &State, rest: &[Transfer]) -> bool {
    rest.iter().all(|t| {
        let bits = t.bits as i64;
        let (left_f, left_t) = (
            state.pins_left[t.from.index()],
            state.pins_left[t.to.index()],
        );
        // A fresh bus, or riding the low lines of an existing one, which
        // needs at most `bits` of port.
        (left_f >= bits && left_t >= bits)
            || (0..state.buses).any(|h| {
                let [cur_f, cur_t] = state.endpoint_widths(h, t);
                left_f >= (bits - cur_f as i64).max(0) && left_t >= (bits - cur_t as i64).max(0)
            })
    })
}

/// Enumerates, scores, deduplicates and truncates the moves for transfer
/// `t`, appending them to `out`; `scored` is scratch space. The branching
/// factor and candidate order come from the worker plan so portfolio
/// members can disagree on how wide and in what order to explore.
pub(crate) fn candidate_moves(
    state: &State,
    windows: &Windows,
    rate: u32,
    plan: &crate::portfolio::WorkerPlan,
    t: &Transfer,
    scored: &mut Vec<Move>,
    out: &mut Vec<Move>,
) {
    use crate::portfolio::CandidateOrder;
    scored.clear();
    // Sub-bus sharing is applied as a pin-saving post-pass (see
    // `share_pass`) rather than inside the branch search, so every
    // existing bus offers one whole (possibly widening) assignment; a
    // value already riding it shares its slot.
    scored.extend((0..state.buses).filter_map(|h| {
        score_move(state, windows, rate, h, t).map(|gain| Move {
            bus: h,
            range: WHOLE,
            gain,
        })
    }));

    // Order by gain. Each bus offers one move, so the bus tie-break makes
    // the order total and an unstable sort is exact.
    scored.sort_unstable_by(|a, b| {
        let tie = match plan.candidates {
            // The classic search prefers lower bus indices among equal
            // gains; the reversed plan breaks ties the other way to
            // diversify which equal-gain carrier gets explored first.
            CandidateOrder::GainDescBusRev => b.bus.cmp(&a.bus),
            _ => a.bus.cmp(&b.bus),
        };
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(tie)
    });
    // Keep the best move of each topology (Section 4.1.2), up to the
    // branching factor.
    let start = out.len();
    let keep = plan.branching_factor.max(1);
    for mv in scored.iter() {
        if out.len() - start == keep {
            break;
        }
        if !out[start..]
            .iter()
            .any(|k| state.same_topology(k.bus, mv.bus))
        {
            out.push(*mv);
        }
    }

    // A fresh bus is always a candidate if pins allow: last resort for the
    // gain-ordered plans, first move for the fresh-first plan.
    let bits = t.bits as i64;
    if state.pins_left[t.from.index()] >= bits && state.pins_left[t.to.index()] >= bits {
        let mv = Move {
            bus: state.buses,
            range: WHOLE,
            gain: rate as f64, // g1 = g2 = 0, g3 = L free slots
        };
        if matches!(plan.candidates, CandidateOrder::FreshFirst) {
            out.insert(start, mv);
        } else {
            out.push(mv);
        }
    }
}

/// Scores assigning transfer `t` to bus `h`; `None` when infeasible (pins
/// or slot capacity).
pub(crate) fn score_move(
    state: &State,
    windows: &Windows,
    rate: u32,
    h: usize,
    t: &Transfer,
) -> Option<f64> {
    let riders = &state.values[h];
    let shares_value = riders.binary_search(&t.value).is_ok();

    // A transfer occupies the low-order lines of the (unsplit) bus; ports
    // may be narrower than the bus (Figure 4.2). Pin deltas for the two
    // endpoint ports:
    let [cur_f, cur_t] = state.endpoint_widths(h, t);
    let delta_from = t.bits.saturating_sub(cur_f) as i64;
    let delta_to = t.bits.saturating_sub(cur_t) as i64;
    if state.pins_left[t.from.index()] < delta_from || state.pins_left[t.to.index()] < delta_to {
        return None;
    }
    if t.from == t.to {
        return None;
    }

    // Slot capacity (Constraint 4.5): every value gets its own bus cycle
    // (sub-bus pairing is opportunistic, Section 6.2), and feedback
    // values additionally need a cycle inside their static group window
    // (Section 7.1) — the bus must admit a system of distinct groups.
    if !shares_value && !groups_assignable(riders, t.value, windows, rate) {
        return None;
    }

    // Gain per Section 4.1.2 / Section 4.3.
    let wf = |p: PartitionId| -> f64 {
        state.demand_left[p.index()] as f64 / state.pins_left[p.index()].max(1) as f64
    };
    let g1 = match (cur_f > 0, cur_t > 0) {
        (false, false) => 0.0,
        (true, false) => wf(t.from),
        (false, true) => wf(t.to),
        (true, true) => wf(t.from) + wf(t.to),
    };
    let g2 = if shares_value { 1.0 } else { 0.0 };
    let g3 = (rate as i64 - riders.len() as i64).max(0) as f64;
    Some(10_000.0 * g1 + 100.0 * g2 + g3)
}

/// Assigns transfer `t`, at position `pos` of the search order, as `mv`
/// says: widens the bus and grows the endpoint ports as needed, paying
/// for the growth in pins. Returns the record that undoes it.
pub(crate) fn apply_move(state: &mut State, pos: usize, t: &Transfer, mv: &Move) -> Undo {
    let h = mv.bus;
    let fresh = h == state.buses;
    let ends = [t.from.index(), t.to.index()];
    let mut undo = Undo {
        bus: h,
        fresh,
        width: state.widths[h],
        ports: [(0, 0, 0); 2],
        value_slot: None,
        pos,
        assignment: state.assignment[pos],
        ends,
        pins_left: ends.map(|p| state.pins_left[p]),
        demand_left: ends.map(|p| state.demand_left[p]),
    };
    if fresh {
        state.buses += 1;
    }
    state.widths[h] = state.widths[h].max(t.bits);
    // Port growth and pin accounting: the transfer needs the bus's
    // low-order lines only.
    for (i, (side, slot)) in state.endpoint_slots(h, t).into_iter().enumerate() {
        let cur = state.ports[side][slot];
        undo.ports[i] = (side, slot, cur);
        if t.bits > cur {
            state.ports[side][slot] = t.bits;
            state.pins_left[ends[i]] -= (t.bits - cur) as i64;
        }
    }
    if let Err(i) = state.values[h].binary_search(&t.value) {
        state.values[h].insert(i, t.value);
        undo.value_slot = Some(i);
    }
    state.assignment[pos] = Some(BusAssignment {
        bus: BusId::new(h as u32),
        range: mv.range,
    });
    for p in ends {
        state.demand_left[p] -= t.bits as i64;
    }
    undo
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_cdfg::designs::{ar_filter, elliptic, synthetic};

    #[test]
    fn quickstart_design_gets_a_connection() {
        let d = synthetic::quickstart();
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(1)).unwrap();
        assert!(ic.verify(d.cdfg()).is_empty(), "{:?}", ic.verify(d.cdfg()));
        assert_eq!(ic.assignment.len(), d.cdfg().io_ops().count());
    }

    #[test]
    fn ar_general_unidirectional_rates() {
        for rate in [3u32, 4, 5] {
            let d = ar_filter::general(rate, PortMode::Unidirectional);
            let ic =
                synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(rate)).unwrap();
            let problems = ic.verify(d.cdfg());
            assert!(problems.is_empty(), "rate {rate}: {problems:?}");
        }
    }

    #[test]
    fn bidirectional_uses_no_more_pins_than_unidirectional() {
        for rate in [3u32, 4, 5] {
            let du = ar_filter::general(rate, PortMode::Unidirectional);
            let db = ar_filter::general(rate, PortMode::Bidirectional);
            let icu = synthesize(
                du.cdfg(),
                PortMode::Unidirectional,
                &SearchConfig::new(rate),
            )
            .unwrap();
            let icb =
                synthesize(db.cdfg(), PortMode::Bidirectional, &SearchConfig::new(rate)).unwrap();
            let total = |ic: &Interconnect, n: usize| -> u32 {
                (1..n as u32)
                    .map(|p| ic.pins_used(mcs_cdfg::PartitionId::new(p)))
                    .sum()
            };
            let n = du.cdfg().partition_count();
            assert!(
                total(&icb, n) <= total(&icu, n),
                "rate {rate}: bidirectional {} > unidirectional {}",
                total(&icb, n),
                total(&icu, n)
            );
        }
    }

    #[test]
    fn elliptic_filter_connects_at_published_budgets() {
        for rate in [6u32, 7] {
            for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
                let d = elliptic::partitioned_with(rate, mode);
                let ic = synthesize(d.cdfg(), mode, &SearchConfig::new(rate)).unwrap();
                let problems = ic.verify(d.cdfg());
                assert!(problems.is_empty(), "rate {rate} {mode:?}: {problems:?}");
            }
        }
    }

    #[test]
    fn sharing_reduces_pins_on_the_ar_filter() {
        for rate in [3u32, 4, 5] {
            let d = ar_filter::general(rate, PortMode::Bidirectional);
            let plain =
                synthesize(d.cdfg(), PortMode::Bidirectional, &SearchConfig::new(rate)).unwrap();
            let shared = synthesize(
                d.cdfg(),
                PortMode::Bidirectional,
                &SearchConfig::new(rate).with_sharing(),
            )
            .unwrap();
            let total = |ic: &Interconnect| -> u32 {
                (1..5u32)
                    .map(|p| ic.pins_used(mcs_cdfg::PartitionId::new(p)))
                    .sum()
            };
            assert!(
                total(&shared) <= total(&plain),
                "rate {rate}: sharing {} > plain {}",
                total(&shared),
                total(&plain)
            );
            assert!(shared.verify(d.cdfg()).is_empty());
        }
    }

    #[test]
    fn same_value_transfers_share_a_bus_slot() {
        // The elliptic filter input feeds P1 and P2 (Ia/Ib); g2 should pull
        // both onto one bus where capacity permits.
        let d = elliptic::partitioned();
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(6)).unwrap();
        let ia = ic.assignment[&d.op_named("Ia")];
        let ib = ic.assignment[&d.op_named("Ib")];
        assert_eq!(ia.bus, ib.bus, "Ia and Ib should share one bus");
    }

    #[test]
    fn capable_carriers_reports_reassignment_options() {
        let d = ar_filter::general(3, PortMode::Unidirectional);
        let ic = synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(3)).unwrap();
        for op in d.cdfg().io_ops() {
            let carriers = ic.capable_carriers(d.cdfg(), op);
            let assigned = ic.assignment[&op];
            assert!(
                carriers.iter().any(|c| c.bus == assigned.bus),
                "assigned bus must be among the capable carriers"
            );
        }
    }

    #[test]
    fn infeasible_budget_is_reported() {
        // Strangle the quickstart design's pins so no structure fits.
        let mut d = synthetic::quickstart();
        for p in 1..=2u32 {
            d.cdfg_mut()
                .partition_mut(mcs_cdfg::PartitionId::new(p))
                .total_pins = 4;
        }
        assert!(matches!(
            synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(1)),
            Err(ConnectError::NoConnectionFound)
        ));
    }

    /// Two one-bus structures that differ only in which ports they
    /// connect: 256 output ports on partitions `256 * j`, against 256
    /// input ports on partitions `j`. With one-byte list lengths both
    /// encode the port count 256 as 0, and the two port lists spell the
    /// same bytes shifted by one, so their signatures collided and a
    /// failure proof for one pruned the other.
    #[test]
    fn signatures_separate_states_with_256_ports_on_a_bus() {
        let nparts = 256 * 255 + 1;
        let one_bus = |side: usize, slot: fn(usize) -> usize, width: u32| {
            let mut ports = [vec![0; nparts], vec![0; nparts]];
            for j in 0..256 {
                ports[side][slot(j)] = width;
            }
            State {
                mode: PortMode::Unidirectional,
                nparts,
                buses: 1,
                widths: vec![256],
                ports,
                values: vec![Vec::new()],
                assignment: Vec::new(),
                pins_left: Vec::new(),
                demand_left: Vec::new(),
            }
        };
        let outs = one_bus(0, |j| 256 * j, 256);
        let ins = one_bus(1, |j| j, 1);
        assert_ne!(outs.signature(3), ins.signature(3));
        assert_eq!(outs.signature(3), outs.clone().signature(3));
        let sig = outs.signature(3);
        assert_eq!(sig.len(), sig.capacity());
    }

    /// Undoing every move of a search path, newest first, restores the
    /// root state exactly.
    #[test]
    fn undo_restores_the_state_move_by_move() {
        for mode in [PortMode::Unidirectional, PortMode::Bidirectional] {
            let d = ar_filter::general(3, mode);
            let cdfg = d.cdfg();
            let transfers: Vec<Transfer> = cdfg.io_ops().map(|op| Transfer::of(cdfg, op)).collect();
            let windows = mcs_cdfg::timing::feedback_group_windows(cdfg, 3);
            let plan = crate::portfolio::portfolio_plans(&SearchConfig::new(3)).swap_remove(0);
            let mut state = State::new(cdfg, mode, &transfers);
            let mut trail = Vec::new();
            let mut snapshots = Vec::new();
            for (pos, t) in transfers.iter().enumerate() {
                let mut moves = Vec::new();
                candidate_moves(&state, &windows, 3, &plan, t, &mut Vec::new(), &mut moves);
                let Some(mv) = moves.first() else { break };
                snapshots.push(format!("{state:?}"));
                trail.push(apply_move(&mut state, pos, t, mv));
            }
            assert!(state.buses > 0);
            while let Some(u) = trail.pop() {
                state.undo(&u);
                assert_eq!(format!("{state:?}"), snapshots.pop().unwrap(), "{mode:?}");
            }
        }
    }

    #[test]
    fn zero_rate_is_rejected() {
        let d = synthetic::quickstart();
        assert!(matches!(
            synthesize(d.cdfg(), PortMode::Unidirectional, &SearchConfig::new(0)),
            Err(ConnectError::ZeroRate)
        ));
    }
}
