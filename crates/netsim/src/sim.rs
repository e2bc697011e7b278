//! Discrete-event execution of a task graph.

use crate::fair::MaxMin;
use crate::graph::{Graph, LaneId, PoolId, TaskId, Work};
use crate::trace::{SimResult, TaskRecord};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;

/// Byte slack below which a flow counts as finished.
const BYTE_EPS: f64 = 1e-6;
/// Time slack for matching completion instants.
const TIME_EPS: f64 = 1e-12;

/// Errors surfaced by [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No runnable work remains but some tasks never finished — a cyclic
    /// dependency or a credit deadlock in the engine-built graph. Carries
    /// labels of up to ten stuck tasks.
    Deadlock(Vec<String>),
    /// A transfer crosses a zero-capacity link and can never finish.
    ZeroRateFlow(TaskId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(stuck) => {
                write!(f, "simulation deadlock; stuck tasks: {}", stuck.join(", "))
            }
            SimError::ZeroRateFlow(id) => {
                write!(f, "transfer {id:?} crosses a zero-capacity link")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug)]
struct Flow {
    task: usize,
    links: Vec<usize>,
    remaining: f64,
    rate: f64,
    lane: Option<LaneId>,
    /// Remaining fixed issue delay; bytes flow only once this reaches 0.
    latency_left: f64,
}

#[derive(Debug, Default)]
struct LaneState {
    /// Task currently occupying the lane.
    busy: Option<usize>,
    /// Ready tasks waiting for the lane: (priority, task index).
    queue: BTreeSet<(i64, usize)>,
}

#[derive(Debug, Default)]
struct PoolState {
    available: u32,
    /// Waiting acquires: (priority, task index, amount).
    waiters: BTreeSet<(i64, usize, u32)>,
}

struct Engine<'g> {
    graph: &'g Graph,
    capacities: &'g [f64],
    now: f64,
    pending_deps: Vec<usize>,
    ready_at: Vec<f64>,
    start_at: Vec<f64>,
    finish_at: Vec<f64>,
    finished: Vec<bool>,
    remaining_tasks: usize,
    instant: Vec<usize>,
    lanes: Vec<LaneState>,
    /// One `(end time bits, lane)` entry per lane running a compute,
    /// earliest first. End times are finite and non-negative (the graph
    /// builder rejects other durations), so their bits order like them.
    lane_ends: BinaryHeap<Reverse<(u64, usize)>>,
    /// Scratch: lanes whose compute ends at the current instant.
    due: Vec<usize>,
    pools: Vec<PoolState>,
    flows: Vec<Flow>,
    solver: MaxMin,
    rates_dirty: bool,
    pools_dirty: bool,
    link_bytes: Vec<f64>,
    link_busy: Vec<f64>,
    /// Scratch: links that carried bytes during the current advance.
    link_marked: Vec<bool>,
    marked_links: Vec<usize>,
    mem: Vec<f64>,
    mem_peak: Vec<f64>,
}

impl<'g> Engine<'g> {
    fn new(graph: &'g Graph, capacities: &'g [f64]) -> Self {
        assert!(
            capacities.len() >= graph.num_links,
            "capacity vector shorter than the graph's link space"
        );
        let n = graph.tasks.len();
        Engine {
            graph,
            capacities,
            now: 0.0,
            pending_deps: graph.tasks.iter().map(|t| t.deps.len()).collect(),
            ready_at: vec![f64::NAN; n],
            start_at: vec![f64::NAN; n],
            finish_at: vec![f64::NAN; n],
            finished: vec![false; n],
            remaining_tasks: n,
            instant: Vec::new(),
            lanes: (0..graph.lanes).map(|_| LaneState::default()).collect(),
            lane_ends: BinaryHeap::new(),
            due: Vec::new(),
            pools: graph
                .pools
                .iter()
                .map(|&cap| PoolState {
                    available: cap,
                    waiters: BTreeSet::new(),
                })
                .collect(),
            flows: Vec::new(),
            solver: MaxMin::default(),
            rates_dirty: false,
            pools_dirty: false,
            link_bytes: vec![0.0; capacities.len()],
            link_busy: vec![0.0; capacities.len()],
            link_marked: vec![false; capacities.len()],
            marked_links: Vec::new(),
            mem: vec![0.0; graph.num_domains],
            mem_peak: vec![0.0; graph.num_domains],
        }
    }

    fn apply_mem(&mut self, task: usize, at_start: bool) {
        for d in &self.graph.tasks[task].spec.mem {
            if d.at_start == at_start {
                self.mem[d.domain] += d.bytes;
                if self.mem[d.domain] > self.mem_peak[d.domain] {
                    self.mem_peak[d.domain] = self.mem[d.domain];
                }
            }
        }
    }

    fn mark_started(&mut self, task: usize) {
        self.start_at[task] = self.now;
        self.apply_mem(task, true);
    }

    fn finish_task(&mut self, task: usize) {
        debug_assert!(!self.finished[task]);
        if self.start_at[task].is_nan() {
            self.start_at[task] = self.now;
            self.apply_mem(task, true);
        }
        self.finish_at[task] = self.now;
        self.finished[task] = true;
        self.remaining_tasks -= 1;
        self.apply_mem(task, false);
        for dep in &self.graph.tasks[task].dependents {
            let d = dep.0;
            self.pending_deps[d] -= 1;
            if self.pending_deps[d] == 0 {
                self.instant.push(d);
            }
        }
    }

    /// Dispatch a task that just became ready.
    fn dispatch(&mut self, task: usize) {
        self.ready_at[task] = self.now;
        let prio = self.graph.tasks[task].spec.priority;
        match &self.graph.tasks[task].spec.work {
            Work::NoOp => {
                self.mark_started(task);
                self.finish_task(task);
            }
            Work::ReleaseCredits { pool, amount } => {
                let (pool, amount) = (*pool, *amount);
                self.mark_started(task);
                self.pools[pool.0].available += amount;
                self.finish_task(task);
                self.pools_dirty = true;
            }
            Work::AcquireCredits { pool, amount } => {
                let (pool, amount) = (*pool, *amount);
                self.pools[pool.0].waiters.insert((prio, task, amount));
                // Grants happen in `settle` once every same-instant
                // acquire has enqueued, so priority ordering is exact
                // even among simultaneous requests.
                self.pools_dirty = true;
            }
            Work::Compute { lane, .. } => {
                let lane = *lane;
                self.lanes[lane.0].queue.insert((prio, task));
                self.pump_lane(lane);
            }
            Work::Transfer { lane, .. } => match lane {
                Some(lane) => {
                    let lane = *lane;
                    self.lanes[lane.0].queue.insert((prio, task));
                    self.pump_lane(lane);
                }
                None => self.start_transfer(task, None),
            },
        }
    }

    /// Grant credits to waiters in priority order until the head waiter
    /// cannot be satisfied (strict ordering — a large request blocks
    /// smaller later ones, keeping admission deterministic and fair).
    fn drain_pool(&mut self, pool: PoolId) {
        loop {
            let head = match self.pools[pool.0].waiters.iter().next() {
                Some(&h) => h,
                None => return,
            };
            let (_, task, amount) = head;
            if self.pools[pool.0].available < amount {
                return;
            }
            self.pools[pool.0].waiters.remove(&head);
            self.pools[pool.0].available -= amount;
            self.mark_started(task);
            self.finish_task(task);
        }
    }

    /// Start the next queued task on an idle lane.
    fn pump_lane(&mut self, lane: LaneId) {
        if self.lanes[lane.0].busy.is_some() {
            return;
        }
        let head = match self.lanes[lane.0].queue.iter().next() {
            Some(&h) => h,
            None => return,
        };
        self.lanes[lane.0].queue.remove(&head);
        let (_, task) = head;
        match &self.graph.tasks[task].spec.work {
            Work::Compute { duration, .. } => {
                let duration = *duration;
                self.mark_started(task);
                if duration <= 0.0 {
                    self.finish_task(task);
                    self.pump_lane(lane);
                } else {
                    self.lanes[lane.0].busy = Some(task);
                    let end = self.now + duration;
                    self.lane_ends.push(Reverse((end.to_bits(), lane.0)));
                }
            }
            Work::Transfer { .. } => {
                self.start_transfer(task, Some(lane));
            }
            other => unreachable!("non-lane work {other:?} queued on a lane"),
        }
    }

    fn start_transfer(&mut self, task: usize, lane: Option<LaneId>) {
        let (route, bytes, latency) = match &self.graph.tasks[task].spec.work {
            Work::Transfer {
                route,
                bytes,
                latency,
                ..
            } => (route, *bytes, *latency),
            _ => unreachable!(),
        };
        self.mark_started(task);
        if (route.is_empty() || bytes <= BYTE_EPS) && latency <= 0.0 {
            self.finish_task(task);
            if let Some(lane) = lane {
                self.pump_lane(lane);
            }
            return;
        }
        let mut links: Vec<usize> = route.iter().map(|l| l.index()).collect();
        links.sort_unstable();
        links.dedup();
        if let Some(lane) = lane {
            self.lanes[lane.0].busy = Some(task);
        }
        self.flows.push(Flow {
            task,
            links,
            remaining: bytes.max(0.0),
            rate: 0.0,
            lane,
            latency_left: latency,
        });
        // A flow in its issue-latency window takes no bandwidth, so it
        // leaves every other rate as it is; it joins the solve when the
        // window closes.
        if latency <= 0.0 {
            self.rates_dirty = true;
        }
    }

    fn recompute_rates(&mut self) {
        // Flows still in their issue-latency window consume no bandwidth.
        self.solver.clear();
        for f in &self.flows {
            let links: &[usize] = if f.latency_left > 0.0 { &[] } else { &f.links };
            self.solver.add_flow(links);
        }
        let rates = self.solver.solve(self.capacities);
        for (f, &r) in self.flows.iter_mut().zip(rates) {
            f.rate = if f.latency_left > 0.0 { 0.0 } else { r };
        }
        self.rates_dirty = false;
    }

    /// Run every instantaneous transition available at the current time:
    /// alternate between dispatching ready tasks and draining credit
    /// pools until a fixpoint, then refresh flow rates.
    fn settle(&mut self) {
        loop {
            while let Some(task) = self.instant.pop() {
                self.dispatch(task);
            }
            if !self.pools_dirty {
                break;
            }
            self.pools_dirty = false;
            for p in 0..self.pools.len() {
                self.drain_pool(PoolId(p));
            }
        }
        if self.rates_dirty {
            self.recompute_rates();
        }
    }

    /// Earliest future event: a compute lane completing or a flow draining.
    fn next_event(&self) -> Option<f64> {
        let mut t = f64::INFINITY;
        if let Some(&Reverse((end, _))) = self.lane_ends.peek() {
            t = t.min(f64::from_bits(end));
        }
        for f in &self.flows {
            if f.latency_left > 0.0 {
                t = t.min(self.now + f.latency_left);
            } else if f.rate > 0.0 {
                t = t.min(self.now + f.remaining / f.rate);
            }
        }
        t.is_finite().then_some(t)
    }

    /// Advance to `t`, draining flows and completing tasks.
    fn advance(&mut self, t: f64) {
        let dt = t - self.now;
        debug_assert!(dt >= -TIME_EPS, "time went backwards");
        if dt > 0.0 {
            for f in &mut self.flows {
                if f.latency_left > 0.0 {
                    f.latency_left -= dt;
                    if f.latency_left <= TIME_EPS {
                        f.latency_left = 0.0;
                        self.rates_dirty = true;
                    }
                    continue;
                }
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                for &l in &f.links {
                    self.link_bytes[l] += moved;
                    if !self.link_marked[l] {
                        self.link_marked[l] = true;
                        self.marked_links.push(l);
                    }
                }
            }
            for &l in &self.marked_links {
                self.link_busy[l] += dt;
                self.link_marked[l] = false;
            }
            self.marked_links.clear();
        }
        self.now = t;

        // Complete drained flows. A flow is done when its bytes are gone
        // up to the absolute slack, or when the residue is so small that
        // draining it cannot advance the clock at all (now + dt == now in
        // f64) — without the latter, a sub-epsilon residue at high rate
        // freezes simulated time.
        let mut i = 0;
        while i < self.flows.len() {
            let drained = {
                let f = &self.flows[i];
                f.latency_left <= 0.0
                    && (f.remaining <= BYTE_EPS
                        || (f.rate > 0.0 && self.now + f.remaining / f.rate <= self.now))
            };
            if drained {
                let flow = self.flows.swap_remove(i);
                self.rates_dirty = true;
                self.finish_task(flow.task);
                if let Some(lane) = flow.lane {
                    self.lanes[lane.0].busy = None;
                    self.pump_lane(lane);
                }
            } else {
                i += 1;
            }
        }
        // Complete lane computes ending now, in ascending lane index. The
        // due set is taken before any completes: a compute started by one
        // of these completions ends at the next event at the earliest.
        let horizon = self.now + TIME_EPS;
        while let Some(&Reverse((end, lane))) = self.lane_ends.peek() {
            if f64::from_bits(end) > horizon {
                break;
            }
            self.lane_ends.pop();
            self.due.push(lane);
        }
        self.due.sort_unstable();
        for k in 0..self.due.len() {
            let l = self.due[k];
            let task = self.lanes[l].busy.take().expect("due lane runs a compute");
            self.finish_task(task);
            self.pump_lane(LaneId(l));
        }
        self.due.clear();
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        // Seed: tasks with no dependencies.
        for (i, &p) in self.pending_deps.iter().enumerate() {
            if p == 0 {
                self.instant.push(i);
            }
        }
        // Dispatch in id order for determinism (instant stack is LIFO).
        self.instant.reverse();

        loop {
            self.settle();
            if self.remaining_tasks == 0 {
                break;
            }
            match self.next_event() {
                Some(t) => self.advance(t),
                None => {
                    // A flow with zero rate can never finish.
                    if let Some(f) = self.flows.iter().find(|f| f.rate <= 0.0) {
                        return Err(SimError::ZeroRateFlow(TaskId(f.task)));
                    }
                    let stuck: Vec<String> = self
                        .finished
                        .iter()
                        .enumerate()
                        .filter(|(_, done)| !**done)
                        .take(10)
                        .map(|(i, _)| {
                            let t = &self.graph.tasks[i];
                            if t.spec.label.is_empty() {
                                format!("task{}:{}", i, t.spec.work.tag())
                            } else {
                                format!("task{}:{}", i, t.spec.label)
                            }
                        })
                        .collect();
                    return Err(SimError::Deadlock(stuck));
                }
            }
        }

        let records = self
            .graph
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskRecord {
                id: TaskId(i),
                label: t.spec.label.clone(),
                kind: t.spec.work.tag(),
                ready: self.ready_at[i],
                start: self.start_at[i],
                finish: self.finish_at[i],
            })
            .collect();
        Ok(SimResult {
            makespan: self.now,
            records,
            link_bytes: self.link_bytes,
            link_busy: self.link_busy,
            mem_peak: self.mem_peak,
            mem_final: self.mem,
        })
    }
}

/// Execute `graph` against links with the given `capacities` (bytes/s,
/// indexed by [`LinkId`]).
pub fn simulate(graph: &Graph, capacities: &[f64]) -> Result<SimResult, SimError> {
    Engine::new(graph, capacities).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, TaskSpec};
    use janus_topology::LinkId;

    fn route(ids: &[usize]) -> Vec<LinkId> {
        ids.iter().copied().map(LinkId).collect()
    }

    #[test]
    fn empty_graph_finishes_at_zero() {
        let g = GraphBuilder::new(0, 0).build();
        let r = simulate(&g, &[]).unwrap();
        assert_eq!(r.makespan, 0.0);
        assert!(r.records.is_empty());
    }

    #[test]
    fn sequential_computes_on_one_lane() {
        let mut g = GraphBuilder::new(0, 0);
        let lane = g.lane();
        g.task(
            Work::Compute {
                lane,
                duration: 2.0,
            },
            &[],
        );
        g.task(
            Work::Compute {
                lane,
                duration: 3.0,
            },
            &[],
        );
        let r = simulate(&g.build(), &[]).unwrap();
        assert!((r.makespan - 5.0).abs() < 1e-9);
        assert!((r.records[1].start - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_computes_on_two_lanes() {
        let mut g = GraphBuilder::new(0, 0);
        let l0 = g.lane();
        let l1 = g.lane();
        g.task(
            Work::Compute {
                lane: l0,
                duration: 2.0,
            },
            &[],
        );
        g.task(
            Work::Compute {
                lane: l1,
                duration: 3.0,
            },
            &[],
        );
        let r = simulate(&g.build(), &[]).unwrap();
        assert!((r.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn lane_priority_orders_queued_tasks() {
        let mut g = GraphBuilder::new(0, 0);
        let lane = g.lane();
        // Occupy the lane first so both contenders queue.
        let head = g.task(
            Work::Compute {
                lane,
                duration: 1.0,
            },
            &[],
        );
        let low = g.add(
            TaskSpec::new(Work::Compute {
                lane,
                duration: 1.0,
            })
            .priority(10)
            .label("low"),
            &[],
        );
        let high = g.add(
            TaskSpec::new(Work::Compute {
                lane,
                duration: 1.0,
            })
            .priority(-10)
            .label("high"),
            &[],
        );
        let _ = head;
        let r = simulate(&g.build(), &[]).unwrap();
        assert!(r.records[high.0].start < r.records[low.0].start);
    }

    #[test]
    fn dependencies_gate_start_times() {
        let mut g = GraphBuilder::new(1, 0);
        let t0 = g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 10.0,
                lane: None,
                latency: 0.0,
            },
            &[],
        );
        let lane = g.lane();
        g.task(
            Work::Compute {
                lane,
                duration: 1.0,
            },
            &[t0],
        );
        let r = simulate(&g.build(), &[5.0]).unwrap();
        assert!((r.records[1].start - 2.0).abs() < 1e-9);
        assert!((r.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shared_link_fair_sharing_exact_times() {
        // Flows of 30 and 10 bytes share a 10 B/s link.
        // Phase 1: both at 5 B/s. Small flow done at t=2 (10 bytes).
        // Phase 2: big flow has 20 left at 10 B/s → done at t=4.
        let mut g = GraphBuilder::new(1, 0);
        let big = g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 30.0,
                lane: None,
                latency: 0.0,
            },
            &[],
        );
        let small = g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 10.0,
                lane: None,
                latency: 0.0,
            },
            &[],
        );
        let r = simulate(&g.build(), &[10.0]).unwrap();
        assert!((r.records[small.0].finish - 2.0).abs() < 1e-9);
        assert!((r.records[big.0].finish - 4.0).abs() < 1e-9);
        assert!((r.link_bytes[0] - 40.0).abs() < 1e-6);
        assert!((r.link_busy[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn transfers_on_one_lane_serialize() {
        let mut g = GraphBuilder::new(1, 0);
        let lane = g.lane();
        g.task(Work::transfer_on(route(&[0]), 10.0, lane), &[]);
        g.task(Work::transfer_on(route(&[0]), 10.0, lane), &[]);
        let r = simulate(&g.build(), &[10.0]).unwrap();
        // Serialized: 1 s + 1 s rather than 2 s shared.
        assert!((r.records[0].finish - 1.0).abs() < 1e-9);
        assert!((r.records[1].finish - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfer_is_instant_even_on_lane() {
        let mut g = GraphBuilder::new(1, 0);
        let lane = g.lane();
        g.task(Work::transfer_on(route(&[0]), 0.0, lane), &[]);
        g.task(Work::transfer_on(route(&[0]), 10.0, lane), &[]);
        let r = simulate(&g.build(), &[10.0]).unwrap();
        assert_eq!(r.records[0].finish, 0.0);
        assert!((r.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_route_transfer_is_instant() {
        let mut g = GraphBuilder::new(0, 0);
        g.task(
            Work::Transfer {
                route: vec![],
                bytes: 100.0,
                lane: None,
                latency: 0.0,
            },
            &[],
        );
        let r = simulate(&g.build(), &[]).unwrap();
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn credits_block_until_released() {
        let mut g = GraphBuilder::new(0, 0);
        let lane = g.lane();
        let pool = g.pool(1);
        // First holder takes the credit for 2 s of compute.
        let a0 = g.task(Work::AcquireCredits { pool, amount: 1 }, &[]);
        let c0 = g.task(
            Work::Compute {
                lane,
                duration: 2.0,
            },
            &[a0],
        );
        g.task(Work::ReleaseCredits { pool, amount: 1 }, &[c0]);
        // Second acquire must wait for the release at t=2.
        let a1 = g.task(Work::AcquireCredits { pool, amount: 1 }, &[]);
        let r = simulate(&g.build(), &[]).unwrap();
        assert!((r.records[a1.0].finish - 2.0).abs() < 1e-9);
        assert!((r.records[a1.0].queue_delay() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn credit_deadlock_detected() {
        let mut g = GraphBuilder::new(0, 0);
        let pool = g.pool(1);
        g.add(
            TaskSpec::new(Work::AcquireCredits { pool, amount: 2 }).label("too-greedy"),
            &[],
        );
        let err = simulate(&g.build(), &[]).unwrap_err();
        match err {
            SimError::Deadlock(stuck) => assert!(stuck[0].contains("too-greedy")),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn zero_capacity_link_reported() {
        let mut g = GraphBuilder::new(1, 0);
        g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 5.0,
                lane: None,
                latency: 0.0,
            },
            &[],
        );
        let err = simulate(&g.build(), &[0.0]).unwrap_err();
        assert_eq!(err, SimError::ZeroRateFlow(TaskId(0)));
    }

    #[test]
    fn memory_peaks_tracked() {
        let mut g = GraphBuilder::new(1, 1);
        // Transfer holds 100 bytes for its duration; released at finish.
        g.add(
            TaskSpec::new(Work::Transfer {
                route: route(&[0]),
                bytes: 10.0,
                lane: None,
                latency: 0.0,
            })
            .mem(0, 100.0, true)
            .mem(0, -100.0, false),
            &[],
        );
        let r = simulate(&g.build(), &[10.0]).unwrap();
        assert_eq!(r.mem_peak[0], 100.0);
        assert_eq!(r.mem_final[0], 0.0);
    }

    #[test]
    fn diamond_dependency_joins() {
        let mut g = GraphBuilder::new(0, 0);
        let lane = g.lane();
        let src = g.task(Work::NoOp, &[]);
        let a = g.task(
            Work::Compute {
                lane,
                duration: 1.0,
            },
            &[src],
        );
        let lane2 = g.lane();
        let b = g.task(
            Work::Compute {
                lane: lane2,
                duration: 4.0,
            },
            &[src],
        );
        let join = g.task(Work::NoOp, &[a, b]);
        let r = simulate(&g.build(), &[]).unwrap();
        assert!((r.records[join.0].finish - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rates_rebalance_when_flow_departs() {
        // Three equal flows on one link (9 B/s): 3 each. First finishes,
        // remaining two split 4.5 each, etc. 9 bytes per flow:
        // all identical → all finish at t = 3.
        let mut g = GraphBuilder::new(1, 0);
        for _ in 0..3 {
            g.task(
                Work::Transfer {
                    route: route(&[0]),
                    bytes: 9.0,
                    lane: None,
                    latency: 0.0,
                },
                &[],
            );
        }
        let r = simulate(&g.build(), &[9.0]).unwrap();
        assert!((r.makespan - 3.0).abs() < 1e-9);

        // Unequal flows: 9 and 18 bytes on 9 B/s. Phase 1: both 4.5 B/s,
        // flow0 done at t=2. Flow1 has 9 left at 9 B/s → t=3.
        let mut g = GraphBuilder::new(1, 0);
        g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 9.0,
                lane: None,
                latency: 0.0,
            },
            &[],
        );
        g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 18.0,
                lane: None,
                latency: 0.0,
            },
            &[],
        );
        let r = simulate(&g.build(), &[9.0]).unwrap();
        assert!((r.records[0].finish - 2.0).abs() < 1e-9);
        assert!((r.records[1].finish - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sub_epsilon_residue_cannot_freeze_the_clock() {
        // Regression: a flow whose remaining bytes are just above the
        // absolute slack, at a rate high enough that draining them cannot
        // advance a large clock (now + dt == now), must still complete.
        let mut g = GraphBuilder::new(1, 0);
        let lane = g.lane();
        // Push the clock far from zero so f64 ulp(now) dwarfs the drain dt.
        let warm = g.task(
            Work::Compute {
                lane,
                duration: 1e6,
            },
            &[],
        );
        g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 2e-6,
                lane: None,
                latency: 0.0,
            },
            &[warm],
        );
        let r = simulate(&g.build(), &[1e12]).unwrap();
        assert!((r.makespan - 1e6).abs() < 1.0);
    }

    #[test]
    fn latency_delays_byte_flow_and_holds_lane() {
        let mut g = GraphBuilder::new(1, 0);
        let lane = g.lane();
        // 10 bytes at 10 B/s after a 0.5 s issue delay -> finish at 1.5 s,
        // and a second lane transfer must wait for the whole window.
        g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 10.0,
                lane: Some(lane),
                latency: 0.5,
            },
            &[],
        );
        g.task(
            Work::Transfer {
                route: route(&[0]),
                bytes: 10.0,
                lane: Some(lane),
                latency: 0.5,
            },
            &[],
        );
        let r = simulate(&g.build(), &[10.0]).unwrap();
        assert!(
            (r.records[0].finish - 1.5).abs() < 1e-9,
            "{:?}",
            r.records[0]
        );
        assert!((r.records[1].start - 1.5).abs() < 1e-9);
        assert!((r.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn latency_only_transfer_with_empty_route_takes_latency() {
        let mut g = GraphBuilder::new(0, 0);
        g.task(
            Work::Transfer {
                route: vec![],
                bytes: 100.0,
                lane: None,
                latency: 0.25,
            },
            &[],
        );
        let r = simulate(&g.build(), &[]).unwrap();
        assert!((r.makespan - 0.25).abs() < 1e-9);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let build = || {
            let mut g = GraphBuilder::new(2, 0);
            let lane = g.lane();
            let pool = g.pool(2);
            let mut last = None;
            for i in 0..10 {
                let a = g.task(Work::AcquireCredits { pool, amount: 1 }, &[]);
                let t = g.task(
                    Work::Transfer {
                        route: route(&[i % 2]),
                        bytes: 7.0,
                        lane: None,
                        latency: 0.0,
                    },
                    &[a],
                );
                let c = g.task(
                    Work::Compute {
                        lane,
                        duration: 0.3,
                    },
                    &[t],
                );
                last = Some(g.task(Work::ReleaseCredits { pool, amount: 1 }, &[c]));
            }
            let _ = last;
            g.build()
        };
        let r1 = simulate(&build(), &[3.0, 5.0]).unwrap();
        let r2 = simulate(&build(), &[3.0, 5.0]).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        for (a, b) in r1.records.iter().zip(&r2.records) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.finish, b.finish);
        }
    }

    #[test]
    fn same_instant_completions_keep_their_order() {
        // Two compute lanes and one transfer lane all finish at t = 1.
        // The transfer lane then starts a compute shorter than TIME_EPS in
        // the flow pass, which the compute pass of the same instant
        // completes; lane 0 starts one in the compute pass, which waits for
        // the next event. Record times are pinned bit for bit.
        let mut g = GraphBuilder::new(1, 0);
        let (l0, l1, l2) = (g.lane(), g.lane(), g.lane());
        let tiny = 1e-13;
        let a = g.task(
            Work::Compute {
                lane: l0,
                duration: 1.0,
            },
            &[],
        );
        let s0 = g.task(
            Work::Compute {
                lane: l0,
                duration: tiny,
            },
            &[],
        );
        let b = g.task(
            Work::Compute {
                lane: l1,
                duration: 1.0,
            },
            &[],
        );
        let s1 = g.task(
            Work::Compute {
                lane: l1,
                duration: tiny,
            },
            &[a],
        );
        g.task(Work::transfer_on(route(&[0]), 10.0, l2), &[]);
        let s2 = g.task(
            Work::Compute {
                lane: l2,
                duration: tiny,
            },
            &[],
        );
        g.task(Work::NoOp, &[s0, s1, s2, b]);
        let r = simulate(&g.build(), &[10.0]).unwrap();
        let got: Vec<(u64, u64)> = r
            .records
            .iter()
            .map(|t| (t.start.to_bits(), t.finish.to_bits()))
            .collect();
        // 1.0 and 1.0 + 1e-13.
        let (one, later) = (0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_01c2);
        let pinned = vec![
            (0, one),
            (one, later),
            (0, one),
            (one, later),
            (0, one),
            (one, one),
            (later, later),
        ];
        assert_eq!(got, pinned, "{:?}", r.records);
    }
}
