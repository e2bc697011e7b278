//! Max-min fair bandwidth allocation (progressive filling).
//!
//! Given a set of flows, each traversing a list of links, and per-link
//! capacities, compute the max-min fair rate vector: repeatedly find the
//! most contended link (smallest equal share among its unfrozen flows),
//! freeze every unfrozen flow crossing it at that share, subtract the
//! frozen bandwidth, and continue until every flow is frozen.
//!
//! This is the classic water-filling algorithm; it terminates in at most
//! `min(#flows, #links)` rounds and produces the unique max-min fair
//! allocation.
//!
//! The floating-point result is fixed by three orderings, which
//! `MaxMin` keeps: the bottleneck is the lowest-indexed link among those
//! with the smallest share, its flows freeze in ascending flow index, and
//! each frozen flow subtracts its share from every link of its route.

use janus_topology::LinkId;

/// Compute max-min fair rates for `flows` over links with `capacities`.
///
/// Each entry of `flows` is the route (link list) of one flow. A flow with
/// an empty route is unconstrained and gets `f64::INFINITY` — callers
/// treat such transfers as instantaneous (both endpoints in the same
/// memory domain).
///
/// Links that appear multiple times in one route are counted once (a flow
/// cannot consume the same link twice in the fluid model).
pub fn max_min_rates(flows: &[Vec<LinkId>], capacities: &[f64]) -> Vec<f64> {
    let mut solver = MaxMin::default();
    let mut links = Vec::new();
    for route in flows {
        links.clear();
        links.extend(route.iter().map(|l| l.index()));
        links.sort_unstable();
        links.dedup();
        solver.add_flow(&links);
    }
    solver.solve(capacities).to_vec()
}

/// Progressive-filling solver that keeps its buffers between calls, so a
/// caller that re-solves after every flow arrival or departure (the event
/// loop) allocates nothing once the buffers have grown.
///
/// [`MaxMin::clear`], then [`MaxMin::add_flow`] once per flow, then
/// [`MaxMin::solve`].
#[derive(Debug, Default)]
pub(crate) struct MaxMin {
    /// Links of every flow, concatenated; flow `i` owns
    /// `route_links[route_start[i]..route_start[i + 1]]`.
    route_links: Vec<usize>,
    route_start: Vec<usize>,
    rates: Vec<f64>,
    frozen: Vec<bool>,
    /// Per link: unallocated capacity and unfrozen flow count.
    remaining: Vec<f64>,
    unfrozen_on: Vec<usize>,
    /// Per link `l`: the flows crossing it in ascending flow index, in
    /// `on_link[on_link_start[l]..on_link_start[l + 1]]`.
    on_link_start: Vec<usize>,
    on_link: Vec<usize>,
    /// Links that still carry an unfrozen flow, ascending.
    live: Vec<usize>,
}

impl MaxMin {
    /// Drop every added flow.
    pub(crate) fn clear(&mut self) {
        self.route_links.clear();
        self.route_start.clear();
    }

    /// Add one flow over `links`, which must hold no link twice. An empty
    /// route is unconstrained.
    pub(crate) fn add_flow(&mut self, links: &[usize]) {
        debug_assert!(
            links
                .iter()
                .enumerate()
                .all(|(i, l)| !links[..i].contains(l)),
            "route repeats a link: {links:?}"
        );
        if self.route_start.is_empty() {
            self.route_start.push(0);
        }
        self.route_links.extend_from_slice(links);
        self.route_start.push(self.route_links.len());
    }

    /// Max-min fair rate of every added flow, in the order added.
    pub(crate) fn solve(&mut self, capacities: &[f64]) -> &[f64] {
        let MaxMin {
            route_links,
            route_start,
            rates,
            frozen,
            remaining,
            unfrozen_on,
            on_link_start,
            on_link,
            live,
        } = self;
        let n = route_start.len().saturating_sub(1);
        rates.clear();
        rates.resize(n, f64::INFINITY);
        if n == 0 {
            return rates;
        }
        remaining.clear();
        remaining.extend_from_slice(capacities);

        // Each link's flows, bucketed in ascending flow index.
        unfrozen_on.clear();
        unfrozen_on.resize(capacities.len(), 0);
        for &l in route_links.iter() {
            unfrozen_on[l] += 1;
        }
        on_link_start.clear();
        on_link_start.push(0);
        let mut total = 0;
        for &c in unfrozen_on.iter() {
            total += c;
            on_link_start.push(total);
        }
        on_link.clear();
        on_link.resize(total, 0);
        // `live` serves as the per-link fill cursor first.
        live.clear();
        live.extend_from_slice(&on_link_start[..capacities.len()]);
        for i in 0..n {
            for &l in &route_links[route_start[i]..route_start[i + 1]] {
                on_link[live[l]] = i;
                live[l] += 1;
            }
        }

        // Flows with empty routes are frozen at infinity from the start.
        frozen.clear();
        frozen.extend(route_start.windows(2).map(|w| w[0] == w[1]));
        let mut unfrozen = frozen.iter().filter(|&&f| !f).count();
        live.clear();
        live.extend((0..capacities.len()).filter(|&l| unfrozen_on[l] > 0));

        while unfrozen > 0 {
            // Bottleneck link: smallest fair share among links with
            // unfrozen flows; the lowest link id wins a tie.
            let mut best_share = f64::INFINITY;
            let mut best = usize::MAX;
            for &l in live.iter() {
                let share = (remaining[l] / unfrozen_on[l] as f64).max(0.0);
                if share < best_share {
                    best_share = share;
                    best = l;
                }
            }
            if best == usize::MAX {
                // No contended links left; remaining flows are unconstrained.
                break;
            }
            // Freeze every unfrozen flow crossing the bottleneck.
            for &i in &on_link[on_link_start[best]..on_link_start[best + 1]] {
                if frozen[i] {
                    continue;
                }
                frozen[i] = true;
                unfrozen -= 1;
                rates[i] = best_share;
                for &l in &route_links[route_start[i]..route_start[i + 1]] {
                    remaining[l] = (remaining[l] - best_share).max(0.0);
                    unfrozen_on[l] -= 1;
                }
            }
            live.retain(|&l| unfrozen_on[l] > 0);
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference solver: every round scans every link for the bottleneck
    /// and every flow's route for that link.
    fn max_min_rates_reference(flows: &[Vec<LinkId>], capacities: &[f64]) -> Vec<f64> {
        let n = flows.len();
        let mut rates = vec![f64::INFINITY; n];
        if n == 0 {
            return rates;
        }

        // Deduplicated routes so repeated links don't double-count.
        let dedup: Vec<Vec<usize>> = flows
            .iter()
            .map(|route| {
                let mut ls: Vec<usize> = route.iter().map(|l| l.index()).collect();
                ls.sort_unstable();
                ls.dedup();
                ls
            })
            .collect();

        let mut remaining = capacities.to_vec();
        let mut flows_on_link = vec![0usize; capacities.len()];
        for ls in &dedup {
            for &l in ls {
                flows_on_link[l] += 1;
            }
        }
        let mut frozen = vec![false; n];
        // Flows with empty routes are frozen at infinity from the start.
        let mut unfrozen = 0usize;
        for (i, ls) in dedup.iter().enumerate() {
            if ls.is_empty() {
                frozen[i] = true;
            } else {
                unfrozen += 1;
            }
        }

        while unfrozen > 0 {
            // Bottleneck link: smallest fair share among links with unfrozen flows.
            let mut best_share = f64::INFINITY;
            let mut best_link = usize::MAX;
            for (l, &cnt) in flows_on_link.iter().enumerate() {
                if cnt > 0 {
                    let share = (remaining[l] / cnt as f64).max(0.0);
                    if share < best_share {
                        best_share = share;
                        best_link = l;
                    }
                }
            }
            if best_link == usize::MAX {
                // No contended links left; remaining flows are unconstrained.
                break;
            }
            // Freeze every unfrozen flow crossing the bottleneck.
            for i in 0..n {
                if frozen[i] || !dedup[i].contains(&best_link) {
                    continue;
                }
                frozen[i] = true;
                unfrozen -= 1;
                rates[i] = best_share;
                for &l in &dedup[i] {
                    remaining[l] = (remaining[l] - best_share).max(0.0);
                    flows_on_link[l] -= 1;
                }
            }
        }
        rates
    }

    /// Capacities drawn mostly from a few round values, so equal shares
    /// on several links (the tie-break) and zero-capacity links are
    /// common; the rest are arbitrary.
    fn capacity() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            Just(2.0),
            Just(3.0),
            Just(6.0),
            Just(f64::INFINITY),
            0.0f64..10.0,
            0.0f64..1e12,
        ]
    }

    /// Routes over `links` links, repeats and empty routes included.
    fn routes(links: usize, max_flows: usize) -> impl Strategy<Value = Vec<Vec<LinkId>>> {
        proptest::collection::vec(
            proptest::collection::vec((0..links).prop_map(LinkId), 0..6),
            0..max_flows,
        )
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    proptest! {
        /// The solver and the reference agree bit for bit on small, dense
        /// graphs, and a reused solver agrees on the next flow set too.
        #[test]
        fn solver_matches_reference_on_small_graphs(
            caps in proptest::collection::vec(capacity(), 6..=6),
            first in routes(6, 10),
            second in routes(6, 10),
        ) {
            let mut solver = MaxMin::default();
            let mut links = Vec::new();
            for flows in [&first, &second] {
                solver.clear();
                for route in flows.iter() {
                    links.clear();
                    links.extend(route.iter().map(|l| l.index()));
                    links.sort_unstable();
                    links.dedup();
                    solver.add_flow(&links);
                }
                prop_assert_eq!(
                    bits(solver.solve(&caps)),
                    bits(&max_min_rates_reference(flows, &caps))
                );
            }
        }

        /// Wider graphs with many bottleneck rounds.
        #[test]
        fn solver_matches_reference_on_wide_graphs(
            caps in proptest::collection::vec(capacity(), 40..=40),
            flows in routes(40, 80),
        ) {
            prop_assert_eq!(
                bits(&max_min_rates(&flows, &caps)),
                bits(&max_min_rates_reference(&flows, &caps))
            );
        }
    }

    fn links(ids: &[usize]) -> Vec<LinkId> {
        ids.iter().copied().map(LinkId).collect()
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[links(&[0])], &[10.0]);
        assert_eq!(rates, vec![10.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = max_min_rates(&[links(&[0]), links(&[0]), links(&[0])], &[9.0]);
        assert_eq!(rates, vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn bottleneck_releases_bandwidth_elsewhere() {
        // Flow 0: links 0,1. Flow 1: link 0. Flow 2: link 1.
        // Capacities: link0 = 10, link1 = 4.
        // Link 1 is the first bottleneck: flows 0 and 2 get 2 each.
        // Flow 1 then gets the rest of link 0: 10 - 2 = 8.
        let rates = max_min_rates(&[links(&[0, 1]), links(&[0]), links(&[1])], &[10.0, 4.0]);
        assert_eq!(rates, vec![2.0, 8.0, 2.0]);
    }

    #[test]
    fn empty_route_is_unconstrained() {
        let rates = max_min_rates(&[links(&[]), links(&[0])], &[5.0]);
        assert_eq!(rates[0], f64::INFINITY);
        assert_eq!(rates[1], 5.0);
    }

    #[test]
    fn duplicate_links_counted_once() {
        let rates = max_min_rates(&[links(&[0, 0])], &[6.0]);
        assert_eq!(rates, vec![6.0]);
    }

    #[test]
    fn no_flows() {
        assert!(max_min_rates(&[], &[1.0]).is_empty());
    }

    #[test]
    fn zero_capacity_link_gives_zero_rate() {
        let rates = max_min_rates(&[links(&[0])], &[0.0]);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn classic_water_filling_example() {
        // Three links in a line (cap 1 each); flows: A over all three,
        // B over link 0, C over link 1, D over link 2.
        // A is bottlenecked at 1/2 on every link; B, C, D get 1/2 too.
        let flows = vec![links(&[0, 1, 2]), links(&[0]), links(&[1]), links(&[2])];
        let rates = max_min_rates(&flows, &[1.0, 1.0, 1.0]);
        for r in rates {
            assert!((r - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn allocation_respects_capacities() {
        // Random-ish structured case, verified against link budgets.
        let flows = vec![
            links(&[0, 2]),
            links(&[1, 2]),
            links(&[0, 1]),
            links(&[2]),
            links(&[0]),
        ];
        let caps = [7.0, 5.0, 3.0];
        let rates = max_min_rates(&flows, &caps);
        let mut used = [0.0f64; 3];
        for (f, rate) in flows.iter().zip(&rates) {
            for l in f {
                used[l.index()] += rate;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(*u <= c + 1e-9, "link over capacity: {u} > {c}");
        }
    }
}
