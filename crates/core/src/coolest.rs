use crn_geometry::GridIndex;
use crn_spectrum::temperature::spectrum_temperatures;
use crn_topology::{dijkstra_tree_by, CollectionTree, PathOrder, TreeError, UnitDiskGraph};

/// How the Coolest baseline turns spectrum temperatures into routes.
///
/// The ADDC paper's CRN premise (Section I) is that global, current
/// network state is unavailable in a large asynchronous CRN, so the
/// faithful baseline is [`CoolestStrategy::GreedyLocal`]: every SU picks
/// the coolest next hop it can see one BFS level closer to the base
/// station. Whole neighborhoods agree on the same cool relay, which is
/// exactly the "many SUs might choose the same path … data accumulation"
/// behaviour the paper attributes to Coolest — and exactly the fan-in the
/// CDS tree's Lemma-1 degree bound avoids.
///
/// [`CoolestStrategy::OracleDijkstra`] is the genie-aided upper variant
/// (global peak-first shortest paths over exact temperatures); the
/// `ablation_routing` bench reports it separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoolestStrategy {
    /// Distributed: locally coolest next hop among BFS-closer neighbors.
    GreedyLocal,
    /// Centralized oracle: global peak-first Dijkstra on exact
    /// temperatures.
    OracleDijkstra,
}

/// Builds the **Coolest-path** routing tree: every SU routes to the base
/// station along the path minimizing the *highest spectrum temperature*
/// first ("the most balanced ... spectrum utilization", as the ADDC paper
/// describes the baseline), then *accumulated temperature*, then hop
/// count — the metrics of Huang et al.'s Coolest Path (ICDCS 2011),
/// adapted into a data-collection tree as the paper's Section V baseline
/// requires ("necessary modification").
///
/// Peak-first routing detours around hot spots regardless of path length,
/// which funnels many SUs onto the same cool corridor — the
/// data-accumulation effect the paper credits for Coolest's delay loss.
///
/// `pus` must be a spatial index over PU positions built on the same
/// region as `graph`; `sensing_radius` is the range over which an SU
/// perceives PU heat (ADDC's PCR, for parity), and `duty` the PU duty
/// cycle (`p_t` for the paper's Bernoulli model).
///
/// # Errors
///
/// Returns a [`TreeError`] if `graph` is empty or disconnected from node 0
/// (the base station).
pub fn coolest_tree(
    graph: &UnitDiskGraph,
    pus: &GridIndex,
    sensing_radius: f64,
    duty: f64,
) -> Result<CollectionTree, TreeError> {
    coolest_tree_with(
        graph,
        pus,
        sensing_radius,
        duty,
        CoolestStrategy::GreedyLocal,
    )
}

/// [`coolest_tree`] with an explicit [`CoolestStrategy`].
///
/// # Errors
///
/// Returns a [`TreeError`] if `graph` is empty or disconnected from node 0
/// (the base station).
pub fn coolest_tree_with(
    graph: &UnitDiskGraph,
    pus: &GridIndex,
    sensing_radius: f64,
    duty: f64,
    strategy: CoolestStrategy,
) -> Result<CollectionTree, TreeError> {
    let temps = spectrum_temperatures(duty, graph.positions(), pus, sensing_radius);
    let parents = match strategy {
        CoolestStrategy::OracleDijkstra => {
            dijkstra_tree_by(graph, 0, &temps, PathOrder::PeakFirst).0
        }
        CoolestStrategy::GreedyLocal => {
            // Next hop = the coolest neighbor that makes progress toward
            // the base station: strictly lower BFS level, or the same
            // level but Euclidean-closer. Lateral "stay cool" moves are
            // what the paper's Coolest prefers over raw progress, and they
            // lengthen paths; the (level, distance) potential strictly
            // decreases along parents, so the result is a tree.
            let levels = graph.bfs_levels(0);
            let bs = graph.position(0);
            let mut parents: Vec<Option<u32>> = vec![None; graph.len()];
            for u in 0..graph.len() as u32 {
                let Some(lu) = levels[u as usize] else {
                    continue; // unreachable; from_parents will reject
                };
                if lu == 0 {
                    continue;
                }
                let du = graph.position(u).distance(bs);
                parents[u as usize] = graph
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| match levels[v as usize] {
                        Some(lv) if lv < lu => true,
                        Some(lv) if lv == lu => graph.position(v).distance(bs) < du,
                        _ => false,
                    })
                    .min_by(|&a, &b| {
                        // Equal heat falls back to progress (lower level),
                        // so uniform temperatures reduce to BFS routing.
                        temps[a as usize]
                            .total_cmp(&temps[b as usize])
                            .then_with(|| levels[a as usize].cmp(&levels[b as usize]))
                            .then_with(|| a.cmp(&b))
                    });
            }
            parents
        }
    };
    CollectionTree::from_parents(graph, 0, parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_geometry::{Deployment, Point, Region};
    use rand::SeedableRng;

    fn pu_index(region: Region, pts: Vec<Point>) -> GridIndex {
        GridIndex::build(&pts, region, 10.0)
    }

    #[test]
    fn coolest_routes_around_heat() {
        // A 2-row corridor: the direct row passes a PU cluster; the
        // detour row is quiet. Coolest should route via the quiet row.
        let region = Region::square(40.0);
        let mut sus = vec![Point::new(2.0, 10.0)]; // bs
                                                   // hot row (y = 10): nodes 1..4
        for i in 1..=4 {
            sus.push(Point::new(2.0 + 6.0 * i as f64, 10.0));
        }
        // cool row (y = 16): nodes 5..8
        for i in 1..=4 {
            sus.push(Point::new(2.0 + 6.0 * i as f64, 16.0));
        }
        // target node 9 at the far end, reachable from both rows
        sus.push(Point::new(30.0, 13.0));
        let graph = UnitDiskGraph::build(&Deployment::from_points(region, sus), 9.0);
        assert!(graph.is_connected());
        // PUs sit on the hot row.
        let pus = pu_index(
            region,
            vec![
                Point::new(14.0, 10.0),
                Point::new(20.0, 10.0),
                Point::new(26.0, 10.0),
            ],
        );
        let tree = coolest_tree(&graph, &pus, 8.0, 0.5).unwrap();
        // Node 9's path to the root should use the cool row (ids 5..=8)
        // rather than the hot row (1..=4).
        let path: Vec<u32> = tree.path_to_root(9).collect();
        let uses_hot = path.iter().any(|&u| (1..=4).contains(&u));
        let uses_cool = path.iter().any(|&u| (5..=8).contains(&u));
        assert!(
            uses_cool && !uses_hot,
            "path {path:?} should avoid the hot row"
        );
    }

    #[test]
    fn uniform_heat_reduces_to_fewest_hops() {
        // With no PUs every temperature is zero, so the lexicographic cost
        // falls through to hop count: the Coolest tree must match BFS
        // depths.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let region = Region::square(60.0);
        let d = Deployment::uniform(region, 150, &mut rng);
        let graph = UnitDiskGraph::build(&d, 11.0);
        if !graph.is_connected() {
            return;
        }
        let pus = pu_index(region, vec![]);
        let tree = coolest_tree(&graph, &pus, 20.0, 0.3).unwrap();
        let levels = graph.bfs_levels(0);
        for u in 0..graph.len() as u32 {
            assert_eq!(Some(tree.depth(u)), levels[u as usize], "node {u}");
        }
    }

    #[test]
    fn coolest_tree_validates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let region = Region::square(80.0);
        let d = Deployment::uniform(region, 250, &mut rng);
        let graph = UnitDiskGraph::build(&d, 11.0);
        if !graph.is_connected() {
            return;
        }
        let pu_d = Deployment::uniform(region, 60, &mut rng);
        let pus = pu_index(region, pu_d.points().to_vec());
        let tree = coolest_tree(&graph, &pus, 25.0, 0.3).unwrap();
        tree.validate(&graph).unwrap();
        assert_eq!(tree.kind(), crn_topology::TreeKind::Custom);
    }

    #[test]
    fn disconnected_graph_is_error() {
        let region = Region::square(60.0);
        let sus = vec![Point::new(1.0, 1.0), Point::new(50.0, 50.0)];
        let graph = UnitDiskGraph::build(&Deployment::from_points(region, sus), 5.0);
        let pus = pu_index(region, vec![]);
        assert!(coolest_tree(&graph, &pus, 10.0, 0.3).is_err());
    }
}
