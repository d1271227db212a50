use crate::{mis, rank_order, UnitDiskGraph};
use std::fmt;

/// Role of a node in the CDS-based data collection tree (Section IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// Member of the maximal independent set (black nodes in Fig. 2). The
    /// base station is a dominator.
    Dominator,
    /// Node recruited to connect dominators into a CDS (blue nodes).
    Connector,
    /// Leaf node attached to an adjacent dominator (white nodes).
    Dominatee,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Dominator => "dominator",
            Role::Connector => "connector",
            Role::Dominatee => "dominatee",
        };
        f.write_str(s)
    }
}

/// How a [`CollectionTree`] was produced. Used by the routing ablation and
/// recorded in experiment outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TreeKind {
    /// The paper's CDS-based construction (Wan et al., MOBIHOC 2009).
    Cds,
    /// Plain BFS shortest-path tree (ablation baseline).
    Bfs,
    /// Externally supplied parents (e.g. the Coolest-path baseline).
    Custom,
}

/// Errors from tree construction or validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The graph has no nodes.
    EmptyGraph,
    /// The requested root id exceeds the node count.
    RootOutOfRange {
        /// Requested root.
        root: u32,
        /// Number of nodes in the graph.
        len: usize,
    },
    /// Some node cannot reach the root (the paper assumes `G_s` connected).
    Disconnected {
        /// An example unreachable node.
        node: u32,
    },
    /// A parent pointer does not correspond to a graph edge.
    BadParentEdge {
        /// Child node.
        child: u32,
        /// Claimed parent.
        parent: u32,
    },
    /// Parent pointers contain a cycle or an orphan subtree.
    NotATree {
        /// An example node not reached from the root via children links.
        node: u32,
    },
    /// A non-root node lacks a parent, or the root has one.
    BadRootStructure {
        /// Offending node.
        node: u32,
    },
    /// A CDS role invariant is violated (e.g. a dominatee whose parent is
    /// not a dominator).
    RoleViolation {
        /// Offending node.
        node: u32,
        /// Human-readable description of the violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EmptyGraph => write!(f, "graph has no nodes"),
            TreeError::RootOutOfRange { root, len } => {
                write!(f, "root {root} out of range for {len} nodes")
            }
            TreeError::Disconnected { node } => {
                write!(f, "node {node} cannot reach the root")
            }
            TreeError::BadParentEdge { child, parent } => {
                write!(f, "parent pointer {child} -> {parent} is not a graph edge")
            }
            TreeError::NotATree { node } => {
                write!(f, "node {node} is not part of the rooted tree")
            }
            TreeError::BadRootStructure { node } => {
                write!(f, "node {node} breaks the single-root structure")
            }
            TreeError::RoleViolation { node, what } => {
                write!(f, "node {node} violates CDS role invariant: {what}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted data collection tree over a [`UnitDiskGraph`].
///
/// Every node except the root has a parent adjacent to it in the graph;
/// packets flow child → parent until they reach the root (the base
/// station). For [`TreeKind::Cds`] trees, per-node [`Role`]s are available
/// and the structural invariants of Section IV-A hold (validated by
/// [`CollectionTree::validate`]).
///
/// # Example
///
/// ```
/// use crn_geometry::{Deployment, Region};
/// use crn_topology::{CollectionTree, Role, UnitDiskGraph};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let d = Deployment::uniform(Region::square(50.0), 120, &mut rng);
/// let g = UnitDiskGraph::build(&d, 10.0);
/// # if !g.is_connected() { return Ok(()); }
/// let tree = CollectionTree::cds(&g, 0)?;
/// assert_eq!(tree.role(0), Some(Role::Dominator));
/// assert!(tree.max_degree() >= tree.root_degree());
/// # Ok::<(), crn_topology::TreeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CollectionTree {
    kind: TreeKind,
    root: u32,
    parent: Vec<Option<u32>>,
    children: Vec<Vec<u32>>,
    depth: Vec<u32>,
    roles: Option<Vec<Role>>,
}

impl CollectionTree {
    /// Builds the paper's CDS-based collection tree rooted at `root`
    /// (normally the base station, node 0).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::EmptyGraph`], [`TreeError::RootOutOfRange`], or
    /// [`TreeError::Disconnected`] when the construction's preconditions
    /// fail.
    pub fn cds(graph: &UnitDiskGraph, root: u32) -> Result<Self, TreeError> {
        let levels = Self::check_preconditions(graph, root)?;
        let is_dom = mis(graph, root);
        let rank = |u: u32| (levels[u as usize], u);

        let mut parent: Vec<Option<u32>> = vec![None; graph.len()];
        let mut is_connector = vec![false; graph.len()];

        // Attach every non-root dominator through a connector to a strictly
        // lower-ranked dominator (exists by the BFS-ranked MIS property).
        for u in rank_order(graph, root) {
            if u == root || !is_dom[u as usize] {
                continue;
            }
            let mut best: Option<((u32, u32), u32, u32)> = None; // (rank(v), w, v)
            for &w in graph.neighbors(u) {
                for &v in graph.neighbors(w) {
                    if is_dom[v as usize] && rank(v) < rank(u) {
                        let key = rank(v);
                        if best.is_none_or(|(k, bw, _)| (key, w) < (k, bw)) {
                            best = Some((key, w, v));
                        }
                    }
                }
            }
            let (_, w, v) = best.ok_or(TreeError::Disconnected { node: u })?;
            parent[u as usize] = Some(w);
            if !is_connector[w as usize] {
                is_connector[w as usize] = true;
                parent[w as usize] = Some(v);
            }
        }

        // Dominatees adopt their lowest-ranked adjacent dominator.
        for u in 0..graph.len() as u32 {
            if u == root || is_dom[u as usize] || is_connector[u as usize] {
                continue;
            }
            let dom = graph
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| is_dom[v as usize])
                .min_by_key(|&v| rank(v))
                .ok_or(TreeError::Disconnected { node: u })?;
            parent[u as usize] = Some(dom);
        }

        let roles = is_dom
            .iter()
            .zip(&is_connector)
            .map(|(&d, &c)| {
                if d {
                    Role::Dominator
                } else if c {
                    Role::Connector
                } else {
                    Role::Dominatee
                }
            })
            .collect();

        Self::assemble(TreeKind::Cds, graph, root, parent, Some(roles))
    }

    /// Builds a plain BFS shortest-path tree rooted at `root` (used by the
    /// routing ablation). Parents are the lowest-id neighbor one level
    /// closer to the root.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`CollectionTree::cds`].
    pub fn bfs(graph: &UnitDiskGraph, root: u32) -> Result<Self, TreeError> {
        let levels = Self::check_preconditions(graph, root)?;
        let mut parent = vec![None; graph.len()];
        for u in 0..graph.len() as u32 {
            if u == root {
                continue;
            }
            let lu = levels[u as usize];
            parent[u as usize] = graph
                .neighbors(u)
                .iter()
                .copied()
                .find(|&v| levels[v as usize] + 1 == lu);
            if parent[u as usize].is_none() {
                return Err(TreeError::Disconnected { node: u });
            }
        }
        Self::assemble(TreeKind::Bfs, graph, root, parent, None)
    }

    /// Wraps externally computed parent pointers (e.g. the Coolest-path
    /// baseline) into a validated tree.
    ///
    /// # Errors
    ///
    /// Returns an error if the pointers do not form a spanning tree of
    /// graph edges rooted at `root`.
    pub fn from_parents(
        graph: &UnitDiskGraph,
        root: u32,
        parent: Vec<Option<u32>>,
    ) -> Result<Self, TreeError> {
        Self::check_preconditions(graph, root)?;
        Self::assemble(TreeKind::Custom, graph, root, parent, None)
    }

    fn check_preconditions(graph: &UnitDiskGraph, root: u32) -> Result<Vec<u32>, TreeError> {
        if graph.is_empty() {
            return Err(TreeError::EmptyGraph);
        }
        if root as usize >= graph.len() {
            return Err(TreeError::RootOutOfRange {
                root,
                len: graph.len(),
            });
        }
        let levels = graph.bfs_levels(root);
        if let Some(node) = levels.iter().position(Option::is_none) {
            return Err(TreeError::Disconnected { node: node as u32 });
        }
        Ok(levels.into_iter().map(|l| l.expect("checked")).collect())
    }

    fn assemble(
        kind: TreeKind,
        graph: &UnitDiskGraph,
        root: u32,
        parent: Vec<Option<u32>>,
        roles: Option<Vec<Role>>,
    ) -> Result<Self, TreeError> {
        let n = graph.len();
        let mut children = vec![Vec::new(); n];
        for u in 0..n as u32 {
            match parent[u as usize] {
                None if u == root => {}
                None => return Err(TreeError::BadRootStructure { node: u }),
                Some(_) if u == root => return Err(TreeError::BadRootStructure { node: u }),
                Some(p) => {
                    if !graph.has_edge(u, p) {
                        return Err(TreeError::BadParentEdge {
                            child: u,
                            parent: p,
                        });
                    }
                    children[p as usize].push(u);
                }
            }
        }
        // Depths via traversal from the root; unreached nodes mean a cycle.
        let mut depth = vec![u32::MAX; n];
        depth[root as usize] = 0;
        let mut stack = vec![root];
        let mut seen = 1usize;
        while let Some(u) = stack.pop() {
            for &c in &children[u as usize] {
                depth[c as usize] = depth[u as usize] + 1;
                seen += 1;
                stack.push(c);
            }
        }
        if seen != n {
            let node = depth
                .iter()
                .position(|&d| d == u32::MAX)
                .expect("some node unreached") as u32;
            return Err(TreeError::NotATree { node });
        }
        let tree = Self {
            kind,
            root,
            parent,
            children,
            depth,
            roles,
        };
        Ok(tree)
    }

    /// The tree's construction method.
    #[must_use]
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// The root node (base station).
    #[must_use]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree has no nodes (never true for constructed trees).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `u`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn parent(&self, u: u32) -> Option<u32> {
        self.parent[u as usize]
    }

    /// Children of `u` in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn children(&self, u: u32) -> &[u32] {
        &self.children[u as usize]
    }

    /// Hop distance from `u` to the root along tree edges.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn depth(&self, u: u32) -> u32 {
        self.depth[u as usize]
    }

    /// Tree height (maximum depth).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Role of `u`; `None` for non-CDS trees.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn role(&self, u: u32) -> Option<Role> {
        self.roles.as_ref().map(|r| r[u as usize])
    }

    /// All roles (CDS trees only).
    #[must_use]
    pub fn roles(&self) -> Option<&[Role]> {
        self.roles.as_deref()
    }

    /// Tree degree of `u` (children plus parent edge).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn tree_degree(&self, u: u32) -> usize {
        self.children[u as usize].len() + usize::from(self.parent[u as usize].is_some())
    }

    /// Maximum tree degree `Δ` (Lemma 6 / Theorem 1 of the paper).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.len() as u32)
            .map(|u| self.tree_degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Degree of the base station `Δ_b` (Theorem 2).
    #[must_use]
    pub fn root_degree(&self) -> usize {
        self.children[self.root as usize].len()
    }

    /// Count of nodes with the given role (0 for non-CDS trees).
    #[must_use]
    pub fn count_role(&self, role: Role) -> usize {
        self.roles
            .as_ref()
            .map_or(0, |r| r.iter().filter(|&&x| x == role).count())
    }

    /// Iterates node ids along the path from `u` (inclusive) to the root
    /// (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn path_to_root(&self, u: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cur = Some(u);
        std::iter::from_fn(move || {
            let here = cur?;
            cur = self.parent[here as usize];
            Some(here)
        })
    }

    /// Checks the full set of structural invariants against `graph`:
    /// spanning rooted tree over graph edges, and for CDS trees the role
    /// alternation of Section IV-A (dominatee → dominator, dominator →
    /// connector, connector → dominator) plus independence and domination
    /// of the dominator set.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, graph: &UnitDiskGraph) -> Result<(), TreeError> {
        // Structure is revalidated (assemble checked it at construction,
        // but `validate` is also the public audit entry point).
        Self::assemble(
            self.kind,
            graph,
            self.root,
            self.parent.clone(),
            self.roles.clone(),
        )?;
        let Some(roles) = &self.roles else {
            return Ok(());
        };
        if roles[self.root as usize] != Role::Dominator {
            return Err(TreeError::RoleViolation {
                node: self.root,
                what: "root must be a dominator",
            });
        }
        for u in 0..self.len() as u32 {
            let role = roles[u as usize];
            // Independence + domination of the dominator set.
            match role {
                Role::Dominator => {
                    for &v in graph.neighbors(u) {
                        if roles[v as usize] == Role::Dominator {
                            return Err(TreeError::RoleViolation {
                                node: u,
                                what: "adjacent dominators",
                            });
                        }
                    }
                }
                Role::Connector | Role::Dominatee => {
                    if !graph
                        .neighbors(u)
                        .iter()
                        .any(|&v| roles[v as usize] == Role::Dominator)
                    {
                        return Err(TreeError::RoleViolation {
                            node: u,
                            what: "node not dominated by any dominator",
                        });
                    }
                }
            }
            // Parent role alternation.
            if let Some(p) = self.parent[u as usize] {
                let pr = roles[p as usize];
                let ok = match role {
                    Role::Dominatee => pr == Role::Dominator,
                    Role::Dominator => pr == Role::Connector,
                    Role::Connector => pr == Role::Dominator,
                };
                if !ok {
                    return Err(TreeError::RoleViolation {
                        node: u,
                        what: "parent role does not alternate",
                    });
                }
            } else if role != Role::Dominator {
                return Err(TreeError::RoleViolation {
                    node: u,
                    what: "root must be a dominator",
                });
            }
        }
        Ok(())
    }

    /// Maximum number of connectors adjacent (in `graph`) to any single
    /// dominator — Lemma 1 says this is at most 12 for CDS trees. Returns
    /// `None` for non-CDS trees.
    #[must_use]
    pub fn max_connectors_per_dominator(&self, graph: &UnitDiskGraph) -> Option<usize> {
        let roles = self.roles.as_ref()?;
        let max = (0..self.len() as u32)
            .filter(|&u| roles[u as usize] == Role::Dominator)
            .map(|u| {
                graph
                    .neighbors(u)
                    .iter()
                    .filter(|&&v| roles[v as usize] == Role::Connector)
                    .count()
            })
            .max()
            .unwrap_or(0);
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_geometry::{Deployment, Point, Region};
    use rand::SeedableRng;

    fn random_connected(seed: u64, n: usize, side: f64, r: f64) -> UnitDiskGraph {
        let mut s = seed;
        loop {
            let mut rng = rand::rngs::StdRng::seed_from_u64(s);
            let d = Deployment::uniform(Region::square(side), n, &mut rng);
            let g = UnitDiskGraph::build(&d, r);
            if g.is_connected() {
                return g;
            }
            s += 1000;
        }
    }

    #[test]
    fn cds_tree_on_random_graphs_validates() {
        for seed in 0..8 {
            let g = random_connected(seed, 200, 55.0, 9.0);
            let t = CollectionTree::cds(&g, 0).expect("construction succeeds");
            t.validate(&g).expect("invariants hold");
            assert_eq!(t.kind(), TreeKind::Cds);
            assert_eq!(t.root(), 0);
        }
    }

    #[test]
    fn cds_roles_partition_nodes() {
        let g = random_connected(5, 250, 60.0, 9.0);
        let t = CollectionTree::cds(&g, 0).unwrap();
        let total = t.count_role(Role::Dominator)
            + t.count_role(Role::Connector)
            + t.count_role(Role::Dominatee);
        assert_eq!(total, g.len());
        assert!(t.count_role(Role::Dominator) >= 1);
    }

    #[test]
    fn lemma1_connector_bound_holds() {
        for seed in 0..6 {
            let g = random_connected(seed * 7 + 1, 300, 65.0, 9.0);
            let t = CollectionTree::cds(&g, 0).unwrap();
            let max = t.max_connectors_per_dominator(&g).unwrap();
            assert!(
                max <= 12,
                "Lemma 1 violated: {max} connectors (seed {seed})"
            );
        }
    }

    #[test]
    fn depths_decrease_along_parents() {
        let g = random_connected(3, 150, 50.0, 9.0);
        let t = CollectionTree::cds(&g, 0).unwrap();
        for u in 0..g.len() as u32 {
            if let Some(p) = t.parent(u) {
                assert_eq!(t.depth(p) + 1, t.depth(u));
            }
        }
        assert_eq!(t.depth(0), 0);
    }

    #[test]
    fn path_to_root_terminates_at_root() {
        let g = random_connected(4, 150, 50.0, 9.0);
        let t = CollectionTree::cds(&g, 0).unwrap();
        for u in 0..g.len() as u32 {
            let path: Vec<u32> = t.path_to_root(u).collect();
            assert_eq!(*path.first().unwrap(), u);
            assert_eq!(*path.last().unwrap(), 0);
            assert!(path.len() as u32 == t.depth(u) + 1);
        }
    }

    #[test]
    fn bfs_tree_matches_bfs_levels() {
        let g = random_connected(9, 150, 50.0, 9.0);
        let t = CollectionTree::bfs(&g, 0).unwrap();
        t.validate(&g).unwrap();
        let levels = g.bfs_levels(0);
        for u in 0..g.len() as u32 {
            assert_eq!(Some(t.depth(u)), levels[u as usize]);
        }
        assert!(t.role(0).is_none(), "BFS trees have no CDS roles");
    }

    #[test]
    fn cds_depth_at_most_three_times_bfs_plus_constant() {
        // CDS paths go dominatee->dominator->connector->..., at most ~2 tree
        // hops per BFS level plus attachment overhead.
        let g = random_connected(12, 300, 70.0, 9.0);
        let cds = CollectionTree::cds(&g, 0).unwrap();
        let bfs = CollectionTree::bfs(&g, 0).unwrap();
        assert!(
            u64::from(cds.height()) <= 3 * u64::from(bfs.height()) + 3,
            "cds height {} vs bfs height {}",
            cds.height(),
            bfs.height()
        );
    }

    #[test]
    fn from_parents_roundtrip() {
        let g = random_connected(6, 100, 40.0, 9.0);
        let t = CollectionTree::bfs(&g, 0).unwrap();
        let parents: Vec<Option<u32>> = (0..g.len() as u32).map(|u| t.parent(u)).collect();
        let t2 = CollectionTree::from_parents(&g, 0, parents).unwrap();
        assert_eq!(t2.kind(), TreeKind::Custom);
        assert_eq!(t2.height(), t.height());
    }

    #[test]
    fn from_parents_rejects_cycle() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::new(4.0, 1.0), pts), 1.5);
        // 1 <-> 2 cycle, 3 hangs off 2; node 0 is root.
        let parents = vec![None, Some(2), Some(1), Some(2)];
        let err = CollectionTree::from_parents(&g, 0, parents).unwrap_err();
        assert!(matches!(err, TreeError::NotATree { .. }), "{err}");
    }

    #[test]
    fn from_parents_rejects_non_edge() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::new(3.0, 1.0), pts), 1.1);
        let parents = vec![None, Some(0), Some(0)]; // 2-0 is not an edge
        let err = CollectionTree::from_parents(&g, 0, parents).unwrap_err();
        assert_eq!(
            err,
            TreeError::BadParentEdge {
                child: 2,
                parent: 0
            }
        );
    }

    #[test]
    fn disconnected_graph_is_an_error() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(30.0, 0.0)];
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::new(40.0, 1.0), pts), 1.0);
        assert_eq!(
            CollectionTree::cds(&g, 0).unwrap_err(),
            TreeError::Disconnected { node: 1 }
        );
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::square(1.0), vec![]), 1.0);
        assert_eq!(
            CollectionTree::cds(&g, 0).unwrap_err(),
            TreeError::EmptyGraph
        );
    }

    #[test]
    fn root_out_of_range_is_an_error() {
        let pts = vec![Point::new(0.5, 0.5)];
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::square(1.0), pts), 1.0);
        assert!(matches!(
            CollectionTree::cds(&g, 5).unwrap_err(),
            TreeError::RootOutOfRange { root: 5, len: 1 }
        ));
    }

    #[test]
    fn single_node_tree() {
        let pts = vec![Point::new(0.5, 0.5)];
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::square(1.0), pts), 1.0);
        let t = CollectionTree::cds(&g, 0).unwrap();
        assert_eq!(t.height(), 0);
        assert_eq!(t.root_degree(), 0);
        assert_eq!(t.max_degree(), 0);
        assert_eq!(t.role(0), Some(Role::Dominator));
        t.validate(&g).unwrap();
    }

    #[test]
    fn two_node_tree_is_root_plus_dominatee() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::new(2.0, 1.0), pts), 1.5);
        let t = CollectionTree::cds(&g, 0).unwrap();
        assert_eq!(t.role(1), Some(Role::Dominatee));
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.root_degree(), 1);
        t.validate(&g).unwrap();
    }

    #[test]
    fn star_topology_all_dominatees() {
        let mut pts = vec![Point::new(5.0, 5.0)];
        for i in 0..8 {
            let a = i as f64 * std::f64::consts::TAU / 8.0;
            pts.push(Point::new(5.0 + 2.0 * a.cos(), 5.0 + 2.0 * a.sin()));
        }
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::square(10.0), pts), 2.5);
        let t = CollectionTree::cds(&g, 0).unwrap();
        assert_eq!(t.count_role(Role::Dominator), 1);
        assert_eq!(t.count_role(Role::Connector), 0);
        assert_eq!(t.height(), 1);
        t.validate(&g).unwrap();
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_connected_graph() -> impl Strategy<Value = UnitDiskGraph> {
            // Density high enough that most draws connect; the generator
            // resamples by shifting the seed like random_connected does.
            (0u64..10_000, 30usize..120).prop_map(|(seed, n)| {
                let side = (n as f64 / 0.045).sqrt();
                let mut s = seed;
                loop {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(s);
                    let d = Deployment::uniform(Region::square(side), n, &mut rng);
                    let g = UnitDiskGraph::build(&d, 10.0);
                    if g.is_connected() {
                        return g;
                    }
                    s = s.wrapping_add(7919);
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn prop_cds_always_validates(g in arb_connected_graph()) {
                let t = CollectionTree::cds(&g, 0).unwrap();
                prop_assert!(t.validate(&g).is_ok());
            }

            #[test]
            fn prop_lemma1_holds(g in arb_connected_graph()) {
                let t = CollectionTree::cds(&g, 0).unwrap();
                prop_assert!(t.max_connectors_per_dominator(&g).unwrap() <= 12);
            }

            #[test]
            fn prop_cds_depth_bounded_by_three_bfs(g in arb_connected_graph()) {
                let cds = CollectionTree::cds(&g, 0).unwrap();
                let bfs = CollectionTree::bfs(&g, 0).unwrap();
                prop_assert!(
                    u64::from(cds.height()) <= 3 * u64::from(bfs.height()) + 3
                );
            }

            #[test]
            fn prop_every_node_reaches_root(g in arb_connected_graph()) {
                let t = CollectionTree::cds(&g, 0).unwrap();
                for u in 0..g.len() as u32 {
                    let last = t.path_to_root(u).last().unwrap();
                    prop_assert_eq!(last, 0);
                }
            }

            #[test]
            fn prop_dominators_form_maximal_independent_set(g in arb_connected_graph()) {
                let t = CollectionTree::cds(&g, 0).unwrap();
                for u in 0..g.len() as u32 {
                    if t.role(u) == Some(Role::Dominator) {
                        for &v in g.neighbors(u) {
                            prop_assert_ne!(t.role(v), Some(Role::Dominator));
                        }
                    } else {
                        let dominated = g
                            .neighbors(u)
                            .iter()
                            .any(|&v| t.role(v) == Some(Role::Dominator));
                        prop_assert!(dominated, "node {} undominated", u);
                    }
                }
            }
        }
    }

    #[test]
    fn long_line_alternates_roles() {
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i as f64, 0.5)).collect();
        let g = UnitDiskGraph::build(&Deployment::from_points(Region::new(20.0, 1.0), pts), 1.1);
        let t = CollectionTree::cds(&g, 0).unwrap();
        t.validate(&g).unwrap();
        // Dominators sit every other node on a line; connectors fill gaps.
        assert!(t.count_role(Role::Dominator) >= 9);
        assert!(t.height() >= 19, "line tree must stay a path");
    }
}
