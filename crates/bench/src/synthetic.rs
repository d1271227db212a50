//! Deterministic synthetic worlds for macro-benchmarks and scale tests.
//!
//! Scenario generation samples deployments until connectivity holds, which
//! is both slow and rejection-biased at benchmark sizes. The grid world
//! here is constructed directly: connectivity, tree validity, and node
//! density are guaranteed by layout, so a `grid_world(10_000, ..)` call
//! measures *world assembly and simulation*, not rejection sampling.

use crn_geometry::{Point, Region};
use crn_interference::{pcr, PcrConstants, PhyParams};
use crn_sim::{InterferenceModel, RadioParams, SimWorld, Topology};
use std::sync::Arc;

/// Spacing between adjacent grid SUs; comfortably inside the paper's
/// transmission radius `r = 10` so every tree link is valid.
const SPACING: f64 = 7.0;
/// Offset of the grid from the region border.
const MARGIN: f64 = 1.0;

/// Builds a deterministic world of `n` secondary users plus a base
/// station on a square grid, with `n / 5` primary users (the paper's
/// `n : N` ratio) on a coarser overlay grid.
///
/// The routing tree chains each row leftward and climbs column 0 to the
/// base station at the corner, so every non-root node is a transmitter at
/// distance `SPACING` (7.0) from its parent. Physical-layer parameters are the
/// paper's Fig. 6 defaults and both sensing ranges are the derived PCR.
///
/// # Panics
///
/// Panics if `n` is zero (a world needs at least one transmitter).
#[must_use]
pub fn grid_world(n: usize, model: InterferenceModel) -> SimWorld {
    SimWorld::new(Arc::new(grid_topology(n)), grid_radio(model))
        .expect("synthetic grid world is valid by construction")
}

/// The deterministic grid deployment as a bare [`Topology`] — the
/// structure phase alone, for benches that time it separately from radio
/// customization ([`grid_radio`]).
///
/// # Panics
///
/// Panics if `n` is zero (a world needs at least one transmitter).
#[must_use]
pub fn grid_topology(n: usize) -> Topology {
    assert!(n > 0, "grid world needs at least one SU");
    let total = n + 1;
    let cols = (total as f64).sqrt().ceil() as usize;
    let rows = total.div_ceil(cols);
    let side = (cols.max(rows) - 1) as f64 * SPACING + 2.0 * MARGIN;

    let su_positions: Vec<Point> = (0..total)
        .map(|i| {
            Point::new(
                (i % cols) as f64 * SPACING + MARGIN,
                (i / cols) as f64 * SPACING + MARGIN,
            )
        })
        .collect();
    let parents: Vec<Option<u32>> = (0..total as u32)
        .map(|i| {
            if i == 0 {
                None
            } else if !(i as usize).is_multiple_of(cols) {
                Some(i - 1)
            } else {
                Some(i - cols as u32)
            }
        })
        .collect();

    let num_pus = (n / 5).max(1);
    let pcols = (num_pus as f64).sqrt().ceil() as usize;
    let step = side / pcols as f64;
    let pu_positions: Vec<Point> = (0..num_pus)
        .map(|k| {
            Point::new(
                ((k % pcols) as f64 + 0.5) * step,
                ((k / pcols) as f64 + 0.5) * step,
            )
        })
        .collect();

    Topology::builder(Region::square(side))
        .su_positions(su_positions)
        .pu_positions(pu_positions)
        .parents(parents)
        .build()
        .expect("synthetic grid deployment is valid by construction")
}

/// The paper-default radio customization for the grid deployment:
/// Fig. 6 physical-layer parameters with both sensing ranges set to the
/// derived PCR. Size-independent, so one call serves every [`grid_topology`].
#[must_use]
pub fn grid_radio(model: InterferenceModel) -> RadioParams {
    let phy = PhyParams::paper_simulation_defaults();
    let sense = pcr::carrier_sensing_range(&phy, PcrConstants::Paper);
    RadioParams::new(phy).sense_range(sense).interference(model)
}

/// Copies `phy` with the SU transmit power raised by half — a pure radio
/// value change the customization layer absorbs without rebuilding any
/// structure.
///
/// # Panics
///
/// Panics if raising the power makes `phy` invalid, which a valid `phy`
/// cannot.
#[must_use]
pub fn bump_su_power(phy: &PhyParams) -> PhyParams {
    let mut b = PhyParams::builder();
    b.alpha(phy.alpha())
        .pu_power(phy.pu_power())
        .su_power(phy.su_power() * 1.5)
        .pu_radius(phy.pu_radius())
        .su_radius(phy.su_radius())
        .pu_sir_threshold(phy.pu_sir_threshold())
        .su_sir_threshold(phy.su_sir_threshold());
    b.build().expect("bumped phy stays valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_sim::{MacConfig, Simulator};

    #[test]
    fn grid_world_is_valid_and_sized() {
        let w = grid_world(120, InterferenceModel::Exact);
        assert_eq!(w.num_sus(), 121);
        assert_eq!(w.num_pus(), 24);
        assert_eq!(w.interference_model(), InterferenceModel::Exact);
    }

    #[test]
    fn grid_world_runs_under_both_models() {
        let mac = MacConfig {
            max_sim_time: 0.05,
            ..MacConfig::default()
        };
        let exact = Simulator::builder(grid_world(80, InterferenceModel::Exact))
            .mac(mac)
            .seed(9)
            .build()
            .unwrap()
            .run();
        let truncated = Simulator::builder(grid_world(
            80,
            InterferenceModel::Truncated { epsilon: 0.1 },
        ))
        .mac(mac)
        .seed(9)
        .build()
        .unwrap()
        .run();
        assert!(exact.attempts > 0);
        assert_eq!(exact, truncated, "ε = 0.1 must not flip any decision");
    }

    #[test]
    fn sparse_grid_world_is_smaller() {
        let dense = grid_world(500, InterferenceModel::Exact);
        let sparse = grid_world(500, InterferenceModel::Truncated { epsilon: 0.1 });
        assert!(sparse.gain_table_bytes() < dense.gain_table_bytes());
    }
}
