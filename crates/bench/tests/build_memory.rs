//! Heap budget of sparse radio customization, measured by a counting
//! global allocator (hence a test binary of its own).
//!
//! A `Truncated` build writes every table once, in place, so its peak
//! live heap stays near what the world keeps. A power-only
//! re-customization whose budget the stored PU ladders cover shares every
//! table and builds nothing, even where slots move to other ladder steps:
//! a slot's served PUs and residual are read off its ladder when asked.

use crn_bench::synthetic::{bump_su_power, grid_radio, grid_topology};
use crn_interference::PhyParams;
use crn_sim::{InterferenceModel, MacConfig, SimReport, SimWorld, Simulator};
use crn_spectrum::PuActivity;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The system allocator plus three counters: bytes live now, the most
/// bytes live at once, and bytes requested in total.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
    REQUESTED.fetch_add(bytes, SeqCst);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc may copy into a fresh block, holding the old
        // and the new one at once: count both until it returns.
        grew(new_size);
        // SAFETY: the caller's guarantees on `ptr`, `layout` and
        // `new_size` pass through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(if p.is_null() { new_size } else { layout.size() }, SeqCst);
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Tests in one binary run on parallel threads; each measurement holds
/// this lock so that no other test's allocations land in its counts.
static MEASURE: Mutex<()> = Mutex::new(());

/// Takes [`MEASURE`]. It guards no data, so a test that failed while
/// holding it leaves nothing to repair.
fn measure_alone() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The synthetic grid's size: 5,000 SUs and 1,000 PUs.
const N: usize = 5_000;

const TRUNCATED: InterferenceModel = InterferenceModel::Truncated { epsilon: 0.1 };

/// A capped run of `world` whose PUs transmit with probability `p_t` a
/// slot (0 is the simulator's default, a silent primary network).
fn run(world: SimWorld, p_t: f64) -> SimReport {
    Simulator::builder(world)
        .mac(MacConfig {
            max_sim_time: 0.01,
            ..MacConfig::default()
        })
        .activity(PuActivity::bernoulli(p_t).expect("valid p_t"))
        .seed(42)
        .build()
        .expect("valid simulator")
        .run()
}

#[test]
fn sparse_build_peaks_near_what_it_keeps() {
    let _guard = measure_alone();
    let topology = Arc::new(grid_topology(N));
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    let world = SimWorld::new(topology, grid_radio(TRUNCATED)).expect("valid grid world");
    let peak = PEAK.load(SeqCst) - before;
    let kept = LIVE.load(SeqCst) - before;
    eprintln!(
        "n = {N}: build peak {peak} B, kept {kept} B ({:.2}x), gain tables {} B",
        peak as f64 / kept as f64,
        world.gain_table_bytes()
    );
    assert!(
        peak as f64 <= 1.25 * kept as f64,
        "building peaked at {peak} B of live heap for {kept} B kept"
    );
}

#[test]
fn power_recustomize_allocates_almost_nothing() {
    let _guard = measure_alone();
    let topology = Arc::new(grid_topology(N));
    let params = grid_radio(TRUNCATED);
    let world = SimWorld::new(topology.clone(), params).expect("valid grid world");
    let bumped = params.phy(bump_su_power(&params.phy));
    let before = REQUESTED.load(SeqCst);
    let recustomized = world.recustomize(bumped).expect("power-only recustomize");
    let requested = REQUESTED.load(SeqCst) - before;
    let tables = world.gain_table_bytes();
    eprintln!(
        "n = {N}: recustomize requested {requested} B against {tables} B of gain tables ({:.2}%)",
        100.0 * requested as f64 / tables as f64
    );
    assert!(
        (requested as f64) < 0.02 * tables as f64,
        "a power-only recustomize requested {requested} B against {tables} B of gain tables"
    );
    let fresh = SimWorld::new(topology, bumped).expect("valid grid world");
    let report = run(recustomized, 0.0);
    assert!(report.attempts > 0, "the capped run made no progress");
    assert_eq!(report, run(fresh, 0.0));
}

/// `phy` with its transmit powers replaced.
fn with_powers(phy: &PhyParams, pu_power: f64, su_power: f64) -> PhyParams {
    let mut b = PhyParams::builder();
    b.alpha(phy.alpha())
        .pu_power(pu_power)
        .su_power(su_power)
        .pu_radius(phy.pu_radius())
        .su_radius(phy.su_radius())
        .pu_sir_threshold(phy.pu_sir_threshold())
        .su_sir_threshold(phy.su_sir_threshold());
    b.build().expect("valid powers")
}

/// At `P_p` 100, `P_s` 1 the grid's slots climb their PU ladders; at
/// `P_s` 10 the budget is looser, so the stored ladders cover it and slots
/// step down them. With `P_p` fixed, a residual that changes is a step
/// that moved.
#[test]
fn recustomize_that_moves_ladder_steps_allocates_almost_nothing() {
    let n = 2_000;
    let _guard = measure_alone();
    let topology = Arc::new(grid_topology(n));
    let params = grid_radio(TRUNCATED);
    let pulling = params.phy(with_powers(&params.phy, 100.0, 1.0));
    let looser = params.phy(with_powers(&params.phy, 100.0, 10.0));
    let world = SimWorld::new(topology.clone(), pulling).expect("valid grid world");
    let before = REQUESTED.load(SeqCst);
    let recustomized = world.recustomize(looser).expect("power-only recustomize");
    let requested = REQUESTED.load(SeqCst) - before;
    let tables = world.gain_table_bytes();
    let residuals = |w: &SimWorld| w.truncation_stats().expect("a truncated world").1;
    let (from, to) = (residuals(&world), residuals(&recustomized));
    let moved = from
        .iter()
        .zip(&to)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    eprintln!(
        "n = {n}: {moved} of {} residuals moved; recustomize requested {requested} B \
         against {tables} B of gain tables ({:.2}%)",
        from.len(),
        100.0 * requested as f64 / tables as f64
    );
    assert!(moved > 0, "no slot moved to another ladder step");
    assert!(
        (requested as f64) < 0.02 * tables as f64,
        "a recustomize that moves ladder steps requested {requested} B against {tables} B of \
         gain tables"
    );
    let fresh = SimWorld::new(topology, looser).expect("valid grid world");
    let report = run(recustomized, 0.3);
    assert!(report.attempts > 0, "the capped run made no progress");
    assert_eq!(report, run(fresh, 0.3));
}
