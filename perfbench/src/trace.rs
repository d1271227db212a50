//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each layer's public functions. Each span has a name, a start and
//! an end, the span that encloses it on the same thread (its parent), and
//! the job or request it belongs to. Spans stay in memory until the unit
//! ends and are then written out once, as JSON lines.
//!
//! A layer's figure is its spans' *self time*: a span's duration minus
//! the part of it that its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Job or request the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

/// An open span; recorded when dropped. Inert when tracing is off.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

/// Opens a span named `name` for job or request `op`.
pub fn span(name: &'static str, op: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start_ns = rec.epoch.elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, parent, name, op, start_ns)),
    }
}

/// Runs `f` inside a span.
pub fn in_span<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    let _guard = span(name, op);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, op, start_ns)) = self.open.take() else {
            return;
        };
        let rec = recorder();
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.truncate(pos);
            }
        });
        let span = Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        };
        // A poisoned lock only means another thread panicked mid-push;
        // the vector itself is still whole.
        rec.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    match RECORDER.get() {
        None => Vec::new(),
        Some(rec) => rec
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone(),
    }
}

/// Self time in seconds per span name: each span's duration minus the
/// union of its children's intervals.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Number of spans per name.
pub fn counts(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += 1;
    }
    out
}

/// Writes the spans as JSON lines to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span_at(1, None, "root", 0, 100),
            span_at(2, Some(1), "kid", 10, 30),
            span_at(3, Some(1), "kid", 20, 50),
            span_at(4, Some(3), "leaf", 25, 35),
        ];
        let own = self_seconds(&spans);
        assert!((own["root"] - 60e-9).abs() < 1e-15);
        assert!((own["kid"] - (20e-9 + 20e-9)).abs() < 1e-15);
        assert!((own["leaf"] - 10e-9).abs() < 1e-15);
    }
}
