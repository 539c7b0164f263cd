//! Span timers, counters and a timing `Vfs`, all owned by the benchmark.
//!
//! One process-wide span stack: the replay runs one op at a time and the
//! executor runs `--jobs 1` jobs inline, so spans nest strictly in time
//! even when a call crosses threads.

use acc_validation::{RealFs, Vfs, VfsFile};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Frame {
    name: &'static str,
    start: Instant,
    /// Time of this span covered by child spans (and untimed regions).
    covered: Duration,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    self_ns: BTreeMap<&'static str, u128>,
    counts: BTreeMap<&'static str, u64>,
    /// Total time spent in outermost untimed regions.
    excluded: Duration,
    untimed_depth: u32,
}

static STATE: Mutex<State> = Mutex::new(State {
    stack: Vec::new(),
    self_ns: BTreeMap::new(),
    counts: BTreeMap::new(),
    excluded: Duration::ZERO,
    untimed_depth: 0,
});

fn state() -> std::sync::MutexGuard<'static, State> {
    STATE.lock().expect("trace state poisoned")
}

fn enter(name: &'static str) {
    state().stack.push(Frame {
        name,
        start: Instant::now(),
        covered: Duration::ZERO,
    });
}

/// Close the innermost span; returns its whole duration.
fn leave(record: bool) -> Duration {
    let mut s = state();
    let frame = s.stack.pop().expect("span stack underflow");
    let d = frame.start.elapsed();
    if record {
        *s.self_ns.entry(frame.name).or_default() += d.saturating_sub(frame.covered).as_nanos();
    }
    if let Some(parent) = s.stack.last_mut() {
        parent.covered += d;
    }
    d
}

/// Time `f` as span `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    enter(name);
    let out = f();
    leave(true);
    out
}

/// Run benchmark bookkeeping: its time is in no layer and not in the op's
/// wall time. Spans opened inside still record their own self time.
pub fn untimed<T>(f: impl FnOnce() -> T) -> T {
    {
        let mut s = state();
        s.untimed_depth += 1;
    }
    enter("untimed");
    let out = f();
    let d = leave(false);
    let mut s = state();
    s.untimed_depth -= 1;
    if s.untimed_depth == 0 {
        s.excluded += d;
    }
    out
}

pub fn count(name: &'static str, n: u64) {
    *state().counts.entry(name).or_default() += n;
}

/// Open the root span of one op.
pub fn begin_op() -> Duration {
    enter("op");
    state().excluded
}

/// Close the op's root span; returns its wall time in ms, bookkeeping
/// excluded.
pub fn end_op(excluded_at_start: Duration) -> f64 {
    let d = leave(true);
    let excluded = state().excluded - excluded_at_start;
    d.saturating_sub(excluded).as_secs_f64() * 1e3
}

/// Self time per span name (ns) and every counter.
pub fn snapshot() -> (BTreeMap<&'static str, u128>, BTreeMap<&'static str, u64>) {
    let s = state();
    (s.self_ns.clone(), s.counts.clone())
}

/// A `Vfs` over the real filesystem that times every call as span `span`
/// (when given) and counts fsyncs of files and directories.
pub struct TimingFs {
    span: Option<&'static str>,
    fsyncs: &'static str,
}

impl TimingFs {
    pub fn new(span: Option<&'static str>, fsyncs: &'static str) -> Self {
        TimingFs { span, fsyncs }
    }
}

fn timed<T>(name: Option<&'static str>, f: impl FnOnce() -> T) -> T {
    match name {
        Some(n) => span(n, f),
        None => f(),
    }
}

struct TimingFile {
    inner: Box<dyn VfsFile>,
    span: Option<&'static str>,
    fsyncs: &'static str,
}

impl VfsFile for TimingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        timed(self.span, || self.inner.write_all(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        timed(self.span, || self.inner.flush())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        count(self.fsyncs, 1);
        timed(self.span, || self.inner.sync_all())
    }
}

impl TimingFs {
    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TimingFile {
            inner: file?,
            span: self.span,
            fsyncs: self.fsyncs,
        }))
    }
}

impl Vfs for TimingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(timed(self.span, || RealFs.create(path)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(timed(self.span, || RealFs.open_append(path)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        timed(self.span, || RealFs.read(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        timed(self.span, || RealFs.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        timed(self.span, || RealFs.remove_file(path))
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        count(self.fsyncs, 1);
        timed(self.span, || RealFs.fsync_dir(dir))
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        timed(self.span, || RealFs.read_dir(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        timed(self.span, || RealFs.create_dir_all(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        timed(self.span, || RealFs.exists(path))
    }
}
