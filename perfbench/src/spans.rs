//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions — never inside the program — and kept in
//! memory until [`Recorder::write_ndjson`] writes them out at the end.

use std::fmt::Write as _;
use std::time::Instant;

use crate::procfs::{self, CpuTicks};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `cegis_step`.
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Process user/sys CPU ticks spent between start and end.
    pub cpu: CpuTicks,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; a disabled recorder only runs the closures.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let cpu0 = procfs::cpu_ticks();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cpu: CpuTicks::default(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.cpu = procfs::cpu_ticks().since(cpu0);
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed wall seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Summed CPU ticks of the spans named `name`.
    pub fn total_cpu(&self, name: &str) -> CpuTicks {
        self.named(name)
            .fold(CpuTicks::default(), |acc, s| acc + s.cpu)
    }

    /// Writes every span as one JSON object per line: name, start and end
    /// in nanoseconds, parent index (or `null`), CPU ticks and self time.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"user_ticks\":{},\"sys_ticks\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cpu.user, s.cpu.sys, selfs[i]
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut cover)| {
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in cover {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}
