//! In-memory span recorder for the traced run.
//!
//! Every layer call the benchmark makes is bracketed by [`Tracer::open`]
//! and [`Tracer::close`]. `close` always returns the call's wall time, so
//! the legs take their samples from it in both modes; only a traced run
//! also keeps the span (name, application, start, end, parent, trace id).
//! Spans stay in memory until [`Tracer::write_jsonl`] at the end of the
//! run, and self time is derived from them afterwards.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one application pass.
    pub trace: u64,
    /// Layer call, `<crate>.<call>`.
    pub name: &'static str,
    /// Application the call worked on (`""` for suite-level spans).
    pub app: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[must_use = "a span must be closed"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Span recorder. With recording off it is a plain stopwatch.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    paused: bool,
    epoch: Instant,
    trace: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans iff `recording`.
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            paused: false,
            epoch: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being kept right now.
    pub fn active(&self) -> bool {
        self.recording && !self.paused
    }

    /// Stops (`true`) or resumes (`false`) keeping spans; the traced run
    /// pauses on alternate iterations to measure its own overhead.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Starts a new trace id; later spans belong to it.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Opens a span named `name` on `app`, nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, app: &'static str) -> Open {
        let index = self.active().then(|| {
            self.spans.push(Span {
                trace: self.trace,
                name,
                app,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        let start = Instant::now();
        if let Some(i) = index {
            self.spans[i].start_ns = self.since_epoch(start);
        }
        Open { start, index }
    }

    /// Closes `open` and returns its wall time.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.since_epoch(end);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close in LIFO order");
        }
        end - open.start
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span kept so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one parent never overlap).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"trace\":{},\"name\":\"{}\",\"app\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent}}}",
                s.trace, s.name, s.app, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new(true);
        t.next_trace();
        let outer = t.open("core.pipeline", "A");
        let inner = t.open("inject.detect", "A");
        std::thread::sleep(Duration::from_millis(2));
        let d_inner = t.close(inner);
        let d_outer = t.close(outer);
        assert!(d_outer >= d_inner);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].trace, spans[1].trace);
        let own = t.self_times_ns();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns());
    }

    #[test]
    fn stopwatch_mode_keeps_nothing() {
        let mut t = Tracer::new(false);
        let o = t.open("x", "");
        let _ = t.close(o);
        assert!(t.spans().is_empty());
        let mut on = Tracer::new(true);
        on.pause(true);
        let o = on.open("x", "");
        let _ = on.close(o);
        assert!(on.spans().is_empty());
    }
}
