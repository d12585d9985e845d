//! Host-time spans recorded around calls into the repository's layers.
//!
//! A [`Tracer`] keeps every span in memory (name, detail, start, end,
//! parent) and is written out once the run ends, as Chrome trace-event
//! JSON that `tls_sim::validate_perfetto` accepts. The timed rounds run
//! with [`Tracer::off`], whose spans cost one branch, so the same round
//! code serves both the untraced end-to-end measurement and the traced
//! per-layer round.

use std::time::Instant;

use crate::json::string as json_string;

/// One completed (or still open) span; times are seconds since the
/// tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.compile`.
    pub name: String,
    /// What the call worked on: program, mode or seed.
    pub detail: String,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the span, seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder for one workload.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &str,
        detail: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            detail: detail.into(),
            start: self.now(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Duration of span `i` minus the part of it its children cover.
    pub fn self_time(&self, i: usize) -> f64 {
        self.spans[i].secs() - self.child_cover(i)
    }

    /// Share of span `i`'s wall time covered by its direct children.
    pub fn coverage(&self, i: usize) -> f64 {
        self.child_cover(i) / self.spans[i].secs()
    }

    fn child_cover(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        // Spans are stored in opening order, so a span's children follow it
        // and open before it closes.
        let children: Vec<(f64, f64)> = self.spans[i + 1..]
            .iter()
            .take_while(|c| c.start < s.end)
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start, c.end))
            .collect();
        union_len(children, (s.start, s.end))
    }

    /// Indices of the spans named `name`.
    pub fn named(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Summed self time of every span named `name`, seconds.
    pub fn total_self(&self, name: &str) -> f64 {
        self.named(name)
            .into_iter()
            .map(|i| self.self_time(i))
            .sum()
    }

    /// Chrome trace-event JSON: a process-name record for `pid`, then one
    /// complete (`"X"`) event per span in start order.
    pub fn chrome_events(&self, pid: u32, workload: &str) -> Vec<String> {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| self.spans[a].start.total_cmp(&self.spans[b].start));
        let mut out = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_string(workload)
        )];
        for i in order {
            let s = &self.spans[i];
            let parent = match s.parent {
                Some(p) => json_string(&self.spans[p].name),
                None => "null".into(),
            };
            out.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":1,\
                 \"args\":{{\"detail\":{},\"parent\":{parent},\"workload\":{},\
                 \"self_us\":{:.3}}}}}",
                json_string(&s.name),
                s.start * 1e6,
                s.secs() * 1e6,
                json_string(&s.detail),
                json_string(workload),
                self.self_time(i) * 1e6
            ));
        }
        out
    }
}

/// Wrap trace events into one Chrome trace document.
pub fn chrome_document(events: &[String]) -> String {
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Length of the union of `intervals`, clipped to `clip`.
pub fn union_len(mut intervals: Vec<(f64, f64)>, clip: (f64, f64)) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(clip.0), b.min(clip.1));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            detail: String::new(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Tracer::on();
        t.spans = vec![
            span("round", 0.0, 10.0, None),
            // Two children overlapping on [3, 4], one nested grandchild that
            // must not count against the root, and a child poking past the
            // parent's end.
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("a.inner", 1.5, 2.0, Some(1)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // Children cover [1, 6] and [9, 10]: 6 s of the root's 10 s.
        assert!((t.self_time(0) - 4.0).abs() < 1e-12, "{}", t.self_time(0));
        assert!((t.coverage(0) - 0.6).abs() < 1e-12);
        assert!((t.self_time(1) - 2.5).abs() < 1e-12);
        assert!((t.total_self("a.inner") - 0.5).abs() < 1e-12);
        assert_eq!(union_len(vec![], (0.0, 1.0)), 0.0);
    }

    #[test]
    fn spans_nest_and_export_as_valid_chrome_json() {
        let mut t = Tracer::on();
        t.span("round", "", |t| {
            t.span("harness.new", "go", |_| ());
            t.span("figures.fig2", "", |t| t.span("inner", "x\"y", |_| ()));
        });
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        let doc = chrome_document(&t.chrome_events(3, "paper-ref"));
        assert_eq!(tls_sim::validate_perfetto(&doc), Ok(5));

        let mut off = Tracer::off();
        assert_eq!(off.span("x", "", |_| 7), 7);
        assert!(off.spans.is_empty());
    }
}
