//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start and an end (µs since the tracer was
//! created), the span that was open on the same thread when it began
//! (its parent), and an optional request id shared by the spans of one
//! service job. Spans are kept in memory and written out once, when the
//! traced run ends.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use crate::report::json_str;

struct Span {
    name: String,
    parent: Option<usize>,
    req: Option<u64>,
    start_us: f64,
    end_us: f64,
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span_req(name, None, f)
    }

    /// [`span`](Tracer::span) tagged with a request id.
    pub fn span_req<T>(&self, name: &str, req: Option<u64>, f: impl FnOnce() -> T) -> (T, f64) {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned by a panic");
            spans.push(Span {
                name: name.to_string(),
                parent,
                req,
                start_us: 0.0,
                end_us: 0.0,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|o| o.borrow_mut().pop());
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans[id].start_us = (start - self.t0).as_secs_f64() * 1e6;
        spans[id].end_us = (end - self.t0).as_secs_f64() * 1e6;
        (out, (end - start).as_secs_f64())
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .len()
    }

    /// The spans as a JSON document: `{"provenance": …, "spans": [{"id",
    /// "name", "parent", "req", "start_us", "end_us"}, …]}`.
    pub fn to_json(&self, provenance: &str) -> String {
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let rows: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"parent\": {}, \"req\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                    json_str(&s.name),
                    opt(s.parent.map(|p| p as u64)),
                    opt(s.req),
                    s.start_us,
                    s.end_us
                )
            })
            .collect();
        format!(
            "{{\"provenance\": {provenance}, \"spans\": [\n{}\n]}}\n",
            rows.join(",\n")
        )
    }
}

/// Run `f` in a span when a tracer is given, bare otherwise.
pub fn maybe<T>(t: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, f).0,
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let t = Tracer::new();
        let ((), outer) = t.span("outer", || {
            t.span("inner", || std::hint::black_box(0));
            std::thread::scope(|s| {
                s.spawn(|| t.span_req("other_thread", Some(7), || ()));
            });
        });
        assert!(outer >= 0.0);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        // a span opened on another thread has no parent on that thread
        assert_eq!((spans[2].parent, spans[2].req), (None, Some(7)));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
    }
}
