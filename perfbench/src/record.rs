//! Outside spans and the JSON the benchmark prints and writes.
//!
//! Spans are kept in memory while the workload runs and written out
//! once at the end, so recording one costs a clock read and a short
//! critical section.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed region recorded around a call into the simulator.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the region covers (`"capture"`, `"build"`, `"run"`, ...).
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The recording thread.
    pub thread: String,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder, shareable across sweep workers.
#[derive(Debug)]
pub struct Spans {
    base: Instant,
    list: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            base: Instant::now(),
            list: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut list = self.list.lock().expect("span recorder poisoned");
        list.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: 0,
            parent,
            thread: format!("{:?}", std::thread::current().id()),
        });
        list.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let mut list = self.list.lock().expect("span recorder poisoned");
        list[id].end_ns = end_ns;
        list[id].secs()
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f(id);
        (out, self.close(id))
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.list.lock().expect("span recorder poisoned").clone()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let list = self.snapshot();
        for (i, s) in list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"thread\": {}}}",
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                quote(&s.thread)
            );
            out.push_str(if i + 1 < list.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (`None` for non-finite values, which JSON cannot hold).
pub fn number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// The result line the benchmark prints last: `correct`, `attempted`,
/// `failed` and every metric as `{"value", "unit"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Option<String> {
    let mut body = Vec::with_capacity(metrics.len());
    for &(name, value, unit) in metrics {
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            number(value)?,
            quote(unit)
        ));
    }
    Some(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[("wall_s", 1.25, "s"), ("sim_cpi", 4.0, "cycles/inst")],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"sim_cpi\": {\"value\": 4, \"unit\": \"cycles/inst\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("x", f64::NAN, "s")]).is_none());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let spans = Spans::default();
        let root = spans.open("workload", None);
        let ((), secs) = spans.time("run", Some(root), |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.close(root);
        assert!(secs >= 0.002);
        let list = spans.snapshot();
        assert_eq!(list[1].parent, Some(0));
        assert!(list[0].secs() >= list[1].secs());
        assert!(spans.to_json().contains("\"name\": \"run\""));
        assert_eq!(quote("a\"b\\"), "\"a\\\"b\\\\\"");
    }
}
