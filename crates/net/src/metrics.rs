//! Scrapeable serving metrics for the broker (and the fleet manager).
//!
//! Any peer may connect to a serving address and send one
//! [`crate::proto::Msg::MetricsReq`] frame as its *first* frame; the
//! server answers with a [`crate::proto::Msg::Metrics`] frame carrying
//! a plain-text snapshot and closes the connection. The text is the
//! conventional line-oriented scrape format (`name{label="x"} value`,
//! one sample per line, `#`-prefixed comments), so standard collectors
//! can ingest it with a trivial exporter — and `audit fleet metrics
//! --connect ADDR` prints it verbatim.
//!
//! Metrics are observability only: no counter here ever feeds back into
//! scheduling or results, so scraping (or not) cannot perturb a run.

use std::sync::atomic::{AtomicU64, Ordering};

/// Builder for one scrape snapshot: renders samples in insertion order.
#[derive(Debug, Default)]
pub struct Scrape {
    text: String,
}

impl Scrape {
    /// An empty snapshot.
    pub fn new() -> Scrape {
        Scrape::default()
    }

    /// Appends a `# comment` line.
    pub fn comment(&mut self, text: &str) -> &mut Self {
        self.text.push_str("# ");
        self.text.push_str(text);
        self.text.push('\n');
        self
    }

    /// Appends one unlabelled sample.
    pub fn sample(&mut self, name: &str, value: u64) -> &mut Self {
        self.text.push_str(name);
        self.text.push(' ');
        self.text.push_str(&value.to_string());
        self.text.push('\n');
        self
    }

    /// Appends one labelled sample (`name{k="v",…} value`).
    pub fn labelled(&mut self, name: &str, labels: &[(&str, &str)], value: u64) -> &mut Self {
        self.text.push_str(name);
        self.text.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.text.push(',');
            }
            self.text.push_str(k);
            self.text.push_str("=\"");
            self.text.push_str(v);
            self.text.push('"');
        }
        self.text.push_str("} ");
        self.text.push_str(&value.to_string());
        self.text.push('\n');
        self
    }

    /// The rendered scrape text.
    pub fn render(&self) -> String {
        self.text.clone()
    }
}

/// Shared atomic counters for a single-campaign `audit serve` broker —
/// a fleet of one. The broker thread increments; any connection thread
/// answering a [`crate::proto::Msg::MetricsReq`] renders a snapshot.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Workers currently connected (post-handshake).
    pub workers: AtomicU64,
    /// `Eval` frames dispatched (including re-dispatches).
    pub dispatches: AtomicU64,
    /// Results admitted and settled.
    pub results: AtomicU64,
    /// Results a worker answered from its cross-campaign cache.
    pub cache_hits: AtomicU64,
    /// Jobs that exhausted their retry budget and were quarantined.
    pub quarantined: AtomicU64,
    /// Workers evicted by cross-validation.
    pub evictions: AtomicU64,
    /// Jobs queued but not yet dispatched (gauge, updated per round).
    pub queue_depth: AtomicU64,
}

impl ServeMetrics {
    /// A zeroed counter set.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Relaxed add: metrics never synchronize anything.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed gauge store.
    pub fn set(counter: &AtomicU64, n: u64) {
        counter.store(n, Ordering::Relaxed);
    }

    /// Renders the scrape snapshot.
    pub fn render(&self) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut s = Scrape::new();
        s.comment("audit serve metrics");
        s.sample("audit_workers", get(&self.workers));
        s.sample("audit_dispatches_total", get(&self.dispatches));
        s.sample("audit_results_total", get(&self.results));
        s.sample("audit_cache_hits_total", get(&self.cache_hits));
        s.sample("audit_quarantined_total", get(&self.quarantined));
        s.sample("audit_worker_evictions_total", get(&self.evictions));
        s.sample("audit_queue_depth", get(&self.queue_depth));
        s.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_renders_samples_in_order() {
        let mut s = Scrape::new();
        s.comment("test");
        s.sample("plain", 3);
        s.labelled("with_labels", &[("worker", "2"), ("campaign", "c0")], 7);
        assert_eq!(
            s.render(),
            "# test\nplain 3\nwith_labels{worker=\"2\",campaign=\"c0\"} 7\n"
        );
    }

    #[test]
    fn serve_metrics_snapshot_contains_every_counter() {
        let m = ServeMetrics::new();
        ServeMetrics::add(&m.dispatches, 5);
        ServeMetrics::add(&m.results, 4);
        ServeMetrics::set(&m.queue_depth, 2);
        let text = m.render();
        assert!(text.contains("audit_dispatches_total 5"));
        assert!(text.contains("audit_results_total 4"));
        assert!(text.contains("audit_queue_depth 2"));
        assert!(text.contains("audit_workers 0"));
        assert!(text.contains("audit_cache_hits_total 0"));
        assert!(text.contains("audit_quarantined_total 0"));
        assert!(text.contains("audit_worker_evictions_total 0"));
    }
}
